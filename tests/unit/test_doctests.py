"""Run the doctest examples embedded in the library's docstrings."""

import doctest

import pytest

import repro.analysis.stats
import repro.clustering.kmeans
import repro.clustering.stream
import repro.core.costs
import repro.core.migration
import repro.core.search
import repro.kernels.embed
import repro.kernels.subset
import repro.net.latency
import repro.runner.cache
import repro.runner.jobs

MODULES = [
    repro.analysis.stats,
    repro.clustering.kmeans,
    repro.clustering.stream,
    repro.core.costs,
    repro.core.migration,
    repro.core.search,
    repro.kernels.embed,
    repro.kernels.subset,
    repro.net.latency,
    repro.runner.cache,
    repro.runner.jobs,
]


@pytest.mark.parametrize("module", MODULES,
                         ids=lambda m: m.__name__)
def test_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{results.failed} doctest failures"


def test_doctests_actually_found():
    # Guard against silently losing all examples in a refactor.
    total = sum(doctest.testmod(m).attempted for m in MODULES)
    assert total >= 8
