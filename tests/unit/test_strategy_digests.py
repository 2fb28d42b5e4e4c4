"""Every placement strategy's answers on seeded problems, pinned.

``strategy_digests.json`` holds the sites each ``repro.placement``
strategy chose on twenty problems, four of them built so that tied
cluster weights and tied cell counts decide the answer.  Ties break in
input order, so the file must reproduce under any SIMD sort numpy
dispatches to (CI re-runs this module with only the baseline CPU
features enabled).
"""

import ast
import json
import pathlib

import numpy as np
import pytest

import repro
from repro.clustering.kmeans import weighted_kmeans
from tests.data import strategy_instances


@pytest.fixture(scope="module")
def recorded():
    with open(strategy_instances.DIGESTS) as handle:
        return json.load(handle)


@pytest.mark.parametrize("group, make, seeds", [
    ("random", strategy_instances.random_problem,
     strategy_instances.RANDOM_SEEDS),
    ("tied", strategy_instances.tied_problem, strategy_instances.TIED_SEEDS),
], ids=["random", "tied"])
def test_answers_equal_the_recording(group, make, seeds, recorded):
    assert len(recorded[group]) == len(seeds)
    for seed, want in zip(seeds, recorded[group], strict=True):
        got = strategy_instances.answers(make(seed), seed)
        assert got == want, f"{group} instance {seed}"


@pytest.mark.parametrize("seed", strategy_instances.TIED_SEEDS)
def test_tied_instances_have_tied_weights(seed):
    # The tie instances only pin the tie rule if the weights the
    # heaviest-first order sorts really repeat.
    problem = strategy_instances.tied_problem(seed)
    clients = problem.client_coords()
    _, cells = np.unique(clients, axis=0, return_counts=True)
    assert len(set(cells.tolist())) < len(cells)
    result = weighted_kmeans(clients, problem.effective_k,
                             rng=np.random.default_rng(seed), n_init=4)
    weights = result.cluster_weights()
    assert len(set(weights.tolist())) < len(weights)


def test_every_sort_in_the_package_is_stable():
    # numpy's default sort is not stable, and which SIMD kernel it runs
    # depends on the CPU: an unstable argsort over tied weights makes
    # the same seed give different answers on different hosts.
    unstable = []
    for path in sorted(pathlib.Path(repro.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                continue
            name = node.func.attr
            if name == "argsort" or (
                    name == "sort" and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "np"):
                kinds = [kw.value for kw in node.keywords if kw.arg == "kind"]
                if not (kinds and isinstance(kinds[0], ast.Constant)
                        and kinds[0].value == "stable"):
                    unstable.append(f"{path.name}:{node.lineno}")
    assert unstable == []
