"""Every chaos scenario still gives the summary it was recorded to give.

The per-unit control plane — epoch clocks, summary shipping and its
retries, migration transfers, rollback, the availability sweep and
repair — is pinned end to end by ``tests/data/chaos_digests.json``
(see ``tests/data/chaos_instances.py`` for what it holds and when to
re-record it).  The four sub-second scenarios run in tier 1; the rest
are ``slow``.
"""

import json

import pytest

from tests.data import chaos_instances
from repro.chaos import run_chaos

FAST = {"smoke", "dc-outage", "rack-outage", "region-outage"}


def _recorded():
    with open(chaos_instances.DIGESTS) as handle:
        return json.load(handle)


RECORDED = _recorded()
SCENARIOS = chaos_instances.scenarios()


def test_every_scenario_is_pinned():
    assert set(RECORDED) == set(SCENARIOS)


def test_digests_drive_every_retry_path():
    # A pin that never retries, rolls back or repairs would pin nothing
    # of the control plane's fault handling.
    totals = [sum(row[i] for row in RECORDED.values()) for i in range(1, 5)]
    assert all(totals), totals


@pytest.mark.parametrize("name", [
    name if name in FAST else pytest.param(name, marks=pytest.mark.slow)
    for name in sorted(SCENARIOS)])
def test_scenario_matches_recorded_digest(name):
    got = chaos_instances.digest(run_chaos(SCENARIOS[name]))
    assert got == RECORDED[name], name
