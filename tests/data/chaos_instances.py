"""Every bundled chaos scenario, and the summaries it was recorded to give.

``record()`` runs each ``examples/chaos/*.toml`` scenario as bundled,
plus ``catalog-smoke`` — the smoke scenario's faults and retry policy
over a 60-key catalog of two-key groups on 3 shards, with staggered
epochs, a global migration budget, a client hotspot at position 0 that
draws migrations, and 90 %-loss links from positions 1-7 into positions
0-2 so that transfers retry, give up and roll back — through
:func:`repro.chaos.run_chaos`, and returns per scenario ``[sha256 of
chaos_summary_json, faulty repairs, faulty migration retries, faulty
rollbacks, faulty summary retries]``.  The counts say which
control-plane paths a scenario drives and give a failing digest a first
hint; the hash pins everything else, down to the last bit of every
latency.

``chaos_digests.json`` next to this file is that dictionary as recorded
at commit 3aa749e (before the per-unit control plane left
``store/kvstore.py``); ``tests/integration/test_chaos_digests.py``
asserts today's answers equal it.  Re-record only when a control-plane
decision is *meant* to move::

    PYTHONPATH=src python tests/data/chaos_instances.py
"""

import dataclasses
import glob
import hashlib
import json
import os

from repro.chaos import chaos_summary_json, load_scenario, run_chaos
from repro.chaos.scenario import FaultSpec

DIGESTS = os.path.join(os.path.dirname(__file__), "chaos_digests.json")
EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "..",
                        "examples", "chaos")


def scenarios():
    """``{name: ChaosScenario}``, bundled files first, in name order."""
    out = {}
    for path in sorted(glob.glob(os.path.join(EXAMPLES, "*.toml"))):
        scenario = load_scenario(path)
        out[scenario.name] = scenario
    smoke = out["smoke"]
    lossy = tuple(FaultSpec(kind="flaky-link", at=8_000.0, a=a, b=b,
                            loss=0.9, until=40_000.0)
                  for a in range(1, 8) for b in (0, 1, 2))
    out["catalog-smoke"] = dataclasses.replace(
        smoke, name="catalog-smoke", runs=1, n_keys=60, keys_per_group=2,
        n_shards=3, epoch_stagger=1.0, max_epoch_moves=6,
        hotspot_exponent=6.0, faults=smoke.faults + lossy)
    return out


def digest(summary):
    faulty = summary["faulty"]
    return [hashlib.sha256(chaos_summary_json(summary).encode()).hexdigest(),
            faulty["repairs"], faulty["migration_retries"],
            faulty["migration_rollbacks"], faulty["summary_retries"]]


def record():
    """Every scenario's digest, as JSON-ready values."""
    return {name: digest(run_chaos(scenario))
            for name, scenario in scenarios().items()}


if __name__ == "__main__":
    with open(DIGESTS, "w") as out:
        json.dump(record(), out, indent=1, sort_keys=True)
        out.write("\n")
