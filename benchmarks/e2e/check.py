"""Correctness checks: committed goldens at seed 0, invariants at every seed.

``golden.json`` holds, per workload, the SHA-256 of the simulated outputs
of the ``full`` profile at seed 0 (figure series means, Table II rows
without their wall-clock fields, the store workloads' counts and delay
quantiles), plus the values themselves so a mismatch can say what moved.
Floats are rounded to nine significant digits before hashing: a real
change in behaviour moves far more than that, a different BLAS does not.

At any other seed (and in the smoke profile) the goldens do not apply and
the invariants below carry the check.  They must hold for *every* seed
the driver may pick, so the statistical ones are stated on whole-series
means with wide margins around what was measured while sizing.

Regenerate the goldens after a change that is meant to alter simulated
results::

    python benchmarks/e2e/run.py --seed 0 --out benchmarks/e2e/out
    python benchmarks/e2e/check.py --write-golden benchmarks/e2e/out/result.json
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import sys

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden.json")


def _canonical(value):
    if isinstance(value, float):
        return float(f"{value:.9g}")
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value


def digest(values: dict) -> str:
    """SHA-256 of a pass's simulated outputs (canonical JSON)."""
    text = json.dumps(_canonical(values), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def check_golden(workload: str, values: dict) -> list[str]:
    """Compare a seed-0 full-profile pass with the committed golden."""
    with open(GOLDEN_PATH) as handle:
        golden = json.load(handle)["workloads"].get(workload)
    if golden is None:
        return [f"no golden for {workload} (see check.py: --write-golden)"]
    if digest(values) == golden["sha256"]:
        return []
    ours, theirs = _canonical(values), golden["values"]
    moved = sorted(key for key in set(ours) | set(theirs)
                   if ours.get(key) != theirs.get(key))
    return [f"golden mismatch on {workload}: {', '.join(moved)} differ"]


def _check_figures(figures: dict, statistical: bool) -> list[str]:
    problems = []
    for fig_name, series in figures.items():
        if "optimal" not in series:
            continue        # Fig. 3: one strategy, nothing to order
        optimal, online, random = (series[name] for name in
                                   ("optimal", "online clustering", "random"))
        # Optimal is exhaustive on the true delays of the same candidates,
        # so no strategy can beat it at any point, in any run.
        for name, means in series.items():
            if any(m < o - 1e-9 for m, o in zip(means, optimal)):
                problems.append(f"{fig_name}: {name} beats optimal")
        if not statistical:
            continue
        # Sanity of placement quality, not a quality gate (the goldens
        # and compare.py's exact match are): seeds 0-11 measured
        # online/optimal <= 1.153 and online 35-70 % below random.
        ratio = statistics.fmean(online) / statistics.fmean(optimal)
        if ratio > 1.5:
            problems.append(f"{fig_name}: online/optimal = {ratio:.3f} > 1.5")
        gain = 1.0 - statistics.fmean(online) / statistics.fmean(random)
        if gain < 0.1:
            problems.append(f"{fig_name}: online only {gain:.1%} below random")
    return problems


def check_invariants(workload: str, detail: dict, *,
                     statistical: bool) -> list[str]:
    """Properties of one pass that hold at every seed.

    ``statistical`` adds the placement-quality sanity checks, which need
    the full profile's grids (two points of a 40-node smoke world say
    nothing about quality).
    """
    problems = []
    if "figures" in detail:
        problems += _check_figures(detail["figures"], statistical)
    if workload == "sweep_pool" and not detail["replay_equal"]:
        problems.append("sweep_pool: cache replay differs from the cold pass")
    if "issued" in detail:
        if detail["completed"] > detail["issued"]:
            problems.append(f"{workload}: completed > issued")
        if detail["epochs"] < 1:
            problems.append(f"{workload}: no placement epoch ran")
    queue = detail.get("queue")
    if queue and queue["offered"] != queue["accepted"] + queue["rejected"]:
        problems.append(f"{workload}: queue conservation broken: {queue}")
    if workload == "store_queued_mixed" and not queue["offered"]:
        problems.append("store_queued_mixed: no read went through a queue")
    if workload == "catalog_chaos":
        # Nothing stops the load at the horizon, so a few reads are still
        # in flight; anything beyond two seconds' worth is a leak.
        in_flight = (detail["issued"] - detail["completed"]
                     - detail["failed_reads"])
        if not 0 <= in_flight <= 2_000:
            problems.append(f"catalog_chaos: {in_flight} reads unaccounted")
        if not detail["faults_injected"]:
            problems.append("catalog_chaos: no fault was injected")
    return problems


def write_golden(result_path: str) -> None:
    with open(result_path) as handle:
        result = json.load(handle)
    if result["seed"] != 0 or result["profile"] != "full":
        raise SystemExit("goldens are taken from a seed-0 run of the full "
                         "profile")
    golden = {
        "seed": 0,
        "profile": "full",
        "workloads": {
            name: {"sha256": digest(record["values"]),
                   "values": _canonical(record["values"])}
            for name, record in result["workloads"].items()},
    }
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] != "--write-golden":
        raise SystemExit("usage: check.py --write-golden RESULT.json")
    write_golden(sys.argv[2])
