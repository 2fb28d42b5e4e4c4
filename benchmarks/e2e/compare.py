"""Compare two result files of the benchmark, metric by metric.

    python3 benchmarks/e2e/compare.py A.json B.json

``A`` is the baseline (the parent commit, or the first of two sets of
runs of one commit), ``B`` the candidate; both are ``result.json`` files
written by ``run.py``.  One row is printed per (workload, metric) with
both medians, the spread and a verdict:

``ok``          B is no worse than A by more than the metric's bound
``regressed``   B is worse than A by more than the bound, or a value that
                must repeat exactly (``sim_*``, ``ops``, ``fail_ratio``,
                the per-layer counts in ``trace.EXACT_COUNTS``) differs
``unresolved``  the passes of one side spread wider than the bound, and
                the two sides' samples overlap: the data cannot tell

Bounds come from ``BENCHMARK.json``.  ``wall_s`` and ``cpu_s`` carry one
sample per timed pass, so their spread is the interquartile range of the
passes over their median; ``setup_s`` and ``peak_rss_mb`` are one sample
per run and have no spread.  Exit code 1 on any ``regressed``,
2 on any ``unresolved`` (and no regression), else 0.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from trace import EXACT_COUNTS  # noqa: E402  (this directory's trace.py)

#: Simulated outputs of the untraced record: a fixed property of commit,
#: workload and seed.
EXACT_FIELDS = ("ops", "fail_ratio", "sim_delay_mean_ms", "sim_delay_tail_ms")


def _spread(samples: list[float]) -> float:
    """Interquartile range over the median of one run's passes.

    A run may have as few as three passes, where the default (exclusive)
    quartile method extrapolates beyond the data; inclusive does not.
    """
    if len(samples) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return (q3 - q1) / statistics.median(samples)


def _timed_verdict(a: float, b: float, samples_a, samples_b, bound: float,
                   lower_is_better: bool) -> tuple[str, float]:
    spread = max(_spread(samples_a), _spread(samples_b))
    worse = (b - a) / a if lower_is_better else (a - b) / a
    if spread > bound:
        separated = (samples_a and samples_b and
                     (max(samples_b) < min(samples_a) if lower_is_better
                      else min(samples_b) > max(samples_a)))
        if not separated:
            return "unresolved", spread
    return ("regressed" if worse > bound else "ok"), spread


def compare(a: dict, b: dict, spec: dict) -> list[tuple]:
    """Rows ``(workload, metric, a, b, spread, verdict)``."""
    rows = []
    for name in a["workloads"]:
        if name not in b["workloads"]:
            rows.append((name, "-", None, None, 0.0, "regressed"))
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric in spec["end_to_end"]:
            key = metric["name"]
            va, vb = wa["end_to_end"][key]["value"], wb["end_to_end"][key]["value"]
            verdict, spread = _timed_verdict(
                va, vb, wa["samples"].get(key, []), wb["samples"].get(key, []),
                metric["bound"], metric["better"] == "lower")
            rows.append((name, key, va, vb, spread, verdict))
        for key in EXACT_FIELDS:
            rows.append((name, key, wa[key], wb[key], 0.0,
                         "ok" if wa[key] == wb[key] else "regressed"))
        la, lb = wa["per_layer"], wb["per_layer"]
        for key in sorted(EXACT_COUNTS):
            va, vb = la[key]["value"], lb[key]["value"]
            if va != vb:        # equal counts are not worth a row each
                rows.append((name, key, va, vb, 0.0, "regressed"))
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 64
    with open(argv[0]) as handle:
        a = json.load(handle)
    with open(argv[1]) as handle:
        b = json.load(handle)
    with open(os.path.join(HERE, os.pardir, os.pardir,
                           "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    for field in ("seed", "profile"):
        if a[field] != b[field]:
            print(f"cannot compare: {field} differs "
                  f"({a[field]!r} vs {b[field]!r})", file=sys.stderr)
            return 64
    rows = compare(a, b, spec)
    print(f"{'workload':<20}{'metric':<32}{'A':>14}{'B':>14}"
          f"{'spread':>9}  verdict")
    for workload, metric, va, vb, spread, verdict in rows:
        va, vb = ("-" if v is None else f"{v:.6g}" for v in (va, vb))
        print(f"{workload:<20}{metric:<32}{va:>14}{vb:>14}"
              f"{spread:>8.1%}  {verdict}")
    verdicts = {row[-1] for row in rows}
    noisy = [name for side in (a, b) for name, w in side["workloads"].items()
             if w["noisy"]]
    if noisy:
        print(f"note: runs flagged noisy (host busy at start): "
              f"{', '.join(sorted(set(noisy)))}")
    if "regressed" in verdicts:
        return 1
    return 2 if "unresolved" in verdicts else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
