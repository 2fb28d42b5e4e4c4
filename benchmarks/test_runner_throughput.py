"""Serial vs warm-pool runner throughput on a reduced Figure-1 sweep.

Runs the same sweep three ways — serial (``jobs=1``), warm-pool parallel
(``jobs=workers`` with guided chunking) and replayed from a warm cache
— checks the results are bit-identical, and records the wall-clock
numbers, the executor's chunking (first chunk size, chunk count) and a
host stamp (CPU model, CPU count, Python, numpy) in
``BENCH_runner.json`` next to this module.

On a multi-core runner the parallel pass must clear the CI floor
(``parallel_speedup >= 1.5`` at >= 200 jobs and >= 2 workers).  On a
single-core runner the numbers are still recorded but the floor is
skipped with an explicit reason — there is nothing to win there, only
pool overhead to pay.
"""

import json
import os
import pathlib
import tempfile
import time

import pytest

from repro import obs
from repro.analysis.experiment import EvaluationSetting, run_figure1

from conftest import host_stamp, print_result

BENCH_OUT = pathlib.Path(__file__).parent / "BENCH_runner.json"

#: Reduced Figure-1 sweep: >= 200 jobs (the CI floor's precondition),
#: each doing real placement work, finishing in a couple of minutes.
SETTING = EvaluationSetting(n_nodes=60, n_runs=17, seed=0)
SWEEP = dict(datacenter_counts=(5, 10, 15), k=3, micro_clusters=4)
#: jobs per sweep: |datacenter_counts| x 4 strategies x n_runs.
TOTAL_JOBS = len(SWEEP["datacenter_counts"]) * 4 * SETTING.n_runs
#: The CI floor: parallel must beat serial by this factor when the
#: preconditions (>= 200 jobs, >= 2 workers on >= 2 CPUs) hold.
SPEEDUP_FLOOR = 1.5


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


@pytest.mark.bench
def test_runner_throughput(capsys):
    cpus = os.cpu_count() or 1
    workers = max(2, cpus)
    assert TOTAL_JOBS >= 200, "floor precondition: benchmark must be >= 200 jobs"

    # Pre-warm the in-process world memo so the serial baseline measures
    # placement compute, not one-off world construction.  (The parallel
    # pass still pays its real overhead: pool startup and shipping the
    # world to the workers.)
    from repro.runner import workers as runner_workers
    runner_workers.world_memo.get_or_build(SETTING)

    serial, serial_s = _timed(lambda: run_figure1(SETTING, **SWEEP))

    registry = obs.MetricsRegistry()
    with tempfile.TemporaryDirectory() as cache_dir:
        with obs.observe(registry, obs.NULL_TRACER):
            parallel, parallel_s = _timed(lambda: run_figure1(
                SETTING, **SWEEP, jobs=workers, cache_dir=cache_dir))
        assert parallel == serial, "parallel run is not bit-identical"

        resumed, resume_s = _timed(lambda: run_figure1(
            SETTING, **SWEEP, jobs=workers, cache_dir=cache_dir, resume=True))
        assert resumed == serial, "cache replay is not bit-identical"

    speedup = serial_s / parallel_s if parallel_s else float("inf")
    doc = {
        "benchmark": "runner_throughput",
        "sweep": {"figure": "figure1", "n_nodes": SETTING.n_nodes,
                  "n_runs": SETTING.n_runs, "jobs_total": TOTAL_JOBS,
                  **{k: list(v) if isinstance(v, tuple) else v
                     for k, v in SWEEP.items()}},
        "host": host_stamp(),
        "workers": workers,
        "serial_seconds": round(serial_s, 3),
        "parallel_seconds": round(parallel_s, 3),
        "cache_replay_seconds": round(resume_s, 3),
        "parallel_speedup": round(speedup, 3),
        "cache_replay_speedup": round(serial_s / resume_s, 3)
        if resume_s else None,
        "speedup_floor": SPEEDUP_FLOOR,
        "floor_enforced": cpus >= 2,
        "chunk_size": registry.gauge("runner.chunk_size").snapshot(),
        "chunks": registry.counter("runner.chunks").snapshot(),
    }
    BENCH_OUT.write_text(json.dumps(doc, indent=2) + "\n")

    print_result(capsys, json.dumps(doc, indent=2))

    # The cache replay never recomputes, so it must beat the serial run
    # whatever the hardware.
    assert resume_s < serial_s
    # The parallel-speedup floor only applies where parallelism exists.
    if cpus < 2:
        pytest.skip(
            f"parallel-speedup floor skipped: os.cpu_count()={cpus} < 2 — "
            f"no parallelism to win on this host (numbers still recorded "
            f"in {BENCH_OUT.name}: speedup {speedup:.2f}x)")
    assert speedup >= SPEEDUP_FLOOR, (
        f"expected >= {SPEEDUP_FLOOR}x parallel speedup with {workers} "
        f"workers on {cpus} cores at {TOTAL_JOBS} jobs, got {speedup:.2f}x")
