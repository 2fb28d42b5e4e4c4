"""The runner's determinism and crash-safety contracts.

Three guarantees the parallel runner makes (docs/runner.md):

1. **Scheduling independence** — every figure runner returns
   bit-identical results at ``jobs=1``, ``jobs=4`` and when replayed
   from a warm cache, because each cell's random streams are keyed by
   the cell's identity, never by execution order.
2. **Worker-crash tolerance** — a worker dying mid-sweep (simulated
   by a job that calls ``os._exit`` once, a stand-in for an OOM-kill)
   is retried transparently and the sweep still returns the exact
   serial results.
3. **Crash-safe resume** — SIGKILL-ing an entire sweep process leaves a
   readable cache of every finished job; rerunning with ``resume=True``
   recomputes only what is missing and returns the same result.
"""

import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass

import pytest

from repro import obs
from repro.analysis.experiment import (
    EvaluationSetting,
    run_figure1,
    run_figure2,
    run_figure3,
    run_table2,
)
from repro.runner import ResultCache, Table2Spec, execute

SETTING = EvaluationSetting(n_nodes=36, n_runs=3, seed=13)

FIGURES = [
    ("figure1", run_figure1,
     dict(datacenter_counts=(4, 6), k=2, micro_clusters=4)),
    ("figure2", run_figure2,
     dict(replica_counts=(1, 2), n_dc=6, micro_clusters=4)),
    ("figure3", run_figure3,
     dict(micro_cluster_counts=(2, 3), replica_counts=(1, 2), n_dc=6)),
]


def _deterministic_rows(rows):
    """Table II rows minus their wall-clock timings (never bit-stable)."""
    return [(r.n_accesses, r.k, r.m, r.online_bytes, r.offline_bytes,
             r.online_bytes_analytic, r.offline_bytes_analytic)
            for r in rows]


class TestBitIdenticalAcrossJobsLevels:
    @pytest.mark.parametrize("name,runner,kwargs", FIGURES,
                             ids=[f[0] for f in FIGURES])
    def test_serial_parallel_and_resume_agree(self, name, runner, kwargs,
                                              tmp_path):
        serial = runner(SETTING, **kwargs)
        parallel = runner(SETTING, **kwargs, jobs=4,
                          cache_dir=str(tmp_path))
        assert parallel == serial

        # Replay entirely from the cache the parallel run populated.
        with obs.observe() as (registry, _):
            resumed = runner(SETTING, **kwargs, jobs=4,
                             cache_dir=str(tmp_path), resume=True)
        assert resumed == serial
        assert registry.counter("runner.jobs_completed").value == 0
        assert registry.counter("runner.cache_hits").value == \
            registry.counter("runner.jobs").value > 0

    def test_table2_serial_vs_parallel(self):
        kwargs = dict(n_accesses_list=(200, 400), k=2, m=5, seed=9)
        assert _deterministic_rows(run_table2(**kwargs, jobs=2)) == \
            _deterministic_rows(run_table2(**kwargs))


@dataclass(frozen=True)
class _CrashOnceSpec:
    """``inner``, except that the first run anywhere kills its worker
    with ``os._exit`` — a deterministic stand-in for an OOM-kill.
    Creating ``sentinel`` exclusively makes the crash happen exactly
    once, so the retry path runs end to end.  Pool workers only: in the
    calling process it would end the test run.
    """

    inner: Table2Spec
    sentinel: str

    kind = "crash-once"
    setting = None

    @property
    def result_type(self) -> type:
        return self.inner.result_type

    def payload(self):
        return {"kind": self.kind, "inner": self.inner.payload(),
                "sentinel": self.sentinel}

    def execute(self, world=None):
        try:
            with open(self.sentinel, "x") as handle:
                handle.write("crashed\n")
        except FileExistsError:
            return self.inner.execute(world)
        os._exit(17)


class TestWorkerCrashRetry:
    def test_crashed_worker_is_retried_and_results_unchanged(
            self, tmp_path):
        specs = [Table2Spec(n_accesses=100 + 50 * i, k=2, m=4, seed=3)
                 for i in range(4)]
        reference = execute(specs, jobs=1)

        sentinel = tmp_path / "crash-once"
        crashing = [_CrashOnceSpec(spec, str(sentinel)) for spec in specs]
        with obs.observe() as (registry, _):
            survived = execute(crashing, jobs=2, retries=2)

        assert sentinel.exists(), "the crash hook never fired"
        assert _deterministic_rows(survived) == _deterministic_rows(reference)
        assert registry.counter("runner.worker_crashes").value >= 1
        assert registry.counter("runner.retries").value >= 1

    def test_retry_budget_exhaustion_raises(self, tmp_path):
        from repro.runner import WorkerCrashError

        # retries=0: the first (guaranteed) crash must surface as
        # WorkerCrashError instead of being retried.
        specs = [_CrashOnceSpec(Table2Spec(n_accesses=100, k=2, m=4, seed=3),
                                str(tmp_path / "crash-once"))]
        with pytest.raises(WorkerCrashError):
            execute(specs, jobs=2, retries=0)


_SWEEP_SCRIPT = """
import sys
from repro.analysis.experiment import EvaluationSetting, run_figure2
setting = EvaluationSetting(n_nodes=36, n_runs=3, seed=13)
run_figure2(setting, replica_counts=(1, 2), n_dc=6, micro_clusters=4,
            jobs=1, cache_dir=sys.argv[1])
"""


class TestKilledSweepResumes:
    def test_sigkill_mid_sweep_then_resume_from_cache(self, tmp_path):
        kwargs = dict(replica_counts=(1, 2), n_dc=6, micro_clusters=4)
        reference = run_figure2(SETTING, **kwargs)

        cache_dir = str(tmp_path / "cache")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "..", "src")]
            + env.get("PYTHONPATH", "").split(os.pathsep))
        proc = subprocess.Popen(
            [sys.executable, "-c", _SWEEP_SCRIPT, cache_dir], env=env)
        try:
            # Kill the sweep as soon as some — but not necessarily all —
            # jobs have been persisted.
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                if proc.poll() is not None:
                    break
                if (os.path.isdir(cache_dir)
                        and len(ResultCache(cache_dir)) >= 2):
                    proc.send_signal(signal.SIGKILL)
                    break
                time.sleep(0.05)
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

        finished_before_resume = len(ResultCache(cache_dir))
        assert finished_before_resume >= 2, "sweep was killed too early"

        with obs.observe() as (registry, _):
            resumed = run_figure2(SETTING, **kwargs, cache_dir=cache_dir,
                                  resume=True)
        assert resumed == reference
        hits = registry.counter("runner.cache_hits").value
        completed = registry.counter("runner.jobs_completed").value
        total = registry.counter("runner.jobs").value
        # Every job that survived the kill came from the cache; only the
        # rest were recomputed.
        assert hits == finished_before_resume
        assert completed == total - hits


class TestChaosGoldenDeterminism:
    """The `repro chaos` summary is a golden artifact: byte-identical
    JSON at any worker count, and again when resumed from a warm cache.
    """

    @pytest.fixture(scope="class")
    def smoke(self):
        import dataclasses

        from repro.chaos import load_scenario

        path = os.path.join(os.path.dirname(__file__), "..", "..",
                            "examples", "chaos", "smoke.toml")
        # One run keeps the golden check fast; the runner still farms
        # two cells (faulty + baseline) through the pool.
        return dataclasses.replace(load_scenario(path), runs=1)

    def test_summary_json_byte_identical_across_jobs(self, smoke):
        from repro.chaos import chaos_summary_json, run_chaos

        serial = chaos_summary_json(run_chaos(smoke, jobs=1))
        parallel = chaos_summary_json(run_chaos(smoke, jobs=4))
        assert parallel == serial

    def test_summary_json_survives_cache_resume(self, smoke, tmp_path):
        from repro.chaos import chaos_summary_json, run_chaos

        cache_dir = str(tmp_path / "chaos-cache")
        first = chaos_summary_json(
            run_chaos(smoke, jobs=2, cache_dir=cache_dir))
        with obs.observe() as (registry, _):
            resumed = chaos_summary_json(
                run_chaos(smoke, jobs=2, cache_dir=cache_dir, resume=True))
        assert resumed == first
        # Every cell was replayed from the cache, none recomputed.
        assert registry.counter("runner.cache_hits").value == 2
        assert registry.counter("runner.jobs_completed").value == 0


class TestGoldenAcrossWorkersAndChunks:
    """Bit-identical spec-ordered results at every (workers, spec count)
    point of the matrix — the warm pool's core contract: chunking and
    scheduling are pure execution detail, invisible in the results.  The
    spec count sets the guided chunk sizes (8 cells on 4 workers are all
    singletons; 56 on 2 start at 14).
    """

    KWARGS = dict(datacenter_counts=(4, 6), k=2, micro_clusters=4)

    @pytest.fixture(scope="class")
    def goldens(self):
        return {}

    @pytest.mark.parametrize("jobs", [1, 2, 4])
    @pytest.mark.parametrize("n_runs", [1, 3, 7],
                             ids=["8specs", "24specs", "56specs"])
    def test_matrix_point_matches_golden(self, goldens, jobs, n_runs):
        setting = EvaluationSetting(n_nodes=36, n_runs=n_runs, seed=13)
        if n_runs not in goldens:
            goldens[n_runs] = run_figure1(setting, **self.KWARGS)
        assert run_figure1(setting, **self.KWARGS, jobs=jobs) == \
            goldens[n_runs]


class TestSpawnedWorld:
    """Under ``spawn`` the world reaches each worker pickled as a process
    argument — the path ``fork`` (the Linux default) never takes."""

    @pytest.fixture
    def spawned(self, monkeypatch):
        from repro.runner import pool
        get_context = pool.multiprocessing.get_context
        requested = []

        def spawn_context(method=None):
            requested.append(method)
            return get_context("spawn")

        monkeypatch.setattr(pool.multiprocessing, "get_context",
                            spawn_context)
        return requested

    def test_explicit_world_gives_identical_results(self, spawned):
        from repro.analysis.experiment import run_comparison
        from repro.placement.online import OnlineClusteringPlacement
        from repro.placement.random_placement import RandomPlacement

        matrix, coords, heights = SETTING.build()
        strategies = [RandomPlacement(), OnlineClusteringPlacement(
            micro_clusters=4)]
        kwargs = dict(n_dc=6, k=2, n_runs=3, seed=13, heights=heights)

        serial = run_comparison(matrix, coords, strategies, **kwargs)
        assert spawned == []
        parallel = run_comparison(matrix, coords, strategies, **kwargs,
                                  jobs=2)
        assert spawned == [None]
        assert parallel == serial

    def test_setting_world_gives_identical_results(self, spawned):
        kwargs = dict(datacenter_counts=(4,), k=2, micro_clusters=4)
        serial = run_figure1(SETTING, **kwargs)
        assert run_figure1(SETTING, **kwargs, jobs=2) == serial
        assert spawned == [None]


class TestKeyboardInterruptDrain:
    def test_interrupt_drains_in_flight_results_into_cache(
            self, tmp_path, monkeypatch):
        from repro.runner import pool

        specs = [Table2Spec(n_accesses=100 + 50 * i, k=2, m=4, seed=3)
                 for i in range(6)]
        reference = execute(specs, jobs=1)
        cache_dir = str(tmp_path / "cache")

        record_chunk = pool._record_chunk
        recorded = 0

        def interrupt_after_two_chunks(*args, **kwargs):
            # Ctrl-C once, right after the second chunk is recorded; the
            # drain's own recordings pass through.
            nonlocal recorded
            record_chunk(*args, **kwargs)
            recorded += 1
            if recorded == 2:
                raise KeyboardInterrupt

        monkeypatch.setattr(pool, "_record_chunk", interrupt_after_two_chunks)
        with pytest.raises(KeyboardInterrupt):
            execute(specs, jobs=2, cache_dir=cache_dir)
        monkeypatch.setattr(pool, "_record_chunk", record_chunk)

        # Every chunk completed before or drained after the interrupt is
        # already durable — Ctrl-C plus resume loses nothing.
        salvaged = len(ResultCache(cache_dir))
        assert salvaged >= 2

        with obs.observe() as (registry, _):
            resumed = execute(specs, jobs=2, cache_dir=cache_dir,
                              resume=True)
        assert _deterministic_rows(resumed) == _deterministic_rows(reference)
        assert registry.counter("runner.cache_hits").value == salvaged
        assert registry.counter("runner.jobs_completed").value == \
            len(specs) - salvaged


class _SleepOnceSpec:
    """First spec to run creates the sentinel and wedges; every other
    execution (including the post-watchdog retry) returns immediately.
    ``open(..., "x")`` makes creation exclusive, so exactly one job
    sleeps however the pool schedules the chunks.
    """

    kind = "sleep-once"
    setting = None

    def __init__(self, sentinel: str, n: int):
        self.sentinel = sentinel
        self.n = n

    def payload(self):
        return {"kind": self.kind, "sentinel": self.sentinel, "n": self.n}

    def execute(self, world=None):
        try:
            with open(self.sentinel, "x") as handle:
                handle.write("wedged\n")
        except FileExistsError:
            return float(self.n)
        time.sleep(8.0)
        return float(self.n)


class _AlwaysSleepsSpec(_SleepOnceSpec):
    """A job that wedges on every attempt — exhausts the stall budget."""

    def execute(self, world=None):
        time.sleep(8.0)
        return float(self.n)


class TestStallWatchdogAccounting:
    def test_stalled_worker_killed_retried_and_counted(self, tmp_path):
        sentinel = str(tmp_path / "wedge-once")
        specs = [_SleepOnceSpec(sentinel, n) for n in range(3)]

        with obs.observe() as (registry, _):
            results = execute(specs, jobs=2, timeout=0.75,
                              retries=2)

        assert results == [0.0, 1.0, 2.0]
        assert os.path.exists(sentinel), "the wedge hook never fired"
        # One stall event, one retry, no crash miscounted as a stall (or
        # vice versa): the watchdog and the crash path share the retry
        # budget but keep separate counters.
        assert registry.counter("runner.stalls").value == 1
        assert registry.counter("runner.retries").value == 1
        assert registry.counter("runner.worker_crashes").value == 0
        assert registry.counter("runner.jobs_completed").value == 3

    def test_stall_budget_exhaustion_raises(self, tmp_path):
        from repro.runner import StallTimeoutError

        specs = [_AlwaysSleepsSpec(str(tmp_path / "unused"), 0)]
        with pytest.raises(StallTimeoutError):
            execute(specs, jobs=2, timeout=0.4, retries=1)
