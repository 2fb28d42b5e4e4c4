"""Unit tests for repro.runner: jobs, cache, executor, sweep specs."""

import ast
import copy
import dataclasses
import inspect
import json
import os
import pathlib

import numpy as np
import pytest

import repro.runner
import repro.runner.cache
from repro import obs
from repro.analysis.experiment import EvaluationSetting, Table2Row
from repro.catalog import CatalogRunSpec
from repro.chaos import ChaosRunSpec, load_scenario
from repro.placement.offline_kmeans import OfflineKMeansPlacement
from repro.placement.online import OnlineClusteringPlacement
from repro.placement.random_placement import RandomPlacement
from repro.runner import (
    MISS,
    STRATEGY_KINDS,
    PlacementRunSpec,
    ResultCache,
    SweepSpec,
    Table2Spec,
    as_job_strategy,
    build_strategy,
    cache_key,
    execute,
    load_sweep_spec,
    seed_sequence,
    strategy_spec,
)


def _smoke_scenario():
    """The bundled chaos smoke scenario, cut to a 5 s horizon."""
    path = (pathlib.Path(__file__).parents[2] / "examples" / "chaos"
            / "smoke.toml")
    scenario = load_scenario(str(path))
    crash = dataclasses.replace(scenario.faults[0], at=1_000.0,
                                until=2_500.0)
    return dataclasses.replace(scenario, duration_ms=4_000.0,
                               settle_ms=1_000.0, faults=(crash,))


#: One tiny cell of every spec kind the repo runs through ``execute``.
SPEC_KINDS = {
    "placement": lambda: PlacementRunSpec(
        sweep="s", series="online clustering", x=2.0, run_index=0, n_dc=5,
        k=2, strategy=strategy_spec("online", micro_clusters=4), seed=3,
        setting=EvaluationSetting(n_nodes=30, n_runs=1, seed=3)),
    "table2": lambda: Table2Spec(n_accesses=60, k=2, m=3, seed=5),
    "chaos": lambda: ChaosRunSpec(_smoke_scenario(), run_index=0,
                                  faulty=True),
    "catalog": lambda: CatalogRunSpec(n_keys=20, n_shards=2, n_nodes=30,
                                      n_dc=6, duration_ms=2_000.0),
}


def _changed(value):
    """A different, still JSON-able value for one spec field."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, str):
        return value + "'"
    if dataclasses.is_dataclass(value):     # a setting or a scenario
        return dataclasses.replace(value, seed=value.seed + 1)
    if isinstance(value, tuple):            # a declarative strategy
        return strategy_spec("random")
    assert value is None, value
    return 1


class _Unpicklable(Exception):
    """Pickles, but cannot be rebuilt from its args on the other side."""

    def __init__(self, cell, why):
        super().__init__(f"cell {cell}: {why}")


class _RaisesOnCell:
    """Toy spec returning its cell number; raises on cell ``bad``."""

    setting = None
    result_type = float

    def __init__(self, n, bad, error=ValueError):
        self.n, self.bad, self.error = n, bad, error

    def payload(self):
        return {"kind": "raises-on-cell", "n": self.n, "bad": self.bad}

    def execute(self, world=None):
        if self.n == self.bad:
            if self.error is _Unpicklable:
                raise _Unpicklable(self.n, "bad")
            raise self.error(f"bad cell {self.n}")
        return float(self.n)


class TestSeedSequence:
    def test_matches_default_rng_tuple_seeding(self):
        # The legacy loops seed with np.random.default_rng((seed, run));
        # seed_sequence must build the identical stream.
        for seed, run in [(0, 0), (7, 3), (123, 29)]:
            a = np.random.default_rng(seed_sequence(seed, run))
            b = np.random.default_rng((seed, run))
            assert (a.integers(0, 1 << 30, 8) == b.integers(0, 1 << 30, 8)).all()

    def test_distinct_keys_give_distinct_streams(self):
        draws = {
            key: np.random.default_rng(seed_sequence(*key)).integers(0, 1 << 30)
            for key in [(0, 0), (0, 1), (1, 0), (0, 0, 5)]
        }
        assert len(set(draws.values())) == len(draws)

    def test_accepts_numpy_integers(self):
        a = seed_sequence(np.int64(5), np.int32(2))
        b = seed_sequence(5, 2)
        assert a.entropy == b.entropy


class TestStrategySpecs:
    def test_spec_is_canonical(self):
        assert strategy_spec("online", micro_clusters=4) == \
            ("online", (("micro_clusters", 4),))
        # Param order never matters.
        assert strategy_spec("online", migration_rounds=2, micro_clusters=4) \
            == strategy_spec("online", micro_clusters=4, migration_rounds=2)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown strategy kind"):
            strategy_spec("quantum")

    def test_roundtrip_through_declarative_form(self):
        original = OnlineClusteringPlacement(micro_clusters=7,
                                             migration_rounds=3)
        spec = as_job_strategy(original)
        assert spec[0] == "online"
        rebuilt = build_strategy(spec)
        assert isinstance(rebuilt, OnlineClusteringPlacement)
        assert rebuilt.micro_clusters == 7
        assert rebuilt.migration_rounds == 3

    #: One non-default value per constructor argument of every kind.
    NON_DEFAULT = {
        "random": {},
        "offline_kmeans": {"n_init": 2},
        "online": {"micro_clusters": 7, "migration_rounds": 3,
                   "accesses_per_client": 5, "radius_floor": 2.5,
                   "selection": "true", "summary_loss": 0.25},
        "optimal": {"max_combinations": 1234},
    }

    @pytest.mark.parametrize("kind", sorted(STRATEGY_KINDS))
    def test_declarative_form_captures_every_ctor_argument(self, kind):
        # A constructor argument missing from the captured table is
        # silently reset to its default by every runner-backed
        # experiment (it happened to the late ``backend=``).
        from repro.runner.jobs import _STRATEGY_PARAMS
        cls = STRATEGY_KINDS[kind]
        signature = inspect.signature(cls).parameters
        ctor = tuple(signature)
        assert _STRATEGY_PARAMS[kind] == ctor

        kwargs = self.NON_DEFAULT[kind]
        assert tuple(kwargs) == ctor
        for name, value in kwargs.items():
            assert value != signature[name].default, name
        original = cls(**kwargs)
        rebuilt = build_strategy(as_job_strategy(original))
        assert type(rebuilt) is cls
        assert vars(rebuilt) == vars(original)

    def test_all_default_strategies_convert(self):
        from repro.analysis.experiment import default_strategies
        for strategy in default_strategies(micro_clusters=5):
            spec = as_job_strategy(strategy)
            assert isinstance(spec, tuple), strategy
            assert type(build_strategy(spec)) is type(strategy)

    def test_unknown_strategy_passes_through(self):
        class Custom(RandomPlacement):
            name = "custom"

        custom = Custom()
        assert as_job_strategy(custom) is custom
        assert build_strategy(custom) is custom

    def test_subclass_not_mistaken_for_registered_kind(self):
        class Tweaked(OfflineKMeansPlacement):
            name = "tweaked"

        assert as_job_strategy(Tweaked()) is not None
        assert not isinstance(as_job_strategy(Tweaked()), tuple)


class TestCacheKey:
    def test_stable_across_processes_and_param_order(self):
        spec = Table2Spec(n_accesses=100, k=3, m=10)
        assert cache_key(spec) == cache_key(Table2Spec(n_accesses=100, k=3,
                                                       m=10))

    def test_sensitive_to_every_config_field(self):
        base = Table2Spec(n_accesses=100, k=3, m=10, dim=3, seed=0)
        variants = [
            Table2Spec(n_accesses=101, k=3, m=10, dim=3, seed=0),
            Table2Spec(n_accesses=100, k=4, m=10, dim=3, seed=0),
            Table2Spec(n_accesses=100, k=3, m=11, dim=3, seed=0),
            Table2Spec(n_accesses=100, k=3, m=10, dim=2, seed=0),
            Table2Spec(n_accesses=100, k=3, m=10, dim=3, seed=1),
        ]
        keys = {cache_key(s) for s in [base] + variants}
        assert len(keys) == len(variants) + 1

    def test_sensitive_to_code_salt(self):
        spec = Table2Spec(n_accesses=100, k=3, m=10)
        assert cache_key(spec, salt="v1") != cache_key(spec, salt="v2")

    def test_placement_spec_key_covers_strategy_and_world(self):
        def spec(**overrides):
            payload = dict(sweep="s", series="online clustering", x=1.0,
                           run_index=0, n_dc=5, k=2,
                           strategy=strategy_spec("online", micro_clusters=4),
                           seed=0, world_key="abc")
            payload.update(overrides)
            return PlacementRunSpec(**payload)

        base = cache_key(spec())
        assert cache_key(spec(strategy=strategy_spec(
            "online", micro_clusters=5))) != base
        assert cache_key(spec(world_key="def")) != base
        assert cache_key(spec(run_index=1)) != base
        assert cache_key(spec(candidate_mode="uniform")) != base

    @pytest.mark.parametrize("kind", sorted(SPEC_KINDS))
    def test_every_field_of_every_spec_kind_is_in_the_key(self, kind):
        # A hand-listed payload() silently drops a field added later.
        spec = SPEC_KINDS[kind]()
        keys = {cache_key(spec)}
        for field in dataclasses.fields(spec):
            variant = copy.copy(spec)
            object.__setattr__(variant, field.name,
                               _changed(getattr(spec, field.name)))
            keys.add(cache_key(variant))
        assert len(keys) == len(dataclasses.fields(spec)) + 1


    @pytest.mark.parametrize("kind", ["chaos", "catalog"])
    def test_entries_keyed_with_the_retired_engine_field_never_decode(
            self, kind, tmp_path):
        # Caches written while cells carried a data-plane ``engine`` hold
        # it in the payload; the field is gone, so such an entry can
        # never be addressed again — a resumed sweep recomputes.
        spec = SPEC_KINDS[kind]()

        class AsKeyedBefore:
            result_type = spec.result_type

            def payload(self):
                payload = spec.payload()
                if kind == "chaos":
                    payload["scenario"] = {**payload["scenario"],
                                           "engine": "batched"}
                else:
                    payload["engine"] = "batched"
                return payload

        cache = ResultCache(str(tmp_path))
        cache.put(AsKeyedBefore(), {"stale": True})
        assert cache.get(spec) is MISS
        with obs.observe() as (registry, _):
            [result] = execute([spec], jobs=1, cache_dir=str(tmp_path),
                               resume=True)
        assert registry.counter("runner.cache_hits").value == 0
        assert registry.counter("runner.jobs_completed").value == 1
        assert type(result) is spec.result_type


class TestResultCache:
    def test_roundtrip_float_and_table2_row(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        spec = Table2Spec(n_accesses=10, k=2, m=3)
        assert cache.get(spec) is MISS
        cache.put(spec, 12.5)
        assert cache.get(spec) == 12.5

        row = Table2Row(n_accesses=10, k=2, m=4, online_bytes=100,
                        offline_bytes=200, online_seconds=0.1,
                        offline_seconds=0.2, online_ingest_seconds=0.05,
                        online_bytes_analytic=90,
                        offline_bytes_analytic=210)
        row_spec = Table2Spec(n_accesses=10, k=2, m=4)
        cache.put(row_spec, row)
        assert cache.get(row_spec) == row
        assert len(cache) == 2

    def test_corrupt_entry_degrades_to_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        spec = Table2Spec(n_accesses=10, k=2, m=3)
        key = cache.put(spec, 1.5)
        path = os.path.join(str(tmp_path), key[:2], key + ".json")

        with open(path, "w") as handle:
            handle.write("{ torn json")
        assert cache.get(spec) is MISS

        with open(path, "w") as handle:
            json.dump({"schema": "other/v9", "result": 1.5}, handle)
        assert cache.get(spec) is MISS

    def test_no_temp_file_left_behind(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put(Table2Spec(n_accesses=10, k=2, m=3), 1.5)
        leftovers = [f for _r, _d, files in os.walk(str(tmp_path))
                     for f in files if f.endswith(".tmp")]
        assert leftovers == []

    def test_uncacheable_result_type_rejected(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        with pytest.raises(TypeError, match="cannot cache"):
            cache.put(Table2Spec(n_accesses=10, k=2, m=3), object())

    def test_cache_module_imports_no_result_class(self):
        # Results decode through spec.result_type; the cache must not
        # reach up into the layers that define them (at any nesting
        # depth — the old codec imported inside a function).
        tree = ast.parse(pathlib.Path(repro.runner.cache.__file__).read_text())
        imported = [alias.name if isinstance(node, ast.Import)
                    else node.module or ""
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    for alias in node.names]
        assert imported
        assert [name for name in imported
                if name.startswith(("repro.analysis", "repro.chaos"))] == []


class TestExecute:
    def _specs(self, n=4):
        return [Table2Spec(n_accesses=50 + 10 * i, k=2, m=3, seed=5)
                for i in range(n)]

    def test_serial_returns_results_in_spec_order(self):
        specs = self._specs()
        rows = execute(specs, jobs=1)
        assert [r.n_accesses for r in rows] == [s.n_accesses for s in specs]

    def test_validation(self):
        with pytest.raises(ValueError, match="requires a cache_dir"):
            execute([], resume=True)
        with pytest.raises(ValueError, match="jobs must be"):
            execute([], jobs=0)
        with pytest.raises(ValueError, match="retries"):
            execute([], retries=-1)

    def test_cache_written_even_without_resume(self, tmp_path):
        specs = self._specs(2)
        execute(specs, jobs=1, cache_dir=str(tmp_path))
        assert len(ResultCache(str(tmp_path))) == 2

    def test_resume_skips_cached_jobs(self, tmp_path):
        specs = self._specs(3)
        first = execute(specs, jobs=1, cache_dir=str(tmp_path))
        with obs.observe() as (registry, _):
            second = execute(specs, jobs=1, cache_dir=str(tmp_path),
                             resume=True)
        assert second == first
        assert registry.counter("runner.cache_hits").value == 3
        assert registry.counter("runner.jobs_completed").value == 0

    def test_partial_resume_runs_only_misses(self, tmp_path):
        specs = self._specs(4)
        execute(specs[:2], jobs=1, cache_dir=str(tmp_path))
        with obs.observe() as (registry, _):
            execute(specs, jobs=1, cache_dir=str(tmp_path), resume=True)
        assert registry.counter("runner.cache_hits").value == 2
        assert registry.counter("runner.cache_misses").value == 2
        assert registry.counter("runner.jobs_completed").value == 2

    @pytest.mark.parametrize("kind", sorted(SPEC_KINDS))
    def test_every_spec_kind_caches_and_resumes(self, kind, tmp_path):
        spec = SPEC_KINDS[kind]()
        [computed] = execute([spec], cache_dir=str(tmp_path))
        with obs.observe() as (registry, _):
            [resumed] = execute([spec], cache_dir=str(tmp_path), resume=True)
        assert resumed == computed
        assert type(resumed) is spec.result_type
        assert registry.counter("runner.cache_hits").value \
            == registry.counter("runner.jobs").value == 1

    def test_runner_options_are_declared_in_execute_only(
            self, package_callables):
        options = {"jobs", "cache_dir", "resume"}
        assert options <= set(inspect.signature(execute).parameters)
        offenders = [
            where for where, obj, parameters in package_callables
            if options & set(parameters) and obj is not execute
            and not (where.startswith("repro.runner.pool.")
                     and where.split(".")[3].startswith("_"))]
        assert offenders == []

    def test_nothing_in_the_package_takes_a_chunk_size_argument(
            self, package_callables):
        # Chunk sizes follow one fixed guided rule; the knob is gone.
        assert [where for where, _obj, parameters in package_callables
                if "chunk_size" in parameters] == []

    def test_metrics_instrumented(self):
        specs = self._specs(3)
        with obs.observe() as (registry, _):
            execute(specs, jobs=1)
        assert registry.counter("runner.jobs").value == 3
        assert registry.counter("runner.jobs_completed").value == 3
        assert registry.timer("runner.sweep").calls == 1
        assert registry.timer("runner.job").calls == 3


class TestSweepSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep kind"):
            SweepSpec(kind="figure9", setting=EvaluationSetting(), params={})

    def test_unknown_param_rejected(self):
        with pytest.raises(ValueError, match="does not accept"):
            SweepSpec(kind="figure1", setting=EvaluationSetting(),
                      params={"bogus": 1})

    def test_sweep_file_cannot_set_runner_options(self, tmp_path):
        path = tmp_path / "sweep.toml"
        path.write_text('kind = "figure2"\n[params]\njobs = 4\n')
        with pytest.raises(ValueError, match=r"does not accept \['jobs'\]"):
            load_sweep_spec(str(path))

    def test_misspelt_runner_option_is_a_type_error(self):
        from repro.analysis.experiment import run_figure2
        setting = EvaluationSetting(n_nodes=30, n_runs=1, seed=4)
        with pytest.raises(TypeError, match="'job'"):
            run_figure2(setting, (1,), n_dc=6, job=2)

    def test_load_toml_and_json_agree(self, tmp_path):
        toml_path = tmp_path / "sweep.toml"
        toml_path.write_text(
            'kind = "figure2"\n'
            "[setting]\nn_nodes = 40\nn_runs = 2\nseed = 3\n"
            "[params]\nreplica_counts = [1, 2]\nn_dc = 6\n")
        json_path = tmp_path / "sweep.json"
        json_path.write_text(json.dumps({
            "kind": "figure2",
            "setting": {"n_nodes": 40, "n_runs": 2, "seed": 3},
            "params": {"replica_counts": [1, 2], "n_dc": 6},
        }))
        assert load_sweep_spec(str(toml_path)) == load_sweep_spec(
            str(json_path))

    def test_load_rejects_unknown_setting_field(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"kind": "figure1",
                                    "setting": {"n_planets": 9}}))
        with pytest.raises(ValueError, match="unknown setting fields"):
            load_sweep_spec(str(path))

    def test_load_rejects_unsupported_extension(self, tmp_path):
        path = tmp_path / "sweep.yaml"
        path.write_text("kind: figure1\n")
        with pytest.raises(ValueError, match="unsupported sweep spec"):
            load_sweep_spec(str(path))

    def test_run_sweep_tiny_figure(self, tmp_path):
        from repro.analysis.experiment import run_figure2
        from repro.runner import run_sweep

        setting = EvaluationSetting(n_nodes=30, n_runs=2, seed=4)
        spec = SweepSpec(kind="figure2", setting=setting,
                         params={"replica_counts": (1, 2), "n_dc": 6,
                                 "micro_clusters": 4})
        result = run_sweep(spec)
        direct = run_figure2(setting, replica_counts=(1, 2), n_dc=6,
                             micro_clusters=4)
        assert result.series == direct.series


class TestPutMany:
    def _specs(self, n):
        return [Table2Spec(n_accesses=50 + 10 * i, k=2, m=3, seed=5)
                for i in range(n)]

    def test_batch_roundtrip(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        specs = self._specs(5)
        keys = cache.put_many((s, float(i)) for i, s in enumerate(specs))
        assert keys == [cache_key(s) for s in specs]
        assert [cache.get(s) for s in specs] == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert len(cache) == 5

    def test_empty_batch_is_a_noop(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        assert cache.put_many([]) == []
        assert len(cache) == 0

    def test_no_temp_files_left_behind(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put_many([(s, 1.0) for s in self._specs(4)])
        leftovers = [f for _r, _d, files in os.walk(str(tmp_path))
                     for f in files if f.endswith(".tmp")]
        assert leftovers == []

    def test_matches_put_entries_byte_for_byte(self, tmp_path):
        spec = Table2Spec(n_accesses=70, k=2, m=3, seed=5)
        a = ResultCache(str(tmp_path / "a"))
        b = ResultCache(str(tmp_path / "b"))
        key = a.put(spec, 2.5)
        assert b.put_many([(spec, 2.5)]) == [key]
        path = os.path.join(key[:2], key + ".json")
        with open(os.path.join(a.directory, path), "rb") as fa, \
                open(os.path.join(b.directory, path), "rb") as fb:
            assert fa.read() == fb.read()


class TestWorldMemo:
    class _FakeSetting:
        """Hashable stand-in for EvaluationSetting with a cheap build()."""

        def __init__(self, tag):
            self.tag = tag
            self.builds = 0

        def __hash__(self):
            return hash(self.tag)

        def __eq__(self, other):
            return isinstance(other, type(self)) and self.tag == other.tag

        def build(self):
            self.builds += 1
            return ("world", self.tag)

    def test_memoizes_repeat_lookups(self):
        from repro.runner.workers import WorldMemo
        memo = WorldMemo(cap=4)
        setting = self._FakeSetting("a")
        assert memo.get_or_build(setting) == ("world", "a")
        assert memo.get_or_build(setting) == ("world", "a")
        assert setting.builds == 1

    def test_eviction_is_bounded_and_lru_ordered(self):
        from repro.runner.workers import WorldMemo
        memo = WorldMemo(cap=3)
        settings = [self._FakeSetting(i) for i in range(5)]
        for setting in settings:              # 5 distinct > cap 3
            memo.get_or_build(setting)
        assert len(memo) == 3
        assert settings[0] not in memo and settings[1] not in memo
        assert all(s in memo for s in settings[2:])

        # A hit refreshes recency: touching the oldest survivor keeps it
        # through the next eviction.
        memo.get_or_build(settings[2])
        memo.get_or_build(self._FakeSetting("fresh"))
        assert settings[2] in memo and settings[3] not in memo

    def test_rejects_cap_below_one(self):
        from repro.runner.workers import WorldMemo
        with pytest.raises(ValueError, match="cap"):
            WorldMemo(cap=0)

    def test_worker_module_memo_is_bounded(self):
        from repro.runner.workers import WORLD_MEMO_CAP, WorldMemo, world_memo
        assert isinstance(world_memo, WorldMemo)
        assert world_memo.cap == WORLD_MEMO_CAP


class TestChunkedExecute:
    def _specs(self, n=6):
        return [Table2Spec(n_accesses=50 + 10 * i, k=2, m=3, seed=5)
                for i in range(n)]

    def test_chunk_size_validated(self):
        # The retired knob is rejected loudly, never silently ignored.
        from repro.analysis.experiment import run_figure2
        with pytest.raises(TypeError, match="chunk_size"):
            execute([], chunk_size=4)
        with pytest.raises(TypeError, match="chunk_size"):
            run_figure2(EvaluationSetting(n_nodes=30, n_runs=1), (1,),
                        chunk_size=4)

    def test_guided_rule_drives_chunk_count(self):
        def stable(rows):   # strip the wall-clock fields Table2Row carries
            return [(r.n_accesses, r.online_bytes, r.offline_bytes)
                    for r in rows]

        specs = self._specs(6)
        serial = execute(specs, jobs=1)
        with obs.observe() as (registry, _):
            rows = execute(specs, jobs=2)
        assert stable(rows) == stable(serial)
        # 6 jobs on 2 workers: chunks of 2, 1, 1, 1, 1.
        assert registry.counter("runner.chunks").value == 5
        assert registry.gauge("runner.chunk_size").value == 2
        assert registry.counter("runner.jobs_completed").value == 6

    def test_meta_out_records_provenance(self, tmp_path):
        specs = self._specs(4)
        meta = []
        execute(specs, jobs=2, cache_dir=str(tmp_path), meta_out=meta)
        assert [row["index"] for row in meta] == [0, 1, 2, 3]
        assert {row["source"] for row in meta} == {"worker"}
        assert all("chunk" in row and "worker" in row for row in meta)

        resumed_meta = []
        execute(specs, jobs=2, cache_dir=str(tmp_path), resume=True,
                meta_out=resumed_meta)
        assert {row["source"] for row in resumed_meta} == {"cache"}

    def test_meta_out_serial_source(self):
        meta = []
        execute(self._specs(2), jobs=1, meta_out=meta)
        assert [row["source"] for row in meta] == ["serial", "serial"]

    def test_guided_sizes_for_a_figure2_sweep(self):
        from repro.runner.pool import _ChunkDispatcher
        dispatcher = _ChunkDispatcher(list(range(84)), list(range(84)), 2,
                                      obs.MetricsRegistry())
        sizes = []
        while (chunk := dispatcher.next_chunk()) is not None:
            sizes.append(len(chunk))
        assert sizes == [21, 16, 12, 9, 7, 5, 4, 3, 2, 2, 1, 1, 1]


class TestJobErrors:
    """A job that raises inside the pool is the job's error, not a worker
    crash: same exception at every ``jobs`` level, never retried."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_same_exception_at_every_jobs_level(self, jobs):
        specs = [_RaisesOnCell(n, bad=3) for n in range(6)]
        with obs.observe() as (registry, _):
            with pytest.raises(ValueError, match="^bad cell 3$"):
                execute(specs, jobs=jobs)
        assert registry.counter("runner.worker_crashes").value == 0
        assert registry.counter("runner.retries").value == 0

    def test_unpicklable_exception_carries_the_worker_traceback(self):
        specs = [_RaisesOnCell(n, bad=1, error=_Unpicklable)
                 for n in range(3)]
        with pytest.raises(_Unpicklable):
            execute(specs, jobs=1)
        with pytest.raises(repro.runner.RunnerError,
                           match=r"(?s)job 1 raised.*_Unpicklable: cell 1"):
            execute(specs, jobs=2)

    def test_jobs_recorded_before_the_error_stay_cached(self, tmp_path):
        specs = [_RaisesOnCell(n, bad=3) for n in range(6)]
        cache = ResultCache(str(tmp_path))
        with pytest.raises(ValueError):
            execute(specs, jobs=2, cache_dir=str(tmp_path))
        cached = [n for n, spec in enumerate(specs)
                  if cache.get(spec) is not MISS]
        assert cached and 3 not in cached
        assert all(cache.get(specs[n]) == float(n) for n in cached)

    def test_chunk_stops_at_the_failing_job(self):
        from repro.runner.jobs import JobChunk
        from repro.runner.workers import run_chunk
        specs = [_RaisesOnCell(n, bad=1) for n in range(3)]
        result = run_chunk(JobChunk(chunk_id=0, items=tuple(enumerate(specs))))
        assert result.indices == (0,) and result.results == (0.0,)
        index, error, trace = result.failure
        assert index == 1 and isinstance(error, ValueError)
        assert "bad cell 1" in trace
