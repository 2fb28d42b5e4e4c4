"""Unit tests for repro.workloads."""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.coords import EuclideanSpace, embed_matrix
from repro.net import GeoTopology
from repro.net.planetlab import small_matrix
from repro.sim import Simulator
from repro.store import ReplicatedStore
from repro.workloads import (
    ClientPopulation,
    ConstantPattern,
    DiurnalPattern,
    FlashCrowd,
    RegionalShift,
    ZipfObjectPopularity,
    generate_trace,
    replay_trace,
)
from repro.workloads._reference import AccessWorkload


@pytest.fixture()
def topology():
    return GeoTopology(30, rng=np.random.default_rng(0))


class TestClientPopulation:
    def test_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            ClientPopulation([])
        with pytest.raises(ValueError, match="distinct"):
            ClientPopulation([1, 1])
        with pytest.raises(ValueError, match="per client"):
            ClientPopulation([1, 2], [1.0])
        with pytest.raises(ValueError, match="non-negative"):
            ClientPopulation([1, 2], [1.0, -1.0])

    def test_uniform_sampling_covers_all(self):
        pop = ClientPopulation.uniform([5, 6, 7])
        rng = np.random.default_rng(0)
        seen = {pop.sample(rng) for _ in range(200)}
        assert seen == {5, 6, 7}

    def test_weights_bias_sampling(self):
        pop = ClientPopulation([1, 2], [0.01, 0.99])
        rng = np.random.default_rng(0)
        draws = [pop.sample(rng) for _ in range(300)]
        assert draws.count(2) > 250

    def test_modulation_shifts_distribution(self):
        pop = ClientPopulation([1, 2], [1.0, 1.0])
        rng = np.random.default_rng(0)
        draws = [pop.sample(rng, modulation=np.array([100.0, 0.001]))
                 for _ in range(200)]
        assert draws.count(1) > 190

    def test_modulation_shape_checked(self):
        pop = ClientPopulation([1, 2])
        with pytest.raises(ValueError, match="modulation"):
            pop.sample(np.random.default_rng(0), modulation=np.ones(3))

    def test_fully_suppressed_falls_back(self):
        pop = ClientPopulation([1, 2])
        client = pop.sample(np.random.default_rng(0),
                            modulation=np.zeros(2))
        assert client in (1, 2)

    def test_region_weighted(self, topology):
        clients = list(range(topology.n))
        target = topology.region_name(0)
        pop = ClientPopulation.region_weighted(
            clients, topology, {target: 50.0}, default_weight=0.1)
        rng = np.random.default_rng(1)
        draws = [pop.sample(rng) for _ in range(300)]
        in_region = sum(
            1 for d in draws if topology.region_name(d) == target)
        assert in_region > 150

    def test_index_of(self):
        pop = ClientPopulation([9, 4])
        assert pop.index_of(4) == 1


class TestZipf:
    def test_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            ZipfObjectPopularity([])
        with pytest.raises(ValueError, match="exponent"):
            ZipfObjectPopularity(["a"], exponent=-1.0)

    def test_rank_ordering(self):
        pop = ZipfObjectPopularity(["a", "b", "c"], exponent=1.0)
        assert pop.probability_of("a") > pop.probability_of("b")
        assert pop.probability_of("b") > pop.probability_of("c")

    def test_zero_exponent_is_uniform(self):
        pop = ZipfObjectPopularity(["a", "b"], exponent=0.0)
        assert pop.probability_of("a") == pytest.approx(0.5)

    def test_sampling_respects_skew(self):
        pop = ZipfObjectPopularity(["a", "b", "c"], exponent=2.0)
        rng = np.random.default_rng(0)
        draws = [pop.sample(rng) for _ in range(500)]
        assert draws.count("a") > draws.count("c")


class TestTemporalPatterns:
    def test_constant(self):
        pop = ClientPopulation([1, 2])
        assert np.all(ConstantPattern().modulation(0.0, pop) == 1.0)

    def test_diurnal_oscillates(self, topology):
        pop = ClientPopulation(list(range(10)))
        pattern = DiurnalPattern(topology, amplitude=0.8)
        day = 24 * 3_600_000.0
        samples = np.stack([
            pattern.modulation(t, pop)
            for t in np.linspace(0, day, 25)
        ])
        assert samples.min() < 0.5
        assert samples.max() > 1.5
        # Strictly positive intensities.
        assert samples.min() > 0.0

    def test_diurnal_validation(self, topology):
        with pytest.raises(ValueError, match="amplitude"):
            DiurnalPattern(topology, amplitude=1.5)
        with pytest.raises(ValueError, match="period"):
            DiurnalPattern(topology, period_hours=0.0)

    def test_flash_crowd_window(self):
        pop = ClientPopulation([1, 2, 3])
        crowd = FlashCrowd([2], start_ms=100.0, duration_ms=50.0,
                           multiplier=10.0)
        before = crowd.modulation(50.0, pop)
        during = crowd.modulation(120.0, pop)
        after = crowd.modulation(200.0, pop)
        assert np.all(before == 1.0)
        assert during[1] == 10.0 and during[0] == 1.0
        assert np.all(after == 1.0)

    def test_flash_crowd_validation(self):
        with pytest.raises(ValueError, match="duration"):
            FlashCrowd([1], 0.0, 0.0)
        with pytest.raises(ValueError, match="amplifies"):
            FlashCrowd([1], 0.0, 10.0, multiplier=0.5)

    def test_regional_shift_progress(self, topology):
        regions = [r.name for r in topology.regions]
        shift = RegionalShift(topology, regions[0], regions[1],
                              start_ms=100.0, end_ms=200.0)
        assert shift.progress(0.0) == 0.0
        assert shift.progress(150.0) == 0.5
        assert shift.progress(300.0) == 1.0

    def test_regional_shift_moves_weight(self, topology):
        regions = [r.name for r in topology.regions]
        src, dst = regions[0], regions[1]
        clients = list(range(topology.n))
        pop = ClientPopulation(clients)
        shift = RegionalShift(topology, src, dst, 0.0, 100.0, intensity=5.0)
        start = shift.modulation(0.0, pop)
        end = shift.modulation(100.0, pop)
        for i, c in enumerate(clients):
            region = topology.region_name(c)
            if region == src:
                assert start[i] == pytest.approx(6.0)
                assert end[i] == pytest.approx(1.0)
            elif region == dst:
                assert start[i] == pytest.approx(1.0)
                assert end[i] == pytest.approx(6.0)

    def test_regional_shift_validation(self, topology):
        with pytest.raises(ValueError, match="after start"):
            RegionalShift(topology, "us-east", "eu-west", 100.0, 100.0)
        with pytest.raises(ValueError, match="unknown region"):
            RegionalShift(topology, "atlantis", "eu-west", 0.0, 1.0)
        with pytest.raises(ValueError, match="intensity"):
            RegionalShift(topology, "us-east", "eu-west", 0.0, 1.0,
                          intensity=0.0)


class TestGenerateTrace:
    def test_rate_controls_volume(self):
        pop = ClientPopulation([1, 2, 3])
        rng = np.random.default_rng(0)
        events = generate_trace(pop, ["obj"], duration_ms=10_000.0,
                                rate_per_second=100.0, rng=rng)
        # ~1000 expected; allow generous slack.
        assert 700 < len(events) < 1300
        assert all(0 <= e.time_ms < 10_000.0 for e in events)
        assert all(e.kind == "read" for e in events)

    def test_timestamps_sorted(self):
        pop = ClientPopulation([1])
        events = generate_trace(pop, ["o"], 1000.0, 50.0,
                                np.random.default_rng(1))
        times = [e.time_ms for e in events]
        assert times == sorted(times)

    def test_write_fraction(self):
        pop = ClientPopulation([1])
        events = generate_trace(pop, ["o"], 10_000.0, 100.0,
                                np.random.default_rng(2),
                                write_fraction=0.5)
        writes = sum(1 for e in events if e.kind == "write")
        assert 0.3 < writes / len(events) < 0.7

    def test_validation(self):
        pop = ClientPopulation([1])
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="duration"):
            generate_trace(pop, ["o"], 0.0, 1.0, rng)
        with pytest.raises(ValueError, match="rate"):
            generate_trace(pop, ["o"], 1.0, 0.0, rng)
        with pytest.raises(ValueError, match="write fraction"):
            generate_trace(pop, ["o"], 1.0, 1.0, rng, write_fraction=2.0)
        with pytest.raises(ValueError, match="key"):
            generate_trace(pop, [], 1.0, 1.0, rng)


class TestReplayTrace:
    def build_store(self, seed=3):
        matrix = small_matrix(n=15, seed=2)
        coords = embed_matrix(matrix, system="mds",
                              space=EuclideanSpace(3)).coords
        sim = Simulator(seed=seed)
        store = ReplicatedStore(sim, matrix, (0, 1, 2), coords,
                                selection="oracle")
        store.create_object("obj", initial_sites=[0, 1])
        return sim, store

    def test_replay_executes_every_event(self):
        sim, store = self.build_store()
        pop = ClientPopulation.uniform(list(range(5, 15)))
        trace = generate_trace(pop, ["obj"], duration_ms=5_000.0,
                               rate_per_second=100.0,
                               rng=np.random.default_rng(0),
                               write_fraction=0.2)
        scheduled = replay_trace(store, trace)
        assert scheduled == len(trace)
        sim.run()
        assert len(store.log) == len(trace)
        kinds = {e.kind for e in trace}
        assert {r.kind for r in store.log.records} == kinds

    def test_replay_is_reproducible_across_configs(self):
        # The same trace on two stores yields identical clients/keys.
        pop = ClientPopulation.uniform(list(range(5, 15)))
        trace = generate_trace(pop, ["obj"], duration_ms=2_000.0,
                               rate_per_second=50.0,
                               rng=np.random.default_rng(1))
        logs = []
        for seed in (3, 4):
            sim, store = self.build_store(seed=seed)
            replay_trace(store, trace)
            sim.run()
            logs.append([(r.client, r.key) for r in store.log.records])
        assert logs[0] == logs[1]

    def test_replay_rejects_past_events(self):
        sim, store = self.build_store()
        sim.run_until(1_000.0)
        pop = ClientPopulation.uniform([5])
        trace = generate_trace(pop, ["obj"], duration_ms=500.0,
                               rate_per_second=50.0,
                               rng=np.random.default_rng(2))
        with pytest.raises(ValueError, match="past"):
            replay_trace(store, trace)

    def test_replay_with_offset(self):
        sim, store = self.build_store()
        sim.run_until(1_000.0)
        pop = ClientPopulation.uniform([5])
        trace = generate_trace(pop, ["obj"], duration_ms=500.0,
                               rate_per_second=50.0,
                               rng=np.random.default_rng(2))
        replay_trace(store, trace, time_offset_ms=2_000.0)
        sim.run()
        assert len(store.log) == len(trace)


class TestOneAccessDriver:
    def test_production_paths_never_import_the_oracle(self):
        # A chaos cell, a catalog cell and a trace replay in a fresh
        # interpreter: the per-event oracle must stay unimported.
        examples = os.path.join(os.path.dirname(__file__), os.pardir,
                                os.pardir, "examples", "chaos")
        code = f"""
            import sys
            import numpy as np
            import repro.workloads
            from repro.catalog import CatalogRunSpec, run_catalog_cell
            from repro.chaos import load_scenario, run_scenario
            from repro.net.planetlab import small_matrix
            from repro.sim import Simulator
            from repro.store import ReplicatedStore
            from repro.workloads import (ClientPopulation, generate_trace,
                                         replay_trace)

            result = run_scenario(load_scenario({examples!r} + "/smoke.toml"))
            assert result.reads_completed > 0
            row = run_catalog_cell(CatalogRunSpec(
                n_keys=20, n_shards=2, n_nodes=30, n_dc=6,
                duration_ms=2_000.0))
            assert row["reads_completed"] > 0
            sim = Simulator(seed=3)
            store = ReplicatedStore(sim, small_matrix(n=15, seed=2),
                                    (0, 1, 2), np.zeros((15, 3)),
                                    selection="oracle")
            store.create_object("obj", initial_sites=[0, 1])
            trace = generate_trace(
                ClientPopulation.uniform(range(5, 15)), ["obj"],
                duration_ms=1_000.0, rate_per_second=100.0,
                rng=np.random.default_rng(0))
            replay_trace(store, trace)
            sim.run()
            assert len(store.log) == len(trace) > 0

            assert "repro.workloads._reference" not in sys.modules
            assert "AccessWorkload" not in repro.workloads.__all__
        """
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                              env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr

    def test_no_engine_selector_is_left(self):
        from repro.catalog import CatalogRunSpec
        from repro.chaos.harness import live_world
        with pytest.raises(TypeError, match="engine"):
            CatalogRunSpec(n_keys=4, n_shards=1, engine="batched")
        with pytest.raises(TypeError, match="engine"):
            live_world(20, 4, 0, engine="batched")
        with pytest.raises(TypeError, match="engine"):
            replay_trace(None, [], engine="batched")

    def test_draining_an_endless_workload_is_an_error(self):
        from repro.store import BatchedAccessWorkload
        sim, store = TestReplayTrace().build_store()
        workload = BatchedAccessWorkload(
            store, ClientPopulation.uniform([5, 6]), ["obj"])
        with pytest.raises(ValueError, match="endless workload"):
            sim.run()
        workload.stop()
        sim.run()   # a stopped driver drains like any empty queue


class TestAccessWorkload:
    """The reference tick process (the oracle's own unit tests)."""

    def build(self, write_fraction=0.0):
        matrix = small_matrix(n=15, seed=2)
        coords = embed_matrix(matrix, system="mds",
                              space=EuclideanSpace(3)).coords
        sim = Simulator(seed=3)
        store = ReplicatedStore(sim, matrix, (0, 1, 2), coords,
                                selection="oracle")
        store.create_object("obj", initial_sites=[0, 1])
        pop = ClientPopulation.uniform(list(range(5, 15)))
        workload = AccessWorkload(store, pop, ["obj"],
                                  rate_per_second=1000.0,
                                  write_fraction=write_fraction)
        return sim, store, workload

    def test_drives_reads_through_store(self):
        sim, store, workload = self.build()
        sim.run_until(2_000.0)
        workload.stop()
        sim.run()
        assert workload.operations_issued > 1000
        assert len(store.log) == workload.operations_issued

    def test_registers_clients_lazily(self):
        sim, store, workload = self.build()
        assert set(store.clients) == set(range(5, 15))

    def test_mixed_workload_produces_writes(self):
        sim, store, workload = self.build(write_fraction=0.3)
        sim.run_until(2_000.0)
        workload.stop()
        sim.run()
        kinds = {r.kind for r in store.log.records}
        assert kinds == {"read", "write"}

    def test_validation(self):
        sim, store, _ = self.build()
        pop = ClientPopulation([5])
        with pytest.raises(ValueError, match="rate"):
            AccessWorkload(store, pop, ["obj"], rate_per_second=0.0)
        with pytest.raises(ValueError, match="write fraction"):
            AccessWorkload(store, pop, ["obj"], write_fraction=1.5)
        with pytest.raises(ValueError, match="key"):
            AccessWorkload(store, pop, [])


class TestTracePersistence:
    def test_roundtrip(self, tmp_path):
        from repro.workloads import load_trace, save_trace
        pop = ClientPopulation.uniform([1, 2, 3])
        trace = generate_trace(pop, ["a", "b"], duration_ms=2_000.0,
                               rate_per_second=100.0,
                               rng=np.random.default_rng(0),
                               write_fraction=0.2)
        path = str(tmp_path / "trace.jsonl")
        save_trace(trace, path)
        loaded = load_trace(path)
        assert loaded == trace

    def test_blank_lines_skipped(self, tmp_path):
        from repro.workloads import load_trace
        path = str(tmp_path / "trace.jsonl")
        with open(path, "w") as handle:
            handle.write('{"time_ms": 1.0, "client": 2, "key": "k", '
                         '"kind": "read"}\n\n')
        events = load_trace(path)
        assert len(events) == 1
        assert events[0].client == 2

    def test_bad_record_rejected(self, tmp_path):
        from repro.workloads import load_trace
        path = str(tmp_path / "trace.jsonl")
        with open(path, "w") as handle:
            handle.write('{"time_ms": 1.0, "client": 2}\n')
        with pytest.raises(ValueError, match="line 1"):
            load_trace(path)

    def test_bad_kind_rejected(self, tmp_path):
        from repro.workloads import load_trace
        path = str(tmp_path / "trace.jsonl")
        with open(path, "w") as handle:
            handle.write('{"time_ms": 1.0, "client": 2, "key": "k", '
                         '"kind": "delete"}\n')
        with pytest.raises(ValueError, match="unknown kind"):
            load_trace(path)

    def test_truncated_line_names_line_number(self, tmp_path):
        # A writer killed mid-line leaves invalid JSON on the last line;
        # the loader must say *where*, not dump a bare JSONDecodeError.
        from repro.workloads import load_trace
        path = str(tmp_path / "trace.jsonl")
        with open(path, "w") as handle:
            handle.write('{"time_ms": 1.0, "client": 2, "key": "k", '
                         '"kind": "read"}\n')
            handle.write('{"time_ms": 2.0, "client": 3, "ke')
        with pytest.raises(ValueError, match="line 2"):
            load_trace(path)

    def test_non_object_line_rejected(self, tmp_path):
        from repro.workloads import load_trace
        path = str(tmp_path / "trace.jsonl")
        with open(path, "w") as handle:
            handle.write('[1, 2, 3]\n')
        with pytest.raises(ValueError, match="line 1.*expected an object"):
            load_trace(path)

    def test_garbage_line_rejected(self, tmp_path):
        from repro.workloads import load_trace
        path = str(tmp_path / "trace.jsonl")
        with open(path, "w") as handle:
            handle.write('not json at all\n')
        with pytest.raises(ValueError, match="line 1"):
            load_trace(path)


class TestTraceDeterminism:
    def test_key_enumeration_order_is_irrelevant(self, tmp_path):
        # The default popularity ranks keys in sorted order, so the same
        # seed yields a byte-identical trace file no matter how the
        # caller enumerates the keyspace.
        from repro.workloads import save_trace
        pop = ClientPopulation.uniform([1, 2, 3])
        keys = [f"obj-{i:06d}" for i in range(12)]
        paths = []
        for i, enumeration in enumerate(
                [keys, list(reversed(keys)), keys[6:] + keys[:6]]):
            trace = generate_trace(pop, enumeration, duration_ms=3_000.0,
                                   rate_per_second=200.0,
                                   rng=np.random.default_rng(7),
                                   write_fraction=0.1)
            path = tmp_path / f"trace-{i}.jsonl"
            save_trace(trace, str(path))
            paths.append(path)
        reference = paths[0].read_bytes()
        assert paths[1].read_bytes() == reference
        assert paths[2].read_bytes() == reference

    def test_explicit_popularity_is_honoured(self):
        # An explicit ranking still wins over the sorted default.
        from repro.workloads import ZipfObjectPopularity
        pop = ClientPopulation.uniform([1])
        keys = ["b", "a"]
        events = generate_trace(
            pop, keys, duration_ms=5_000.0, rate_per_second=200.0,
            rng=np.random.default_rng(0),
            popularity=ZipfObjectPopularity(("b", "a"), exponent=3.0))
        counts = {k: sum(1 for e in events if e.key == k) for k in keys}
        assert counts["b"] > counts["a"]
