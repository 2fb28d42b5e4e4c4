"""The store's order-tolerant sinks: the access log and the fold buffer.

* A read-only run on the bulk path builds an :class:`AccessRecord` for
  each per-event completion only — bulk reads land in the log as
  column blocks, and a read is materialized only when a barrier can
  change what it observes.
* :meth:`PlacementUnit.flush_folds` converts each run of one-access
  entries at once, yet hands ``record_batch`` bitwise the arrays that
  converting every entry on its own gives (the reference below).
"""

import numpy as np
import pytest

from repro import obs
from repro.core import ControllerConfig, MigrationPolicy
from repro.net import LatencyMatrix
from repro.sim import Simulator
from repro.store import AccessLog, AccessRecord, BatchedAccessWorkload
from repro.store import ReplicatedStore, StorageClient
from repro.workloads import ClientPopulation

N_NODES = 40
N_DC = 8


def _store(seed=0, write_aware=False):
    rng = np.random.default_rng(seed + 7)
    coords = rng.normal(size=(N_NODES, 2)) * 40
    rtt = np.sqrt(((coords[:, None, :] - coords[None, :, :]) ** 2).sum(-1))
    rtt += 5.0
    np.fill_diagonal(rtt, 0.0)
    sim = Simulator(seed=seed)
    store = ReplicatedStore(sim, LatencyMatrix((rtt + rtt.T) / 2),
                            list(range(N_DC)), coords, selection="oracle")
    store.create_object(
        "obj", k=3,
        controller_config=ControllerConfig(k=3, max_micro_clusters=10,
                                           write_aware=write_aware),
        policy=MigrationPolicy(min_relative_gain=0.05,
                               min_absolute_gain_ms=0.0),
        epoch_period_ms=250.0)
    return sim, store


def test_bulk_reads_build_no_access_record(monkeypatch):
    constructed = []
    appended = []
    new = AccessRecord.__new__
    monkeypatch.setattr(AccessRecord, "__new__", lambda cls, *args, **kw: (
        constructed.append(1) or new(cls, *args, **kw)))
    append = AccessLog.append
    monkeypatch.setattr(AccessLog, "append", lambda self, record: (
        appended.append(record) or append(self, record)))

    sim, store = _store()
    workload = BatchedAccessWorkload(
        store, ClientPopulation.uniform(list(range(N_DC, N_NODES))), ["obj"],
        rate_per_second=20_000.0)
    sim.run_until(500.0)
    workload.stop()
    sim.run_until(1_000.0)

    bulk = len(store.log) - len(appended)
    assert workload.operations_issued == len(store.log) > 5_000
    assert bulk > len(store.log) / 2  # most reads took the bulk path
    assert 0 < len(constructed) == len(appended)


def test_reads_cut_only_by_a_barrier_that_changes_them(monkeypatch):
    """Epoch ticks, summary deliveries and transfers of the read's own
    unit end no bulk read whose requests all landed before them: on this
    run 1 540 of 10 021 reads are materialized, where a cut at every
    barrier of the unit materialized 2 225."""
    materialized = []
    materialize = StorageClient.materialize_read
    monkeypatch.setattr(StorageClient, "materialize_read",
                        lambda self, *args: (materialized.append(1)
                                             or materialize(self, *args)))
    sim, store = _store()
    with obs.observe() as (registry, _):
        workload = BatchedAccessWorkload(
            store, ClientPopulation.uniform(list(range(N_DC, N_NODES))),
            ["obj"], rate_per_second=20_000.0)
        sim.run_until(500.0)
        workload.stop()
        sim.run_until(1_000.0)
    assert len(store.log) > 10_000
    assert len(materialized) < 0.17 * len(store.log)
    assert registry.counter("sim.batched.escalated").value == len(materialized)
    assert (registry.counter("sim.batched.bulk").value + len(materialized)
            == workload.operations_issued)


def _parent_flush(buf, write_aware, until):
    """The fold grouping with one conversion per buffered entry: the
    ``record_batch`` calls and the re-buffered tail it produces."""
    groups = {}
    for when, position, coords, weights, kind in buf:
        stream = kind if write_aware else "read"
        parts = groups.setdefault((position, stream), ([], [], []))
        parts[0].append(np.atleast_1d(np.asarray(when, dtype=float)))
        parts[1].append(np.atleast_2d(np.asarray(coords, dtype=float)))
        parts[2].append(np.atleast_1d(np.asarray(weights, dtype=float)))
    calls, rest = [], []
    for (position, stream), (tparts, cparts, wparts) in groups.items():
        times = np.concatenate(tparts)
        order = np.argsort(times, kind="stable")
        times = times[order]
        coords = np.vstack(cparts)[order]
        weights = np.concatenate(wparts)[order]
        due = int(np.searchsorted(times, until, side="right"))
        if due < times.size:
            rest.append((times[due:], position, coords[due:], weights[due:],
                         stream))
        if due:
            calls.append((position, coords[:due], weights[:due], stream))
    return calls, rest


def _interleaved_buffer(store, rng):
    """One-access entries (float and ``np.float64`` stamps, int and float
    weights, reads and writes) interleaved with bulk blocks, on two
    positions, with equal stamps and entries past ``until = 50``."""
    planar = store.planar_coords()
    buf = []
    for i in range(60):
        position = int(rng.integers(0, 2))
        if i % 9 == 4:
            n = int(rng.integers(1, 6))
            clients = rng.integers(N_DC, N_NODES, size=n)
            buf.append((np.sort(rng.choice([10.0, 30.0, 60.0], size=n)),
                        position, planar[clients],
                        np.broadcast_to(65536.0, (n,)), "read"))
        else:
            when = float(rng.choice([10.0, 20.0, 30.0, 70.0]))
            buf.append((np.float64(when) if i % 2 else when, position,
                        store.planar_coords_of(int(rng.integers(N_DC,
                                                                N_NODES))),
                        65536 if i % 3 else 512.0,
                        "write" if i % 5 == 0 else "read"))
    return buf


@pytest.mark.parametrize("write_aware", [False, True])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_flush_folds_hands_record_batch_the_per_entry_arrays(
        monkeypatch, seed, write_aware):
    sim, store = _store(seed, write_aware)
    unit = store._units["obj"]
    buf = _interleaved_buffer(store, np.random.default_rng(seed))
    calls = []
    monkeypatch.setattr(
        unit.controller, "record_batch",
        lambda position, coords, weights, kind: calls.append(
            (position, coords, weights, kind)))
    unit.fold_buffer = list(buf)
    unit.flush_folds(50.0)

    expected_calls, expected_rest = _parent_flush(buf, write_aware, 50.0)
    assert len(calls) == len(expected_calls) > 1
    for got, want in zip(calls + unit.fold_buffer,
                         expected_calls + expected_rest):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            if isinstance(b, np.ndarray):
                assert (a.dtype, a.shape) == (b.dtype, b.shape)
                assert a.tobytes() == b.tobytes()
            else:
                assert a == b
    assert len(unit.fold_buffer) == len(expected_rest) > 0
