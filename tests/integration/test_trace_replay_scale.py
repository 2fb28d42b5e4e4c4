"""Trace replay: ``replay_trace`` vs the reference heap replay.

Round-trips a generated trace through ``save_trace``/``load_trace`` and
replays the loaded copy against identical stores with ``replay_trace``
(``TraceArrivals`` into the batched engine) and with the oracle of
``repro.workloads._reference`` (one heap event per line).  Store-level
outcomes — per-(server, kind) access counts and the full access log —
must be identical, which is the guarantee that makes the batched engine
usable for the paper's "realistic evaluation based on data accesses in
actual applications": a real application log replayed at millions of
lines behaves exactly like the reference path, only faster.  Tier-1 runs
a ~5k-line trace; the nightly ``slow`` test ~50k lines.
"""

import collections

import numpy as np
import pytest

from repro.net import LatencyMatrix
from repro.sim import Simulator
from repro.store import ReplicatedStore
from repro.workloads import (
    ClientPopulation,
    _reference,
    generate_trace,
    load_trace,
    replay_trace,
    save_trace,
)

N_NODES = 24
N_DC = 8
RATE = 500.0            # lines per simulated second
WRITE_FRACTION = 0.01   # writes exercise the escalation path


def _world(seed):
    rng = np.random.default_rng(seed + 999)
    coords = rng.normal(size=(N_NODES, 2)) * 40
    rtt = np.sqrt(((coords[:, None, :] - coords[None, :, :]) ** 2).sum(-1))
    rtt += 5.0
    np.fill_diagonal(rtt, 0.0)
    return LatencyMatrix((rtt + rtt.T) / 2), coords


def _replay(trace, replay, seed, duration_ms):
    matrix, coords = _world(seed)
    sim = Simulator(seed=seed)
    store = ReplicatedStore(sim, matrix, list(range(N_DC)), coords)
    for key in ("alpha", "beta"):
        store.create_object(key, size_gb=0.5, k=3)
    count = replay(store, trace)
    sim.run_until(duration_ms + 5_000.0)
    log = [(r.time, r.client, r.server, r.key, r.delay_ms, r.kind,
            r.version, r.stale) for r in store.log.records]
    counts = collections.Counter((r.server, r.kind)
                                 for r in store.log.records)
    return count, log, counts, store.failed_reads


def _round_trip_and_compare(tmp_path, duration_ms):
    population = ClientPopulation.uniform(range(N_DC, N_NODES))
    trace = generate_trace(population, ["alpha", "beta"],
                           duration_ms=duration_ms, rate_per_second=RATE,
                           rng=np.random.default_rng(42),
                           write_fraction=WRITE_FRACTION)
    assert len(trace) > 0.9 * RATE * duration_ms / 1000.0

    path = tmp_path / "trace.jsonl"
    save_trace(trace, str(path))
    assert sum(1 for _ in open(path)) == len(trace)
    loaded = load_trace(str(path))
    assert loaded == trace  # lossless round trip

    count_event, log_event, counts_event, failed_event = _replay(
        loaded, _reference.replay_trace, 3, duration_ms)
    count_batched, log_batched, counts_batched, failed_batched = _replay(
        loaded, replay_trace, 3, duration_ms)

    assert count_event == count_batched == len(trace)
    # Store-level read/write counts per server: identical.
    assert counts_event == counts_batched
    kinds = collections.Counter(kind for _, kind in counts_event.elements())
    assert kinds["read"] > 0.8 * len(trace)
    assert kinds["write"] > 0.002 * len(trace)
    # And so is the full access log, record for record.
    assert log_event == log_batched
    assert failed_event == failed_batched


def test_5k_line_trace_round_trip_matches_reference(tmp_path):
    _round_trip_and_compare(tmp_path, duration_ms=10_000.0)


@pytest.mark.slow
def test_50k_line_trace_round_trip_both_engines(tmp_path):
    _round_trip_and_compare(tmp_path, duration_ms=100_000.0)
