"""Property tests: the columnar access log against the record-list oracle.

The store's log takes accesses two ways — one :class:`AccessRecord` at a
time from real events (in event order) and one column block per batched
window (in ``(client, key)`` order, so out of time order) — and must
read as one stable time sort of everything it was given.  Random
interleavings of both, with equal-time ties across the two kinds of
append and reads between appends, must give bitwise the answers of
:class:`tests.oracles.access_log.RecordListLog` fed the same accesses
one record at a time.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.store import AccessLog, AccessRecord, objects
from tests.oracles.access_log import RecordListLog

KINDS = ("read", "write", "read-timeout")

# Few distinct times, so equal-time ties are common.
times = st.sampled_from([0.0, 0.5, 1.0, 1.0 + 2 ** -40, 2.0, 3.25, 7.0])
delays = st.floats(min_value=0.0, max_value=1e4, allow_nan=False)
rows = st.tuples(times, st.integers(0, 5), st.integers(-1, 5),
                 st.sampled_from(["a", "b", "c"]), delays,
                 st.integers(0, 3), st.booleans())


@st.composite
def operations(draw):
    """A list of ``("record", AccessRecord)``, ``("block", kind, rows)``
    and ``("read",)`` steps."""
    steps = []
    for _ in range(draw(st.integers(0, 12))):
        step = draw(st.sampled_from(["record", "block", "read"]))
        if step == "record":
            t, client, server, key, delay, version, stale = draw(rows)
            steps.append(("record", AccessRecord(
                t, client, server, key, delay, draw(st.sampled_from(KINDS)),
                version, stale)))
        elif step == "block":
            steps.append(("block", draw(st.sampled_from(KINDS)),
                          draw(st.lists(rows, max_size=8))))
        else:
            steps.append(("read",))
    return steps


def _replay(steps):
    log, oracle = AccessLog(), RecordListLog()
    for step in steps:
        if step[0] == "record":
            log.append(step[1])
            oracle.append(step[1])
        elif step[0] == "block":
            _, kind, block = step
            columns = list(zip(*block)) or [()] * 7
            t, client, server, key, delay, version, stale = columns
            log.append_block(
                np.array(t, dtype=float), np.array(client, dtype=np.intp),
                np.array(server, dtype=np.intp), np.array(key, dtype=object),
                np.array(delay, dtype=float), kind,
                np.array(version, dtype=np.int64),
                np.array(stale, dtype=bool))
            oracle.extend(AccessRecord(t, c, s, k, d, kind, v, x)
                          for t, c, s, k, d, v, x in block)
        else:
            assert log.records == oracle.records
    return log, oracle


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


def _outcome(call):
    try:
        return call()
    except ValueError as error:
        return str(error)


@settings(max_examples=150, deadline=None)
@given(operations())
def test_columnar_log_matches_the_record_list_oracle(steps):
    log, oracle = _replay(steps)
    assert len(log) == len(oracle)
    assert [tuple(r) for r in log.records] == [tuple(r)
                                              for r in oracle.records]
    assert [list(map(type, r)) for r in log.records] == [
        [float, int, int, str, float, str, int, bool]] * len(log)
    for kind in (None, *KINDS):
        for since in (0.0, 1.0, 2.5):
            assert _same_bits(log.delays(kind, since),
                              oracle.delays(kind, since).astype(float))
            assert _outcome(lambda: log.mean_delay(kind, since)) \
                == _outcome(lambda: oracle.mean_delay(kind, since))
            assert log.tail_quantiles(kind, since) \
                == oracle.tail_quantiles(kind, since)
        assert _outcome(lambda: log.percentile_delay(90.0, kind)) \
            == _outcome(lambda: oracle.percentile_delay(90.0, kind))
    assert log.stale_fraction() == oracle.stale_fraction()
    assert log.by_client() == oracle.by_client()


@settings(max_examples=60, deadline=None)
@given(operations())
def test_times_pair_with_delays(steps):
    log, oracle = _replay(steps)
    for kind in (None, "read"):
        expected = [(r.time, r.delay_ms) for r in oracle.records
                    if (kind is None or r.kind == kind) and r.time >= 1.0]
        got = list(zip(log.times(kind, 1.0).tolist(),
                       log.delays(kind, 1.0).tolist()))
        assert got == expected


def test_equal_times_keep_append_order_across_records_and_blocks():
    log = AccessLog()
    log.append(AccessRecord(1.0, 0, 0, "first", 1.0))
    log.append_block(np.array([2.0, 1.0]), np.array([1, 1]),
                     np.array([0, 0]), np.array(["late", "second"],
                                                dtype=object),
                     np.array([2.0, 3.0]), "read", np.array([0, 0]),
                     np.array([False, False]))
    log.append(AccessRecord(1.0, 2, 0, "third", 4.0))
    assert [r.key for r in log.records] == ["first", "second", "third",
                                            "late"]


def test_reads_reuse_one_consolidated_block(monkeypatch):
    log = AccessLog()
    log.append_block(np.array([3.0, 1.0]), np.array([0, 1]),
                     np.array([0, 0]), np.array(["k", "k"], dtype=object),
                     np.array([1.0, 2.0]), "read", np.array([0, 0]),
                     np.array([False, True]))
    log.append(AccessRecord(0.5, 2, 0, "k", 5.0))
    first = log.delays("read")
    monkeypatch.setattr(objects, "_as_columns", pytest.fail)
    assert _same_bits(log.delays("read"), first)
    log.tail_quantiles("read")
    assert log.records is log.records
    assert first.tolist() == [5.0, 2.0, 1.0]


def _read_block(n):
    """A bulk block of ``n`` reads, ``kind`` given once."""
    log = AccessLog()
    log.append_block(np.arange(n, dtype=float), np.zeros(n, dtype=np.int64),
                     np.zeros(n, dtype=np.int64),
                     np.full(n, "k", dtype=object), np.ones(n), "read",
                     np.zeros(n, dtype=np.int64), np.zeros(n, dtype=bool))
    return log


def test_a_bulk_block_shares_one_kind_object():
    kinds = _read_block(1_000)._columns()[5]
    assert kinds.dtype == object
    assert {id(kind) for kind in kinds} == {id(kinds[0])}
    assert kinds[0] == "read"


def test_consolidating_a_bulk_block_boxes_no_string_per_row():
    n = 100_000
    log = _read_block(n)
    tracemalloc.start()
    try:
        log.delays("read")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The consolidated copy is 57 bytes a row and the kind column's
    # pointers 8 more; a ``str`` boxed per row would add about 53.
    assert peak < 80 * n


def test_access_record_is_immutable_with_the_old_defaults():
    record = AccessRecord(time=1.0, client=2, server=3, key="k",
                          delay_ms=4.0)
    assert (record.kind, record.version, record.stale) == ("read", 0, False)
    with pytest.raises(AttributeError):
        record.delay_ms = 5.0
