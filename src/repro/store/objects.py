"""Data objects and access metrics for the replicated store."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

__all__ = ["DataObject", "AccessRecord", "AccessLog"]


@dataclass
class DataObject:
    """One replicated data object (or object group, per Section II-A).

    Attributes
    ----------
    key:
        Object identifier.
    size_gb:
        Logical size; drives migration cost and replica-transfer byte
        counts.
    read_size_bytes:
        Payload of one read response.  Clients typically fetch a record
        or chunk, not the whole replica, so this defaults to 64 KiB;
        replica transfers (migration, update propagation) always move
        the full ``size_gb``.
    version:
        Monotonic write version (last-writer-wins).
    """

    key: str
    size_gb: float = 1.0
    read_size_bytes: int = 64 * 1024
    version: int = 0

    def __post_init__(self) -> None:
        if not self.key:
            raise ValueError("object key must be non-empty")
        if self.size_gb <= 0:
            raise ValueError("object size must be positive")
        if self.read_size_bytes <= 0:
            raise ValueError("read size must be positive")

    @property
    def size_bytes(self) -> int:
        """Size in bytes (used for message accounting)."""
        return int(self.size_gb * 1024 ** 3)


class AccessRecord(NamedTuple):
    """One completed client access."""

    time: float
    client: int
    server: int
    key: str
    delay_ms: float
    kind: str = "read"
    version: int = 0
    stale: bool = False


#: Column dtypes, in :class:`AccessRecord` field order.
_DTYPES = (float, np.int64, np.int64, object, float, object, np.int64, bool)
_TIME, _DELAY, _KIND, _STALE = 0, 4, 5, 7


def _as_columns(segment) -> list[np.ndarray]:
    """One log segment as eight columns: a run of per-event records, a
    bulk block (whose ``kind`` is one string) or columns already."""
    if isinstance(segment, list):
        return [np.array(column, dtype=dtype)
                for column, dtype in zip(zip(*segment), _DTYPES)]
    if isinstance(segment[_KIND], str):
        segment = list(segment)
        # Every row refers to the one ``str``: ``np.full`` would box a
        # copy per row.
        kinds = np.empty(len(segment[_TIME]), dtype=object)
        kinds.fill(segment[_KIND])
        segment[_KIND] = kinds
    return [np.asarray(column, dtype=dtype)
            for column, dtype in zip(segment, _DTYPES)]


class AccessLog:
    """Completed client accesses, kept as columns, and their summaries.

    **Ordering contract:** the log reads as every access it was given,
    sorted stably by completion time — accesses with equal times keep
    the order they were appended in, whether they came one at a time
    (:meth:`append`: the per-event store, in event order) or as a bulk
    block (:meth:`append_block`: the batched engine, one
    completion-unsorted window at a time, interleaved with straggler
    records from real events).

    Appends only queue their segment.  The first read after an append
    concatenates the segments once, sorts them stably by time if they
    are out of order, and keeps the result as the log's one block, so
    repeated reads redo nothing.  ``records`` rebuilds
    :class:`AccessRecord` tuples from the columns (cached the same way);
    the delay summaries never do.
    """

    def __init__(self) -> None:
        #: Segments in append order: lists of records or column tuples.
        self._segments: list = []
        self._size = 0
        self._dirty = False
        self._records: list[AccessRecord] | None = None

    def append(self, record: AccessRecord) -> None:
        segments = self._segments
        if not segments or not isinstance(segments[-1], list):
            segments.append([])
        segments[-1].append(record)
        self._size += 1
        self._dirty = True
        self._records = None

    def append_block(self, time: np.ndarray, client: np.ndarray,
                     server: np.ndarray, key: np.ndarray,
                     delay_ms: np.ndarray, kind: str, version: np.ndarray,
                     stale: np.ndarray) -> None:
        """Append a block of accesses of one ``kind``, one array per
        :class:`AccessRecord` field, in any time order.  The arrays are
        kept, not copied: the caller must not modify them."""
        self._segments.append((time, client, server, key, delay_ms, kind,
                               version, stale))
        self._size += len(time)
        self._dirty = True
        self._records = None

    def _columns(self) -> list[np.ndarray]:
        """The log's columns, sorted by the ordering contract."""
        if self._dirty:
            parts = [_as_columns(segment) for segment in self._segments]
            self._segments = []
            # One column at a time, each part's copy dropped as soon as
            # it is concatenated (``pop``), and each column sorted in
            # turn: the log never holds much more than one copy of itself.
            columns = [np.concatenate([part.pop(0) for part in parts])
                       for _ in _DTYPES]
            time = columns[_TIME]
            if (time[1:] < time[:-1]).any():
                order = np.argsort(time, kind="stable")
                for i, column in enumerate(columns):
                    columns[i] = column[order]
            self._segments = [tuple(columns)]
            self._dirty = False
        if not self._segments:
            return [np.empty(0, dtype=dtype) for dtype in _DTYPES]
        return list(self._segments[0])

    @property
    def records(self) -> list[AccessRecord]:
        """The accesses as :class:`AccessRecord` tuples, in log order."""
        if self._records is None:
            self._records = list(map(AccessRecord._make, zip(
                *(column.tolist() for column in self._columns()))))
        return self._records

    def __len__(self) -> int:
        return self._size

    def _select(self, column: int, kind: str | None,
                since: float) -> np.ndarray:
        columns = self._columns()
        mask = columns[_TIME] >= since
        if kind is not None:
            mask &= columns[_KIND] == kind
        return columns[column][mask]

    def delays(self, kind: str | None = None,
               since: float = 0.0) -> np.ndarray:
        """Delay samples in ms, optionally filtered by kind and time."""
        return self._select(_DELAY, kind, since)

    def times(self, kind: str | None = None,
              since: float = 0.0) -> np.ndarray:
        """Completion times of the samples :meth:`delays` returns."""
        return self._select(_TIME, kind, since)

    def mean_delay(self, kind: str | None = None, since: float = 0.0) -> float:
        """Mean access delay; the figure-of-merit of every experiment."""
        values = self.delays(kind, since)
        if values.size == 0:
            raise ValueError("no matching access records")
        return float(values.mean())

    def percentile_delay(self, q: float, kind: str | None = None) -> float:
        """``q``-th percentile delay."""
        values = self.delays(kind)
        if values.size == 0:
            raise ValueError("no matching access records")
        return float(np.percentile(values, q))

    def tail_quantiles(self, kind: str | None = None,
                       since: float = 0.0) -> dict[str, float]:
        """p50/p99/p999 delay in one pass — the tail-latency report.

        Returns zeros when no records match (an empty run has no tail),
        so sweep aggregation never branches on emptiness.
        """
        values = self.delays(kind, since)
        if values.size == 0:
            return {"p50": 0.0, "p99": 0.0, "p999": 0.0}
        p50, p99, p999 = np.percentile(values, (50.0, 99.0, 99.9))
        return {"p50": float(p50), "p99": float(p99), "p999": float(p999)}

    def stale_fraction(self) -> float:
        """Fraction of reads that returned a stale version."""
        columns = self._columns()
        reads = columns[_KIND] == "read"
        n_reads = int(np.count_nonzero(reads))
        if not n_reads:
            return 0.0
        return int(np.count_nonzero(columns[_STALE] & reads)) / n_reads

    def by_client(self) -> dict[int, list[AccessRecord]]:
        """Records grouped by client id."""
        grouped: dict[int, list[AccessRecord]] = {}
        for r in self.records:
            grouped.setdefault(r.client, []).append(r)
        return grouped

    def extend(self, records: Iterable[AccessRecord]) -> None:
        for r in records:
            self.append(r)
