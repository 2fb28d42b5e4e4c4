"""The record-list access log: the oracle of the columnar
:class:`~repro.store.objects.AccessLog`.

It keeps one :class:`~repro.store.objects.AccessRecord` per access and
sorts the list stably by time on the first read after an out-of-order
append — the log the store kept before its accesses became columns.
Property tests feed both the same appends and compare every summary
bitwise.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.store.objects import AccessRecord


class RecordListLog:
    """Collects :class:`AccessRecord` entries and summarizes them."""

    def __init__(self) -> None:
        self._records: list[AccessRecord] = []
        self._unsorted = False
        self._last_time = float("-inf")

    @property
    def records(self) -> list[AccessRecord]:
        if self._unsorted:
            self._records.sort(key=lambda r: r.time)
            self._unsorted = False
            self._last_time = (self._records[-1].time if self._records
                               else float("-inf"))
        return self._records

    def append(self, record: AccessRecord) -> None:
        if record.time >= self._last_time:
            self._last_time = record.time
        else:
            self._unsorted = True
        self._records.append(record)

    def __len__(self) -> int:
        return len(self._records)

    def delays(self, kind: str | None = None,
               since: float = 0.0) -> np.ndarray:
        return np.array([
            r.delay_ms for r in self.records
            if (kind is None or r.kind == kind) and r.time >= since
        ])

    def mean_delay(self, kind: str | None = None, since: float = 0.0) -> float:
        values = self.delays(kind, since)
        if values.size == 0:
            raise ValueError("no matching access records")
        return float(values.mean())

    def percentile_delay(self, q: float, kind: str | None = None) -> float:
        values = self.delays(kind)
        if values.size == 0:
            raise ValueError("no matching access records")
        return float(np.percentile(values, q))

    def tail_quantiles(self, kind: str | None = None,
                       since: float = 0.0) -> dict[str, float]:
        values = self.delays(kind, since)
        if values.size == 0:
            return {"p50": 0.0, "p99": 0.0, "p999": 0.0}
        p50, p99, p999 = np.percentile(values, (50.0, 99.0, 99.9))
        return {"p50": float(p50), "p99": float(p99), "p999": float(p999)}

    def stale_fraction(self) -> float:
        reads = [r for r in self.records if r.kind == "read"]
        if not reads:
            return 0.0
        return sum(1 for r in reads if r.stale) / len(reads)

    def by_client(self) -> dict[int, list[AccessRecord]]:
        grouped: dict[int, list[AccessRecord]] = {}
        for r in self.records:
            grouped.setdefault(r.client, []).append(r)
        return grouped

    def extend(self, records: Iterable[AccessRecord]) -> None:
        for r in records:
            self.append(r)
