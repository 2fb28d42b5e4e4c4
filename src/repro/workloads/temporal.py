"""Temporal access patterns: how client intensity changes over time.

A :class:`TemporalPattern` maps ``(time_ms, population)`` to a per-client
modulation vector multiplied into the population's base weights.  The
shifting patterns are what make *gradual* replica migration interesting:
a placement that was optimal for yesterday's population decays, and the
controller should chase the demand.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

from repro.net.topology import GeoTopology
from repro.workloads.population import ClientPopulation

__all__ = [
    "TemporalPattern",
    "ConstantPattern",
    "DiurnalPattern",
    "FlashCrowd",
    "RegionalShift",
]

MS_PER_HOUR = 3_600_000.0


class TemporalPattern(ABC):
    """Time-varying per-client intensity modulation."""

    @abstractmethod
    def modulation(self, time_ms: float,
                   population: ClientPopulation) -> np.ndarray:
        """Per-client multipliers at simulated ``time_ms``."""

    def modulation_block(self, times_ms: np.ndarray,
                         population: ClientPopulation) -> np.ndarray:
        """Per-client multipliers for a whole block of timestamps.

        Returns a ``(len(times_ms), len(population))`` matrix whose row
        ``i`` equals ``modulation(times_ms[i], population)`` *bitwise* —
        the batched engine relies on that equality to match the
        per-event oracle it is certified against.  The built-in patterns
        override this with vectorized forms; this fallback simply loops,
        so custom patterns stay correct without extra work.
        """
        times = np.asarray(times_ms, dtype=float)
        if times.size == 0:
            return np.empty((0, len(population)))
        return np.stack([self.modulation(float(t), population)
                         for t in times])


class ConstantPattern(TemporalPattern):
    """No temporal variation (the paper's steady evaluation)."""

    def modulation(self, time_ms: float,
                   population: ClientPopulation) -> np.ndarray:
        return np.ones(len(population))

    def modulation_block(self, times_ms: np.ndarray,
                         population: ClientPopulation) -> np.ndarray:
        times = np.asarray(times_ms, dtype=float)
        return np.ones((times.size, len(population)))


class DiurnalPattern(TemporalPattern):
    """Sinusoidal day/night cycle, phase-shifted per client longitude.

    Each client's intensity follows ``1 + amplitude * sin(...)`` with its
    local solar time, so demand rolls westward around the globe — the
    classic follow-the-sun load curve.
    """

    def __init__(self, topology: GeoTopology, amplitude: float = 0.8,
                 period_hours: float = 24.0) -> None:
        if not 0.0 <= amplitude <= 1.0:
            raise ValueError("amplitude must lie in [0, 1]")
        if period_hours <= 0:
            raise ValueError("period must be positive")
        self.topology = topology
        self.amplitude = amplitude
        self.period_hours = period_hours

    def modulation(self, time_ms: float,
                   population: ClientPopulation) -> np.ndarray:
        hours = time_ms / MS_PER_HOUR
        lon = np.array([self.topology.lon[c] for c in population.clients])
        local_phase = 2.0 * np.pi * (hours / self.period_hours + lon / 360.0)
        return 1.0 + self.amplitude * np.sin(local_phase)

    def modulation_block(self, times_ms: np.ndarray,
                         population: ClientPopulation) -> np.ndarray:
        # Same elementwise formula as the scalar path, broadcast over a
        # (times, clients) grid — every row is bitwise-equal to
        # ``modulation(times_ms[i], ...)``.
        times = np.asarray(times_ms, dtype=float)
        hours = times / MS_PER_HOUR
        lon = np.array([self.topology.lon[c] for c in population.clients])
        local_phase = 2.0 * np.pi * (hours[:, None] / self.period_hours
                                     + lon[None, :] / 360.0)
        return 1.0 + self.amplitude * np.sin(local_phase)


class FlashCrowd(TemporalPattern):
    """A subset of clients spikes by ``multiplier`` during a window."""

    def __init__(self, hot_clients: Sequence[int], start_ms: float,
                 duration_ms: float, multiplier: float = 20.0) -> None:
        if duration_ms <= 0:
            raise ValueError("duration must be positive")
        if multiplier < 1.0:
            raise ValueError("a flash crowd amplifies, multiplier >= 1")
        self.hot_clients = set(int(c) for c in hot_clients)
        self.start_ms = start_ms
        self.duration_ms = duration_ms
        self.multiplier = multiplier

    def modulation(self, time_ms: float,
                   population: ClientPopulation) -> np.ndarray:
        mod = np.ones(len(population))
        if self.start_ms <= time_ms < self.start_ms + self.duration_ms:
            for i, client in enumerate(population.clients):
                if client in self.hot_clients:
                    mod[i] = self.multiplier
        return mod

    def modulation_block(self, times_ms: np.ndarray,
                         population: ClientPopulation) -> np.ndarray:
        times = np.asarray(times_ms, dtype=float)
        mod = np.ones((times.size, len(population)))
        active = (self.start_ms <= times) & (times < self.start_ms
                                             + self.duration_ms)
        hot = np.array([c in self.hot_clients for c in population.clients])
        if active.any() and hot.any():
            mod[np.ix_(active, hot)] = self.multiplier
        return mod


class RegionalShift(TemporalPattern):
    """Demand migrates linearly from one region to another.

    At ``start_ms`` all modulated demand sits on ``from_region``; by
    ``end_ms`` it has moved to ``to_region``.  Clients in neither region
    keep weight 1.  This is the scenario where a static placement decays
    and the controller must chase the population.
    """

    def __init__(self, topology: GeoTopology, from_region: str,
                 to_region: str, start_ms: float, end_ms: float,
                 intensity: float = 10.0) -> None:
        if end_ms <= start_ms:
            raise ValueError("end must come after start")
        if intensity <= 0:
            raise ValueError("intensity must be positive")
        names = {r.name for r in topology.regions}
        for region in (from_region, to_region):
            if region not in names:
                raise ValueError(f"unknown region {region!r}")
        self.topology = topology
        self.from_region = from_region
        self.to_region = to_region
        self.start_ms = start_ms
        self.end_ms = end_ms
        self.intensity = intensity

    def progress(self, time_ms: float) -> float:
        """Shift completion in [0, 1]."""
        if time_ms <= self.start_ms:
            return 0.0
        if time_ms >= self.end_ms:
            return 1.0
        return (time_ms - self.start_ms) / (self.end_ms - self.start_ms)

    def modulation(self, time_ms: float,
                   population: ClientPopulation) -> np.ndarray:
        p = self.progress(time_ms)
        mod = np.ones(len(population))
        for i, client in enumerate(population.clients):
            region = self.topology.region_name(client)
            if region == self.from_region:
                mod[i] = 1.0 + self.intensity * (1.0 - p)
            elif region == self.to_region:
                mod[i] = 1.0 + self.intensity * p
        return mod

    def modulation_block(self, times_ms: np.ndarray,
                         population: ClientPopulation) -> np.ndarray:
        times = np.asarray(times_ms, dtype=float)
        # Piecewise progress, same division as the scalar path where the
        # shift is underway and exact 0.0/1.0 endpoints outside it.
        p = (times - self.start_ms) / (self.end_ms - self.start_ms)
        p = np.where(times <= self.start_ms, 0.0, p)
        p = np.where(times >= self.end_ms, 1.0, p)
        regions = [self.topology.region_name(c) for c in population.clients]
        from_mask = np.array([r == self.from_region for r in regions])
        to_mask = np.array([r == self.to_region for r in regions])
        mod = np.ones((times.size, len(population)))
        if from_mask.any():
            mod[:, from_mask] = (1.0 + self.intensity * (1.0 - p))[:, None]
        if to_mask.any():
            mod[:, to_mask] = (1.0 + self.intensity * p)[:, None]
        return mod
