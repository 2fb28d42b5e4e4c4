"""The sharded catalog: many keys, per-shard control planes, one budget.

:class:`ShardedCatalog` scales the store along the *object count* axis:
thousands-to-millions of keys are folded into placement groups
(:mod:`repro.catalog.groups`), groups are assigned to shards by a
consistent-hash ring (:mod:`repro.catalog.ring`), and every shard owns
its slice of the control plane:

* a **home coordinator** — ``candidates[shard % n_candidates]`` — that
  anchors each unit's coordinator-election ranking.  Failover (PR 3's
  lease/fencing machinery) is untouched: when the home dies, the
  ranking falls through to the unit's replica holders, the lease term
  advances, and stale epochs are fenced;
* **staggered epoch clocks** — each unit's periodic epoch starts at a
  key-derived phase offset (``epoch_stagger`` scales it) so thousands
  of epochs spread across the epoch period instead of landing on one
  instant.  Each clock comes from the store, scoped to its unit
  (:mod:`repro.sim.events`): an epoch cuts short only that unit's bulk
  reads, so the spread does not push every other unit's reads onto the
  per-event path;
* a slice of the **global migration budget** — one
  ``max_epoch_moves`` pool refilled every epoch window and drained by
  whichever unit's epoch fires next, bounding the catalog-wide
  transfer burst (arXiv:1509.01330's migration-cost concern) without
  per-shard static quotas that would strand budget on idle shards.

Degenerate case: one shard, singleton groups, ``epoch_stagger = 0`` and
no budget is *bitwise identical* to creating each object directly with
``ReplicatedStore.create_object`` — same unit keys, same RNG streams,
same epoch schedule (``tests/integration/test_catalog_equivalence.py``).
Because epoch phases, unit creation order and the budget-drain order
are all derived from unit keys — never from the shard layout — results
are also bitwise-invariant to the shard count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro import obs
from repro.catalog.groups import PlacementGroups
from repro.catalog.ring import DEFAULT_VNODES, HashRing
from repro.core.controller import ControllerConfig, EpochReport
from repro.core.migration import MigrationCostModel, MigrationPolicy
from repro.sim.process import PeriodicProcess
from repro.store.kvstore import ReplicatedStore

__all__ = ["CatalogShard", "MigrationBudget", "ShardedCatalog"]


@dataclass
class CatalogShard:
    """One shard's control-plane slice and running totals."""

    index: int
    home: int                       # node id of the home coordinator
    unit_keys: list[str] = field(default_factory=list)
    n_keys: int = 0
    epochs: int = 0
    moves: int = 0

    @property
    def n_units(self) -> int:
        return len(self.unit_keys)


class MigrationBudget:
    """A global per-epoch-window pool of replica moves.

    The window index is ``now // window_ms``; entering a new window
    refills the pool.  Units drain it in epoch-firing order — which is
    key-derived, hence shard-count-invariant — so the budget is
    work-conserving: a quiet shard's unused allowance is available to
    whichever unit fires next, anywhere in the catalog.
    """

    def __init__(self, limit: int, window_ms: float) -> None:
        if limit < 0:
            raise ValueError("migration budget must be non-negative")
        if window_ms <= 0:
            raise ValueError("budget window must be positive")
        self.limit = int(limit)
        self.window_ms = float(window_ms)
        self.total_granted = 0
        self._window: int | None = None
        self._spent = 0

    def _roll(self, now: float) -> None:
        window = int(now // self.window_ms)
        if window != self._window:
            self._window = window
            self._spent = 0

    def remaining(self, now: float) -> int:
        """Moves still available in the window containing ``now``."""
        self._roll(now)
        return max(self.limit - self._spent, 0)

    def charge(self, now: float, moves: int) -> None:
        """Record ``moves`` adopted new sites against the window."""
        self._roll(now)
        self._spent += int(moves)
        self.total_granted += int(moves)


class ShardedCatalog:
    """A consistent-hash-sharded catalog of placement units.

    Parameters
    ----------
    store:
        The (empty slice of a) :class:`ReplicatedStore` the catalog
        populates; one catalog per store.
    keys:
        The member keys to create.  Enumeration order is irrelevant —
        units are created in sorted group-key order, which pins the
        shared ``"initial-placement"`` RNG stream and the epoch
        scheduling order regardless of how the caller enumerates keys.
    groups:
        A :class:`~repro.catalog.groups.PlacementGroups` partition of
        exactly these keys; default one singleton group per key.
    n_shards / vnodes:
        Ring geometry (see :class:`~repro.catalog.ring.HashRing`).
    k / size_gb / read_size_bytes / controller_config / cost_model /
    policy:
        Per-unit creation parameters, as in
        :meth:`ReplicatedStore.create_object`.
    epoch_period_ms:
        Period of every unit's placement epoch (``None`` = no epochs).
    epoch_stagger:
        Fraction of the period (``0..1``) over which per-unit epoch
        phases spread.  ``0`` fires every unit's epoch at the period
        boundary (the single-object schedule); ``1`` spreads them
        uniformly by key hash.
    max_epoch_moves:
        Optional *global* per-window migration budget (requires
        ``epoch_period_ms``); see :class:`MigrationBudget`.
    """

    def __init__(self, store: ReplicatedStore, keys: Sequence[str], *,
                 n_shards: int = 1,
                 groups: PlacementGroups | None = None,
                 k: int = 3, size_gb: float = 1.0,
                 read_size_bytes: int = 64 * 1024,
                 controller_config: ControllerConfig | None = None,
                 cost_model: MigrationCostModel | None = None,
                 policy: MigrationPolicy | None = None,
                 epoch_period_ms: float | None = None,
                 epoch_stagger: float = 0.0,
                 max_epoch_moves: int | None = None,
                 vnodes: int = DEFAULT_VNODES) -> None:
        keys = tuple(str(key) for key in keys)
        if not keys:
            raise ValueError("a catalog needs at least one key")
        if len(set(keys)) != len(keys):
            raise ValueError("catalog keys must be distinct")
        if not 0.0 <= epoch_stagger <= 1.0:
            raise ValueError("epoch stagger must lie in [0, 1]")
        if max_epoch_moves is not None and epoch_period_ms is None:
            raise ValueError("a migration budget needs an epoch period")
        self.store = store
        self.groups = groups or PlacementGroups.singletons(keys)
        if set(self.groups.keys) != set(keys):
            raise ValueError("groups must partition exactly the catalog keys")
        self.ring = HashRing(n_shards, vnodes)
        self.epoch_period_ms = epoch_period_ms
        self.epoch_stagger = float(epoch_stagger)
        self.budget = (MigrationBudget(max_epoch_moves, epoch_period_ms)
                       if max_epoch_moves is not None else None)
        self.shards = [
            CatalogShard(index=s,
                         home=store.candidates[s % len(store.candidates)])
            for s in range(self.ring.n_shards)
        ]
        self._shard_of_unit: dict[str, CatalogShard] = {}
        self._processes: list[PeriodicProcess] = []

        # Sorted group order pins (a) the shared "initial-placement" RNG
        # stream consumption and (b) same-instant epoch scheduling order
        # to the keyspace alone — both invariant to the shard count.
        for group_key in self.groups.group_keys:
            members = self.groups.members(group_key)
            shard = self.shards[self.ring.shard_of(group_key)]
            if members == (group_key,):
                store.create_object(
                    group_key, size_gb=size_gb, k=k,
                    read_size_bytes=read_size_bytes,
                    controller_config=controller_config,
                    cost_model=cost_model, policy=policy,
                    home_coordinator=shard.home)
            else:
                store.create_group(
                    group_key, {member: size_gb for member in members},
                    k=k, read_size_bytes=read_size_bytes,
                    controller_config=controller_config,
                    cost_model=cost_model, policy=policy,
                    home_coordinator=shard.home)
            shard.unit_keys.append(group_key)
            shard.n_keys += len(members)
            self._shard_of_unit[group_key] = shard
            if epoch_period_ms is not None:
                phase = self.ring.unit_phase(group_key) * self.epoch_stagger
                self._processes.append(store.start_epoch_clock(
                    group_key, epoch_period_ms,
                    lambda _unit=group_key: self.run_unit_epoch(_unit),
                    start_after=epoch_period_ms * (1.0 + phase)))

        registry = obs.get_registry()
        if registry.enabled:
            for shard in self.shards:
                label = f"catalog.shard{shard.index:02d}"
                registry.gauge(f"{label}.keys").set(shard.n_keys)
                registry.gauge(f"{label}.groups").set(shard.n_units)

    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return self.ring.n_shards

    @property
    def n_keys(self) -> int:
        return self.groups.n_keys

    @property
    def n_groups(self) -> int:
        return self.groups.n_groups

    def keys(self) -> tuple[str, ...]:
        """Every member key, in canonical sorted order.

        The canonical order is what workloads should enumerate — it
        makes trace generation independent of construction details.
        """
        return self.groups.keys

    def unit_keys(self) -> tuple[str, ...]:
        """All unit (group) keys in creation order (sorted)."""
        return self.groups.group_keys

    def shard_of_key(self, key: str) -> int:
        """Shard index serving ``key`` (via its group)."""
        return self.ring.shard_of(self.groups.group_of(key))

    def shard_coordinator(self, shard: int) -> int:
        """The home-coordinator node id of a shard."""
        return self.shards[shard].home

    def shard_failovers(self, shard: int) -> int:
        """Coordinator failovers observed across a shard's units."""
        return sum(self.store.controller(unit).failovers
                   for unit in self.shards[shard].unit_keys)

    def stop(self) -> None:
        """Stop every unit's epoch clock."""
        for process in self._processes:
            process.stop()

    # ------------------------------------------------------------------
    def run_unit_epoch(self, unit_key: str) -> EpochReport:
        """One budget-aware placement epoch for one unit."""
        shard = self._shard_of_unit[unit_key]
        now = self.store.sim.now
        max_moves = (self.budget.remaining(now)
                     if self.budget is not None else None)
        registry = obs.get_registry()
        label = f"catalog.shard{shard.index:02d}"
        with registry.phase(f"{label}.epoch"):
            report = self.store.run_epoch(unit_key, max_moves=max_moves)
        shard.epochs += 1
        moves = 0
        if report.migrated:
            moves = len(set(report.proposed_sites)
                        - set(report.previous_sites))
        if moves:
            shard.moves += moves
            if self.budget is not None:
                self.budget.charge(now, moves)
        if registry.enabled:
            registry.counter(f"{label}.epochs").inc()
            if moves:
                registry.counter(f"{label}.moves").inc(moves)
        return report

    # ------------------------------------------------------------------
    def shard_stats(self) -> list[dict]:
        """Per-shard counters (keys, groups, epochs, moves, failovers)."""
        return [
            {
                "shard": shard.index,
                "home": shard.home,
                "groups": shard.n_units,
                "keys": shard.n_keys,
                "epochs": shard.epochs,
                "moves": shard.moves,
                "failovers": self.shard_failovers(shard.index),
            }
            for shard in self.shards
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ShardedCatalog(n_keys={self.n_keys}, "
                f"n_groups={self.n_groups}, n_shards={self.n_shards})")
