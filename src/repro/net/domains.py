"""Hierarchical failure domains and the co-failure probability model.

The paper's placement objective is pure access latency; nothing stops
it from packing every replica into one blast radius.  Mills et al.
("Algorithms for Optimal Replica Placement Under Correlated Failure in
Hierarchical Failure Domains") model exactly the structure real
deployments have: a tree of failure domains — here region → data
center → rack → node — where each domain fails independently with a
per-level probability and a node is down iff any of its ancestors (or
the node itself) has failed.

:class:`FailureDomains` annotates the *candidate positions* of a store
(indices into its candidate list, the frame every controller decision
uses) with that tree and answers the probability queries the
availability-aware placement needs:

* ``p_down(i)`` — marginal outage probability of one site;
* ``p_pair_down(a, b)`` — probability both sites are down at once, in
  closed form, monotone in the number of shared ancestor levels;
* ``cofailure_risk(sites)`` — mean pairwise co-failure probability of a
  placement, the risk functional the λ-objective penalizes;
* ``prob_all_down(sites)`` — exact probability the placement loses
  *every* replica, by recursion over the domain tree;
* ``expected_survivors(sites)`` — expected number of live replicas.

Per-level probabilities are homogeneous (every rack is as mortal as
every other rack), which keeps the model a four-knob scenario input and
makes ``expected_survivors`` permutation-invariant over equivalent
sites — the property tests pin both facts.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.net.latency import LatencyMatrix

__all__ = ["FailureDomains"]

#: Tree levels, root-most first.  ``shared_depth`` counts how many of
#: these two sites have in common: 0 (different regions) … 3 (same rack).
LEVELS = ("region", "dc", "rack")


def _balanced_sizes(n: int, groups: int) -> list[int]:
    """Split ``n`` items into ``groups`` parts, sizes differing by ≤ 1."""
    base, extra = divmod(n, groups)
    return [base + (1 if g < extra else 0) for g in range(groups)]


def _greedy_groups(items: Sequence[int], n_groups: int,
                   dist: Callable[[int, int], float]) -> list[list[int]]:
    """Deterministic proximity grouping: seed each group with the
    lowest-numbered unassigned item, fill it with the seed's nearest
    unassigned neighbours (ties broken by item id)."""
    unassigned = list(items)
    groups: list[list[int]] = []
    for size in _balanced_sizes(len(unassigned), n_groups):
        seed = unassigned[0]
        rest = sorted(unassigned[1:], key=lambda p: (dist(seed, p), p))
        members = sorted([seed] + rest[:max(size - 1, 0)])
        groups.append(members)
        taken = set(members)
        unassigned = [p for p in unassigned if p not in taken]
    return groups


class FailureDomains:
    """A region → DC → rack failure-domain tree over candidate positions.

    Parameters
    ----------
    region_of / dc_of / rack_of:
        Per-position domain ids, one entry per candidate position.  The
        tree must nest: two positions in the same rack share a DC, two
        in the same DC share a region.
    p_region / p_dc / p_rack / p_node:
        Independent outage probability of one domain at each level
        (homogeneous within a level).  A node is down iff any domain on
        its root path — or the node itself — has failed.
    """

    def __init__(self, region_of: Sequence[int], dc_of: Sequence[int],
                 rack_of: Sequence[int], *, p_region: float = 0.0,
                 p_dc: float = 0.0, p_rack: float = 0.0,
                 p_node: float = 0.0) -> None:
        self.region_of = np.asarray(region_of, dtype=int)
        self.dc_of = np.asarray(dc_of, dtype=int)
        self.rack_of = np.asarray(rack_of, dtype=int)
        n = self.region_of.size
        if n == 0:
            raise ValueError("failure domains need at least one position")
        if self.dc_of.shape != (n,) or self.rack_of.shape != (n,):
            raise ValueError("one region/dc/rack id per position required")
        for level, array in (("region", self.region_of), ("dc", self.dc_of),
                             ("rack", self.rack_of)):
            if np.any(array < 0):
                raise ValueError(f"{level} ids must be non-negative")
        # Nesting: a rack lives in exactly one DC, a DC in one region.
        for child, parent, what in ((self.rack_of, self.dc_of, "rack"),
                                    (self.dc_of, self.region_of, "dc")):
            mapping: dict[int, int] = {}
            for c, p in zip(child.tolist(), parent.tolist()):
                if mapping.setdefault(c, p) != p:
                    raise ValueError(
                        f"{what} {c} spans multiple parent domains")
        for name, p in (("p_region", p_region), ("p_dc", p_dc),
                        ("p_rack", p_rack), ("p_node", p_node)):
            if not 0.0 <= p < 1.0:
                raise ValueError(f"{name} must lie in [0, 1)")
        self.p_region = float(p_region)
        self.p_dc = float(p_dc)
        self.p_rack = float(p_rack)
        self.p_node = float(p_node)
        self._level_of = {"region": self.region_of, "dc": self.dc_of,
                          "rack": self.rack_of}
        #: Survival probability of one node: every level up at once.
        self.p_up = ((1.0 - self.p_region) * (1.0 - self.p_dc)
                     * (1.0 - self.p_rack) * (1.0 - self.p_node))
        # The closed form of p_pair_down for every ordered pair, as nested
        # lists: one value per shared depth, indexed by each pair's depth
        # (p_pair_down answers a == b itself).  shared_up[d] is P(every
        # ancestor a pair at depth d shares is up).
        shared_up = [1.0]
        for level_p in (self.p_region, self.p_dc, self.p_rack):
            shared_up.append(shared_up[-1] * (1.0 - level_p))
        by_depth = np.array([1.0 - 2.0 * self.p_up + self.p_up * self.p_up / q
                             for q in shared_up])
        same = self.region_of[:, None] == self.region_of[None, :]
        depth = same.astype(int)
        for ids in (self.dc_of, self.rack_of):
            same &= ids[:, None] == ids[None, :]
            depth += same
        self._pair_down: list[list[float]] = by_depth[depth].tolist()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def contiguous(cls, n: int, regions: int, dcs_per_region: int,
                   racks_per_dc: int, **probs: float) -> "FailureDomains":
        """Evenly slice ``n`` positions into a balanced domain tree.

        Position blocks are contiguous: positions ``0..`` fill the first
        rack of the first DC of the first region, and so on.
        """
        if n < 1 or regions < 1 or dcs_per_region < 1 or racks_per_dc < 1:
            raise ValueError("domain counts must be positive")
        n_racks = regions * dcs_per_region * racks_per_dc
        if n_racks > n:
            raise ValueError(f"{n_racks} racks for {n} positions — "
                             "every rack needs at least one position")
        rack_of = np.arange(n) * n_racks // n
        dc_of = rack_of // racks_per_dc
        region_of = dc_of // dcs_per_region
        return cls(region_of, dc_of, rack_of, **probs)

    @classmethod
    def from_matrix(cls, matrix: LatencyMatrix, candidates: Sequence[int],
                    regions: int, dcs_per_region: int, racks_per_dc: int,
                    **probs: float) -> "FailureDomains":
        """Proximity tree: mutually close candidates share a rack.

        Racks are built by deterministic greedy grouping on ground-truth
        RTTs (lowest-numbered unassigned candidate seeds a rack, its
        nearest unassigned neighbours fill it); racks then group into
        DCs, and DCs into regions, by the same rule on their seed
        members.  This is the realistic annotation for a wide-area
        world: the co-located candidates — the ones a latency-only
        placement is tempted to pack replicas into — are exactly the
        ones that fail together.
        """
        candidates = [int(c) for c in candidates]
        n = len(candidates)
        n_racks = regions * dcs_per_region * racks_per_dc
        if regions < 1 or dcs_per_region < 1 or racks_per_dc < 1:
            raise ValueError("domain counts must be positive")
        if n_racks > n:
            raise ValueError(f"{n_racks} racks for {n} positions — "
                             "every rack needs at least one position")

        def rtt(a: int, b: int) -> float:
            return float(matrix.latency(candidates[a], candidates[b]))

        racks = _greedy_groups(range(n), n_racks, rtt)
        rack_seed = [members[0] for members in racks]
        dcs = _greedy_groups(range(len(racks)), regions * dcs_per_region,
                             lambda a, b: rtt(rack_seed[a], rack_seed[b]))
        dc_seed = [rack_seed[group[0]] for group in dcs]
        region_groups = _greedy_groups(
            range(len(dcs)), regions,
            lambda a, b: rtt(dc_seed[a], dc_seed[b]))

        rack_of = np.empty(n, dtype=int)
        for rack_id, members in enumerate(racks):
            rack_of[members] = rack_id
        dc_of_rack = np.empty(len(racks), dtype=int)
        for dc_id, group in enumerate(dcs):
            dc_of_rack[group] = dc_id
        region_of_dc = np.empty(len(dcs), dtype=int)
        for region_id, group in enumerate(region_groups):
            region_of_dc[group] = region_id
        dc_of = dc_of_rack[rack_of]
        region_of = region_of_dc[dc_of]
        return cls(region_of, dc_of, rack_of, **probs)

    # ------------------------------------------------------------------
    # Topology queries
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of annotated positions."""
        return self.region_of.size

    def shared_depth(self, a: int, b: int) -> int:
        """Shared ancestor levels of two positions: 0 (different
        regions) … 3 (same rack).  ``shared_depth(a, a)`` is 3."""
        if self.region_of[a] != self.region_of[b]:
            return 0
        if self.dc_of[a] != self.dc_of[b]:
            return 1
        if self.rack_of[a] != self.rack_of[b]:
            return 2
        return 3

    def members(self, level: str, domain_id: int) -> tuple[int, ...]:
        """Positions inside one domain (sorted)."""
        ids = self._level_of.get(level)
        if ids is None:
            raise ValueError(f"unknown level {level!r}; known: {LEVELS}")
        return tuple(int(p) for p in np.flatnonzero(ids == int(domain_id)))

    def resolve(self, spec: str) -> tuple[int, ...]:
        """Positions of a ``"level:id"`` domain spec (e.g. ``"rack:2"``)."""
        level, _, raw = spec.partition(":")
        if level not in LEVELS or not raw:
            raise ValueError(
                f"bad domain spec {spec!r}; use '<level>:<id>' with level "
                f"in {LEVELS}")
        members = self.members(level, int(raw))
        if not members:
            raise ValueError(f"domain {spec!r} has no positions")
        return members

    def densest_members(self, level: str,
                        positions: Sequence[int]) -> tuple[int, ...]:
        """Members of the ``level`` domain holding most of ``positions``.

        Ties break toward the lowest domain id, so the answer is
        deterministic.  With ``positions`` empty the lowest-id domain of
        the level wins (it holds zero of them, like every other).
        """
        ids = self._level_of.get(level)
        if ids is None:
            raise ValueError(f"unknown level {level!r}; known: {LEVELS}")
        counts: dict[int, int] = {}
        for p in positions:
            domain = int(ids[int(p)])
            counts[domain] = counts.get(domain, 0) + 1
        if counts:
            densest = max(sorted(counts), key=lambda d: counts[d])
        else:
            densest = int(ids.min())
        return self.members(level, densest)

    # ------------------------------------------------------------------
    # The co-failure model
    # ------------------------------------------------------------------
    def p_down(self, position: int) -> float:
        """Marginal probability one site is down."""
        if not 0 <= int(position) < self.n:
            raise ValueError(f"position {position} outside {self.n} sites")
        return 1.0 - self.p_up

    def p_pair_down(self, a: int, b: int) -> float:
        """Probability both sites are down at once (closed form).

        With shared-ancestor survival ``q`` and marginal survival
        ``p_up``, inclusion–exclusion over the independent domain
        failures gives ``1 - 2·p_up + p_up²/q``: the more ancestry the
        pair shares, the smaller ``q`` and the larger the joint outage —
        monotone in :meth:`shared_depth`.  The value of every pair is
        tabulated at construction; this reads the table.
        """
        if int(a) == int(b):
            return self.p_down(a)
        return self._pair_down[int(a)][int(b)]

    def cofailure_risk(self, sites: Sequence[int]) -> float:
        """Mean pairwise co-failure probability of a placement.

        The risk functional of the availability objective: it is
        permutation-invariant (pairs are enumerated over the *sorted*
        placement, so even float summation order is canonical), rewards
        domain-disjoint spreading, and — unlike expected survivors,
        which homogeneous per-level probabilities make placement-
        invariant — actually discriminates between placements.
        Placements with fewer than two sites carry zero pairwise risk.
        Each pair's value is a lookup in the table of :meth:`p_pair_down`
        built at construction.

        >>> domains = FailureDomains.contiguous(4, 2, 1, 1, p_region=0.1)
        >>> domains.cofailure_risk([0, 1]) > domains.cofailure_risk([0, 2])
        True
        >>> domains.cofailure_risk([2, 0]) == domains.p_pair_down(0, 2)
        True
        """
        ordered = sorted(int(s) for s in sites)
        if len(ordered) != len(set(ordered)):
            raise ValueError("placement sites must be distinct")
        if len(ordered) < 2:
            return 0.0
        table = self._pair_down
        total = 0.0
        for i, a in enumerate(ordered):
            row = table[a]
            for b in ordered[i + 1:]:
                total += row[b]
        return total / (len(ordered) * (len(ordered) - 1) // 2)

    def expected_survivors(self, sites: Sequence[int]) -> float:
        """Expected number of live replicas of a placement."""
        return sum(1.0 - self.p_down(s) for s in sorted(int(s) for s in sites))

    def prob_all_down(self, sites: Sequence[int]) -> float:
        """Exact probability every replica of a placement is down.

        Recursion over the domain tree: a region's sites are all down if
        the region failed, or it survived and every DC group below lost
        all its sites — and so on down to independent per-node failures
        within a rack.
        """
        ordered = sorted(set(int(s) for s in sites))
        if not ordered:
            raise ValueError("placement must be non-empty")
        by_region: dict[int, list[int]] = {}
        for s in ordered:
            by_region.setdefault(int(self.region_of[s]), []).append(s)
        result = 1.0
        for region in sorted(by_region):
            result *= self._down_below(by_region[region], self.p_region,
                                       (self.dc_of, self.p_dc))
        return result

    def _down_below(self, sites: list[int], p_level: float,
                    child: tuple[np.ndarray, float] | None) -> float:
        """P(all ``sites`` down) for one domain at a level, recursively."""
        if child is None:
            inner = 1.0
            for _ in sites:
                inner *= self.p_node
        else:
            ids, p_child = child
            grand: tuple[np.ndarray, float] | None
            if ids is self.dc_of:
                grand = (self.rack_of, self.p_rack)
            else:
                grand = None
            by_child: dict[int, list[int]] = {}
            for s in sites:
                by_child.setdefault(int(ids[s]), []).append(s)
            inner = 1.0
            for domain in sorted(by_child):
                inner *= self._down_below(by_child[domain], p_child, grand)
        return p_level + (1.0 - p_level) * inner

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"FailureDomains(n={self.n}, "
                f"regions={len(set(self.region_of.tolist()))}, "
                f"dcs={len(set(self.dc_of.tolist()))}, "
                f"racks={len(set(self.rack_of.tolist()))}, "
                f"p=({self.p_region}, {self.p_dc}, {self.p_rack}, "
                f"{self.p_node}))")
