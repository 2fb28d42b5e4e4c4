"""Seeded instances of every placement search, and their recorded answers.

``record()`` runs the five callers of the swap search — ``place_replicas``,
``place_replicas_rw``, ``refine_for_availability``, ``KMedianPlacement``,
``CodedPlacement`` — and two controller epoch sequences through the public
API only, and returns site tuples plus the ``repr`` of every predicted
value.  ``search_digests.json`` next to this file is that dictionary as
recorded at commit 7ac8f8f (before the five loops became
``repro.core.search.swap_descent``); ``tests/unit/test_placement_search.py``
asserts today's answers equal it.  Re-record only when a decision is
*meant* to move::

    PYTHONPATH=src python tests/data/search_instances.py
"""

import json
import os

import numpy as np

from repro.clustering import MicroClusters
from repro.core import (
    ControllerConfig,
    MigrationPolicy,
    ReplicationController,
    place_replicas,
    place_replicas_rw,
)
from repro.net.domains import FailureDomains
from repro.net.planetlab import small_matrix
from repro.placement import (
    CodedPlacement,
    KMedianPlacement,
    PlacementProblem,
    refine_for_availability,
)

DIGESTS = os.path.join(os.path.dirname(__file__), "search_digests.json")
SEEDS = range(20)
PROBS = dict(p_region=0.02, p_dc=0.05, p_rack=0.10, p_node=0.02)


def clusters(rng, n, dim=2, spread=100.0):
    """``n`` micro-clusters of 1-40 accesses around random centres, each
    access added to its cluster's sums in turn."""
    out = MicroClusters.empty(dim)
    for _ in range(n):
        centre = rng.uniform(0.0, spread, dim)
        count, weight = 1, float(rng.integers(1, 9))
        linear, square = centre.copy(), centre ** 2
        for _ in range(int(rng.integers(0, 40))):
            point = centre + rng.normal(0.0, 2.0, dim)
            count += 1
            weight += float(rng.integers(0, 9))
            linear = linear + point
            square = square + point ** 2
        out = MicroClusters.concat([out, MicroClusters(
            [count], [weight], [linear], [square])])
    return out


def _place_replicas(seed):
    rng = np.random.default_rng(seed)
    n_dc = int(rng.integers(6, 15))
    micros = clusters(rng, int(rng.integers(8, 30)))
    dcs = rng.uniform(0.0, 100.0, (n_dc, 2))
    k = int(rng.integers(2, 5))
    total = micros.counts.sum()
    eligible = rng.random(n_dc) < 0.7
    eligible[:2] = True
    variants = {
        "plain": {},
        "heights": dict(dc_heights=rng.uniform(0.0, 20.0, n_dc)),
        "bytes": dict(use_bytes_weight=True),
        "eligible": {},
        "capacities": dict(
            dc_capacities=rng.uniform(0.6, 1.4, n_dc) * total / k),
        "all": dict(dc_heights=rng.uniform(0.0, 20.0, n_dc),
                    dc_capacities=rng.uniform(0.6, 1.4, n_dc) * total / k,
                    use_bytes_weight=True),
    }
    out = {}
    for name, kwargs in variants.items():
        # The "eligible" and "all" answers see only the eligible
        # candidates, as ReplicationController.run_epoch slices them,
        # and report positions among all of them.
        rows = (np.flatnonzero(eligible) if name in ("eligible", "all")
                else np.arange(n_dc))
        kwargs = {key: value if key == "use_bytes_weight" else value[rows]
                  for key, value in kwargs.items()}
        decision = place_replicas(micros, k, dcs[rows],
                                  np.random.default_rng(seed), **kwargs)
        out[name] = [[int(rows[p]) for p in decision.data_centers],
                     repr(decision.predicted_delay)]
    return out


def _place_replicas_rw(seed):
    rng = np.random.default_rng(1000 + seed)
    n_dc = int(rng.integers(6, 13))
    # Many well-separated read clusters: k-means never leaves a macro-
    # cluster empty, so the seeding does not pad (padding is the one
    # decision PR 23 moved on purpose).
    reads = clusters(rng, int(rng.integers(12, 25)))
    writes = clusters(rng, int(rng.integers(0, 10)))
    dcs = rng.uniform(0.0, 100.0, (n_dc, 2))
    heights = rng.uniform(0.0, 10.0, n_dc) if seed % 2 else None
    decision = place_replicas_rw(reads, writes, int(rng.integers(2, 4)), dcs,
                                 np.random.default_rng(seed),
                                 dc_heights=heights)
    assert len(decision.read_macro_clusters) == len(decision.data_centers)
    return [list(decision.data_centers), repr(decision.predicted_cost),
            repr(decision.predicted_read_delay),
            repr(decision.predicted_write_delay)]


def domain_shapes():
    """The failure-domain trees the repo ships, by name."""
    matrix = small_matrix(n=30, seed=3)
    return {
        # tests/unit/test_availability_placement.py
        "unit-6": FailureDomains.contiguous(
            6, regions=1, dcs_per_region=3, racks_per_dc=1,
            p_rack=0.1, p_node=0.02),
        # examples/chaos/dc_outage.toml
        "contiguous-16": FailureDomains.contiguous(16, 2, 2, 2, **PROBS),
        # examples/chaos/{rack,region}_outage.toml
        "proximity-16": FailureDomains.from_matrix(
            matrix, range(16), 2, 2, 2, **PROBS),
        # benchmarks/e2e/catalog_chaos.toml
        "contiguous-20": FailureDomains.contiguous(20, 2, 2, 3, **PROBS),
    }


def _refine_for_availability(seed):
    out = {}
    for name, domains in domain_shapes().items():
        rng = np.random.default_rng(2000 + seed)
        cost = rng.uniform(5.0, 120.0, (12, domains.n))

        def delay_of(positions):
            return float(cost[:, positions].min(axis=1).mean())

        k = 2 if domains.n == 6 else 3
        start = rng.choice(domains.n, size=k, replace=False).tolist()
        eligible = None
        if seed % 2:
            eligible = sorted(set(start)
                              | set(rng.choice(domains.n, domains.n // 2,
                                               replace=False).tolist()))
        lam = float(rng.choice([50.0, 300.0, 1200.0]))
        out[name] = refine_for_availability(start, delay_of, domains, lam,
                                            eligible=eligible)
    return out


def _problem(seed, heights):
    rng = np.random.default_rng(3000 + seed)
    n = 30
    nodes = rng.permutation(n)
    n_candidates = int(rng.integers(6, 12))
    return PlacementProblem(
        small_matrix(n=n, seed=seed % 4),
        candidates=tuple(nodes[:n_candidates]),
        clients=tuple(nodes[n_candidates:]),
        k=int(rng.integers(2, 5)),
        coords=rng.normal(0.0, 60.0, (n, 3)),
        heights=rng.uniform(0.0, 15.0, n) if heights else None)


def _kmedian(seed):
    problem = _problem(seed, heights=bool(seed % 2))
    return list(KMedianPlacement().place(problem,
                                         np.random.default_rng(seed)))


def _coded(seed):
    problem = _problem(seed, heights=bool(seed % 2))
    strategy = CodedPlacement(*((6, 3), (4, 2), (5, 1))[seed % 3])
    return list(strategy.place(problem, np.random.default_rng(seed)))


def new_controller(write_aware):
    """A λ > 0, one-move-capped controller over 16 candidates, the client
    centres that will access it, and the generator driving both."""
    rng = np.random.default_rng(77)
    dcs = rng.uniform(0.0, 100.0, (16, 2))
    controller = ReplicationController(
        dcs, [0, 1, 2],
        ControllerConfig(k=3, max_micro_clusters=10, radius_floor=2.0,
                         write_aware=write_aware, availability_lambda=300.0,
                         max_epoch_moves=1),
        policy=MigrationPolicy(min_relative_gain=0.0,
                               min_absolute_gain_ms=0.0),
        domains=FailureDomains.contiguous(16, 2, 2, 2, **PROBS))
    return controller, rng.uniform(0.0, 100.0, (5, 2)), rng


def feed(controller, centres, rng):
    """One epoch's worth of accesses (30 % writes) at the current sites,
    reported as one block per summary stream, in access order."""
    blocks = {}
    for _ in range(200):
        site = controller.sites[int(rng.integers(len(controller.sites)))]
        point = centres[int(rng.integers(5))] + rng.normal(0.0, 3.0, 2)
        kind = "write" if rng.random() < 0.3 else "read"
        # Without write awareness, writes fold into the read stream.
        stream = kind if controller.config.write_aware else "read"
        blocks.setdefault((site, stream), []).append(point)
    for (site, stream), points in blocks.items():
        controller.record_batch(site, np.array(points), kind=stream)


def _controller(write_aware):
    """Six epochs with a shifting eligible set and drifting clients."""
    controller, centres, rng = new_controller(write_aware)
    out = []
    for epoch in range(6):
        feed(controller, centres, rng)
        kwargs = {}
        if epoch % 2:
            fenced = set(rng.choice(16, 5, replace=False).tolist())
            kwargs["eligible"] = sorted(set(range(16)) - fenced)
        if epoch == 4:
            kwargs["max_moves"] = 2
        report = controller.run_epoch(np.random.default_rng(epoch), **kwargs)
        verdict = report.verdict
        out.append([list(report.previous_sites), list(report.proposed_sites),
                    repr(report.current_predicted_delay),
                    repr(report.proposed_predicted_delay),
                    verdict.migrate, repr(verdict.gain_ms),
                    repr(verdict.relative_gain), repr(verdict.cost_dollars),
                    verdict.reason])
        centres += rng.normal(0.0, 15.0, centres.shape)
    return out


def record():
    """Every instance's answer, as JSON-ready values."""
    return {
        "place_replicas": [_place_replicas(s) for s in SEEDS],
        "place_replicas_rw": [_place_replicas_rw(s) for s in SEEDS],
        "refine_for_availability": [_refine_for_availability(s)
                                    for s in SEEDS],
        "kmedian": [_kmedian(s) for s in SEEDS],
        "coded": [_coded(s) for s in SEEDS],
        "controller_read_only": _controller(write_aware=False),
        "controller_write_aware": _controller(write_aware=True),
    }


if __name__ == "__main__":
    with open(DIGESTS, "w") as out:
        json.dump(record(), out, indent=1, sort_keys=True)
        out.write("\n")
