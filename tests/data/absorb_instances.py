"""Seeded streams through the block absorb kernel, and their recorded answers.

``record()`` feeds :func:`repro.kernels.cf.absorb_stream` the stream
shapes the repo produces and returns, per call, a SHA-256 digest of the
four CF arrays it returns plus its ``spawned/absorbed/merged`` counts:

* ``grid`` — kind (clustered blobs, ×3 repeats, all distinct, lattice
  ties) × d ∈ {2, 3, 5} × m ∈ ``BUDGETS`` × empty or carried start;
* ``online`` — online placement's blocks: each client row repeated
  three times, fresh summaries per round;
* ``store`` — a live store's summary: successive flushes of about 70
  accesses drawn from a few dozen clients, with byte weights, each flush
  starting from the rows the previous one left;
* ``table2`` — Table II's blob streams at m = 100, where no point
  repeats;
* ``letters`` — streams over a few letters (d = 1 … 7) that put
  points exactly, or to the last bit, one deviation from a centroid, or
  equally far from two: the ties a change of summation order or of the
  tie rule would flip.

``absorb_digests.json`` next to this file is that dictionary as recorded
at commit c713eda (the per-point numpy kernel, before the Python-float
one); ``tests/unit/test_absorb_kernel.py`` asserts today's answers equal
it.  Re-record only when a decision is *meant* to move::

    PYTHONPATH=src python tests/data/absorb_instances.py
"""

import hashlib
import json
import os

import numpy as np

from repro.kernels.cf import absorb_stream

DIGESTS = os.path.join(os.path.dirname(__file__), "absorb_digests.json")
KINDS = ("blobs", "repeated", "distinct", "ties")
DIMS = (2, 3, 5)
BUDGETS = (1, 2, 4, 7, 10, 11, 100)
RADIUS_FLOOR = 5.0


def empty_rows(d):
    return np.zeros(0), np.zeros(0), np.zeros((0, d)), np.zeros((0, d))


def make_stream(kind, d, rng):
    """``(points, weights)`` of one of the shapes the repo feeds the kernel."""
    if kind == "blobs":                 # store flushes: clustered clients
        centers = rng.uniform(-200, 200, size=(6, d))
        points = centers[rng.integers(0, 6, size=240)] + rng.normal(
            0, 6, size=(240, d))
    elif kind == "repeated":            # placement.online: each row x 3
        points = np.repeat(rng.uniform(-150, 150, size=(70, d)), 3, axis=0)
    elif kind == "distinct":            # Table II: no point twice
        points = rng.uniform(-300, 300, size=(260, d))
    else:                               # "ties": equally spaced lattice
        points = np.zeros((90, d))
        points[:, 0] = 20.0 * rng.permutation(90)
    return points, rng.uniform(0.25, 4.0, size=len(points))


def carried_rows(d, m, rng):
    """CF rows a previous block left behind (at most ``m`` of them)."""
    points = rng.uniform(-200, 200, size=(3 * m + 5, d))
    rows = absorb_stream(*empty_rows(d), points, np.ones(len(points)),
                         RADIUS_FLOOR, m)
    return rows[:4]


def digest(result):
    """``[sha256 of the four CF arrays, spawned, absorbed, merged]``."""
    sha = hashlib.sha256()
    for array in result[:4]:
        sha.update(repr(array.shape).encode())
        sha.update(np.ascontiguousarray(array, dtype="<f8").tobytes())
    stats = result[4]
    return [sha.hexdigest(), stats["spawned"], stats["absorbed"],
            stats["merged"]]


def grid():
    out = {}
    for kind in KINDS:
        for d in DIMS:
            for carried in (False, True):
                for m in BUDGETS:
                    rng = np.random.default_rng([d, m, carried])
                    points, weights = make_stream(kind, d, rng)
                    start = (carried_rows(d, m, rng) if carried
                             else empty_rows(d))
                    name = (f"{kind}/d{d}/m{m}/"
                            f"{'carried' if carried else 'empty'}")
                    out[name] = digest(absorb_stream(
                        *start, points, weights, RADIUS_FLOOR, m))
    return out


def online():
    out = {}
    for seed in range(12):
        rng = np.random.default_rng(100 + seed)
        d = 2 + seed % 2
        m = (1, 3, 5, 10, 20, 40)[seed % 6]
        clients = rng.uniform(-150, 150, size=(int(rng.integers(20, 80)), d))
        for replica in range(3):
            rows = np.nonzero(rng.integers(0, 3, size=len(clients))
                              == replica)[0]
            block = np.repeat(clients[rows], 3, axis=0)
            out[f"seed{seed}/replica{replica}"] = digest(absorb_stream(
                *empty_rows(d), block, np.ones(len(block)), 10.0, m))
    return out


def store():
    out = {}
    for seed in range(6):
        rng = np.random.default_rng(200 + seed)
        d = 2 + seed % 2
        m = (4, 10, 16)[seed % 3]
        clients = rng.uniform(-120, 120, size=(40, d))
        rows = empty_rows(d)
        for flush in range(10):
            size = int(rng.integers(55, 85))
            points = clients[rng.integers(0, len(clients), size=size)]
            weights = rng.integers(1, 4096, size=size).astype(float)
            result = absorb_stream(*rows, points, weights, RADIUS_FLOOR, m)
            out[f"seed{seed}/flush{flush}"] = digest(result)
            rows = result[:4]
    return out


def table2():
    out = {}
    for n in (300, 1_000, 3_000):
        rng = np.random.default_rng(300 + n)
        centers = rng.uniform(-200, 200, size=(3, 3))
        points = centers[rng.integers(0, 3, size=n)] + rng.normal(
            0, 15, size=(n, 3))
        out[f"n{n}"] = digest(absorb_stream(
            *empty_rows(3), points, np.ones(n), 10.0, 100))
    return out


def letters():
    # Points one deviation from a two-member centroid.  Integer letters
    # tie exactly (every sum is exact).  Real-valued letters, with one
    # or two more letters than the budget m, force merges of different
    # letters, and a repeat then ties up to rounding: the order in which
    # the squared distance is summed decides the side it falls on.
    out = {}
    for seed in range(60):
        rng = np.random.default_rng(400 + seed)
        d, m = 1 + seed % 7, 1 + seed % 12
        alphabet = rng.integers(-30, 30, size=(int(rng.integers(2, 7)), d))
        points = alphabet[rng.integers(0, len(alphabet), size=40)]
        out[f"integer{seed}"] = digest(absorb_stream(
            *empty_rows(d), points.astype(float),
            rng.uniform(0.25, 4.0, size=40), 0.0, m))
    for seed in range(120):
        rng = np.random.default_rng(500 + seed)
        d, m = 3 + seed % 5, 1 + seed % 3
        alphabet = rng.uniform(-100, 100, size=(m + 2, d))
        points = alphabet[rng.integers(0, m + 2, size=30)]
        out[f"real{seed}"] = digest(absorb_stream(
            *empty_rows(d), points, rng.uniform(0.25, 4.0, size=30),
            RADIUS_FLOOR, m))
    # An axis lattice whose spacing is the radius floor: a point between
    # two singletons is as far from both, and the first row must win.
    for seed in range(40):
        rng = np.random.default_rng(700 + seed)
        d, m = 1 + seed % 4, (3, 5, 8, 40)[seed % 4]
        points = np.zeros((30, d))
        points[:, seed % d] = 10.0 * rng.integers(0, 12, size=30)
        out[f"lattice{seed}"] = digest(absorb_stream(
            *empty_rows(d), points, rng.uniform(0.25, 4.0, size=30),
            10.0, m))
    return out


GROUPS = {"grid": grid, "online": online, "store": store,
          "table2": table2, "letters": letters}


def record():
    """Every stream's answer, as JSON-ready values."""
    return {name: group() for name, group in GROUPS.items()}


if __name__ == "__main__":
    with open(DIGESTS, "w") as out:
        json.dump(record(), out, indent=1, sort_keys=True)
        out.write("\n")
