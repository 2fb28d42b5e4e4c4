"""repro.catalog — a sharded multi-object catalog over the store.

The paper places one object, or one object group as a "virtual object"
(Section II-A); this package scales the machinery to catalogs of
thousands-to-millions of keys:

* :mod:`repro.catalog.ring` — consistent-hash key-to-shard mapping
  whose growth stability the property suite certifies;
* :mod:`repro.catalog.groups` — folding similar-access keys into
  placement groups (the paper's Section II-A "virtual object");
* :mod:`repro.catalog.catalog` — :class:`ShardedCatalog`: per-shard
  home coordinators (PR 3 failover), key-staggered epoch clocks and a
  global migration budget.

A chaos scenario with ``n_keys > 0`` runs a catalog on the live store
(:func:`repro.chaos.run_scenario`); ``repro catalog`` sweeps one such
scenario's fault-free arm over keyspace sizes and shard counts
(:func:`repro.chaos.catalog_grid`).  See ``docs/catalog.md``.
"""

from repro.catalog.catalog import CatalogShard, MigrationBudget, ShardedCatalog
from repro.catalog.groups import PlacementGroups, build_groups, keyspace
from repro.catalog.ring import DEFAULT_VNODES, HashRing

__all__ = [
    "CatalogShard",
    "MigrationBudget",
    "ShardedCatalog",
    "PlacementGroups",
    "build_groups",
    "keyspace",
    "HashRing",
    "DEFAULT_VNODES",
]
