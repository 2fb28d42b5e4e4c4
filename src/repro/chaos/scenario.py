"""Declarative chaos scenarios: a TOML/JSON file in, a fault plan out.

A scenario file names the world, the workload, the store's resilience
knobs and a schedule of faults::

    name = "smoke"
    seed = 7
    runs = 2

    [world]
    n_nodes = 40                  # emulated nodes
    n_dc = 8                      # candidate data centers

    [object]
    k = 3
    epoch_period_ms = 10_000.0

    [workload]
    rate_per_second = 120.0
    duration_ms = 60_000.0

    [store]                       # resilience knobs (all optional)
    read_timeout_ms = 600.0
    auto_repair = true

    [retry]                       # RetryPolicy overrides (optional)
    timeout_ms = 2_000.0
    max_attempts = 3

    [[faults]]
    kind = "crash"                # crash | partition | flaky-link |
    at = 20_000.0                 #   crash-coordinator
    node = 2                      # candidate *position*, not a node id
    until = 35_000.0              # optional auto-repair time

Fault node references are positions into the candidate list (the
scenario cannot know which node ids a seeded run draws).  ``partition``
takes ``group_a`` (and optional ``group_b``, default: the remaining
candidates); ``flaky-link`` takes ``a``/``b``/``loss``/``symmetric``;
``crash-coordinator`` needs no node — it kills whatever node the
failover protocol currently ranks as coordinator when it fires.

With a ``[domains]`` section the candidates are annotated with a
region → DC → rack failure-domain tree (:mod:`repro.net.domains`)::

    [domains]
    regions = 2                   # > 0 enables the model
    dcs_per_region = 2
    racks_per_dc = 2
    p_region = 0.02               # per-level outage probabilities of
    p_dc = 0.05                   #   the co-failure *model* the placer
    p_rack = 0.10                 #   optimizes against
    p_node = 0.02

    [[faults]]
    kind = "domain-outage"        # crash every member of one domain
    at = 30_000.0
    domain = "densest-rack"       # or "rack:3", "dc:0", "region:1"
    until = 45_000.0

With a ``[catalog]`` section the run drives a sharded multi-key catalog
(:mod:`repro.catalog`) instead of the classic single object::

    [catalog]
    n_keys = 200                  # > 0 enables catalog mode
    n_shards = 4                  # consistent-hash ring shards
    keys_per_group = 10           # fold consecutive keys into groups
    epoch_stagger = 1.0           # spread per-unit epoch phases

    [[faults]]
    kind = "crash-shard-coordinator"
    at = 20_000.0
    shard = 1                     # kill shard 1's elected coordinator
    until = 40_000.0

In catalog mode ``max_epoch_moves`` (in ``[object]``) becomes the
catalog's *global* per-window migration budget, drained across shards
in epoch-firing order.

With a ``[queueing]`` section servers stop answering instantly: reads
occupy their server for a sampled service time and wait FIFO behind
earlier admitted work (:mod:`repro.store.queueing`); a ``[selection]``
section swaps the client routing policy
(:mod:`repro.store.selection`)::

    [queueing]
    service_model = "deterministic"   # none | deterministic | lognormal
    service_ms = 2.0                  # constant, or lognormal median
    service_sigma = 0.5               # lognormal log-space std dev
    queue_capacity = 64               # optional bound; beyond = rejected

    [selection]
    strategy = "least-pending"        # nearest | least-pending | c3

``availability_lambda`` (in ``[object]``) prices co-failure risk into
the placement objective; ``hotspot_exponent`` / ``hotspot_anchor`` (in
``[workload]``) skew the client population toward one candidate so a
latency-only placement has a blast radius worth measuring.  A
``"densest-<level>"`` outage resolves its victim domain *when it
fires*: the domain of that level holding the most installed replicas.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Any

from repro.core.migration import RetryPolicy
from repro.net.domains import LEVELS, FailureDomains
from repro.store.queueing import QueueingConfig
from repro.store.selection import STRATEGIES

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.net.latency import LatencyMatrix

__all__ = ["FaultSpec", "ChaosScenario", "load_scenario", "FAULT_KINDS"]

#: Fault kind -> required entry fields (beyond ``kind`` and ``at``).
FAULT_KINDS: dict[str, tuple[str, ...]] = {
    "crash": ("node",),
    "partition": ("group_a",),
    "flaky-link": ("a", "b", "loss"),
    "crash-coordinator": (),
    "crash-shard-coordinator": ("shard",),
    "domain-outage": ("domain",),
}

#: Optional entry fields accepted per kind.
_OPTIONAL: dict[str, tuple[str, ...]] = {
    "crash": ("until",),
    "partition": ("group_b", "until"),
    "flaky-link": ("symmetric", "until"),
    "crash-coordinator": ("until",),
    "crash-shard-coordinator": ("until",),
    "domain-outage": ("until",),
}


def _parse_domain_spec(spec: str) -> tuple[str, str, int | None]:
    """Split a fault's domain spec into (mode, level, id).

    ``"densest-rack"`` -> ``("densest", "rack", None)``;
    ``"rack:3"`` -> ``("explicit", "rack", 3)``.  Raises on anything
    else.
    """
    if spec.startswith("densest-"):
        level = spec[len("densest-"):]
        if level not in LEVELS:
            raise ValueError(f"unknown domain level in {spec!r}; "
                             f"known: {LEVELS}")
        return "densest", level, None
    level, sep, raw = spec.partition(":")
    if not sep or level not in LEVELS:
        raise ValueError(
            f"bad domain spec {spec!r}; use 'densest-<level>' or "
            f"'<level>:<id>' with level in {LEVELS}")
    try:
        domain_id = int(raw)
    except ValueError:
        raise ValueError(f"bad domain id in {spec!r}") from None
    if domain_id < 0:
        raise ValueError(f"domain id in {spec!r} must be non-negative")
    return "explicit", level, domain_id


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault.  Node references are candidate positions."""

    kind: str
    at: float
    node: int | None = None
    group_a: tuple[int, ...] = ()
    group_b: tuple[int, ...] = ()
    a: int | None = None
    b: int | None = None
    loss: float | None = None
    symmetric: bool = False
    until: float | None = None
    domain: str | None = None
    shard: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"known: {sorted(FAULT_KINDS)}")
        if self.at < 0:
            raise ValueError("fault time must be non-negative")
        if self.until is not None and self.until <= self.at:
            raise ValueError("fault 'until' must come after 'at'")
        if self.kind == "crash" and self.node is None:
            raise ValueError("crash fault needs a 'node'")
        if self.kind == "partition" and not self.group_a:
            raise ValueError("partition fault needs a non-empty 'group_a'")
        if self.kind == "flaky-link":
            if self.a is None or self.b is None or self.loss is None:
                raise ValueError("flaky-link fault needs 'a', 'b', 'loss'")
            if not 0.0 <= self.loss <= 1.0:
                raise ValueError("link loss must lie in [0, 1]")
        if self.kind == "crash-shard-coordinator":
            if self.shard is None:
                raise ValueError(
                    "crash-shard-coordinator fault needs a 'shard'")
            if self.shard < 0:
                raise ValueError("fault shard must be non-negative")
        if self.kind == "domain-outage":
            if not self.domain:
                raise ValueError("domain-outage fault needs a 'domain'")
            _parse_domain_spec(self.domain)  # format check; bounds are
            # the scenario's job — it knows the domain-tree shape.


@dataclass(frozen=True)
class ChaosScenario:
    """One chaos experiment: world + workload + fault schedule."""

    name: str = "chaos"
    seed: int = 0
    runs: int = 1
    # World
    n_nodes: int = 40
    n_dc: int = 8
    coord_system: str = "rnp"
    # Object / control loop
    k: int = 3
    epoch_period_ms: float = 10_000.0
    max_micro_clusters: int = 10
    min_relative_gain: float = 0.02
    availability_lambda: float = 0.0
    max_epoch_moves: int | None = None
    # Sharded catalog ([catalog] section; n_keys == 0 keeps the classic
    # single-object scenario).  ``max_epoch_moves`` becomes the catalog's
    # *global* per-window migration budget in catalog mode.
    n_keys: int = 0
    n_shards: int = 1
    keys_per_group: int = 1
    epoch_stagger: float = 0.0
    # Failure domains (regions == 0 disables the model)
    regions: int = 0
    dcs_per_region: int = 1
    racks_per_dc: int = 1
    p_region: float = 0.0
    p_dc: float = 0.0
    p_rack: float = 0.0
    p_node: float = 0.0
    # Workload
    rate_per_second: float = 120.0
    duration_ms: float = 60_000.0
    settle_ms: float = 5_000.0
    hotspot_exponent: float = 0.0
    hotspot_anchor: int = 0
    # Store resilience knobs
    read_timeout_ms: float | None = 600.0
    max_read_attempts: int = 3
    auto_repair: bool = True
    repair_period_ms: float = 2_000.0
    retry: RetryPolicy | None = field(default_factory=RetryPolicy)
    # Server queueing ([queueing]; "none" with no capacity keeps the
    # uncontended store) and client selection ([selection]).
    service_model: str = "none"
    service_ms: float = 0.0
    service_sigma: float = 0.5
    queue_capacity: int | None = None
    strategy: str = "nearest"
    # Faults
    faults: tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        if self.runs < 1:
            raise ValueError("a scenario needs at least one run")
        if not 2 <= self.n_dc <= self.n_nodes:
            raise ValueError("need 2 <= n_dc <= n_nodes")
        if not 1 <= self.k <= self.n_dc:
            raise ValueError("need 1 <= k <= n_dc")
        # Written so that NaN fails every range check.
        for name in ("duration_ms", "epoch_period_ms"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, "
                                 f"got {getattr(self, name)!r}")
        if not self.settle_ms >= 0:
            raise ValueError("settle_ms must be non-negative, "
                             f"got {self.settle_ms!r}")
        if self.regions < 0:
            raise ValueError("regions must be non-negative")
        if self.regions > 0:
            if self.dcs_per_region < 1 or self.racks_per_dc < 1:
                raise ValueError("domain counts must be positive")
            racks = self.regions * self.dcs_per_region * self.racks_per_dc
            if racks > self.n_dc:
                raise ValueError(f"{racks} racks for {self.n_dc} candidates "
                                 "— every rack needs at least one")
            for name in ("p_region", "p_dc", "p_rack", "p_node"):
                if not 0.0 <= getattr(self, name) < 1.0:
                    raise ValueError(f"{name} must lie in [0, 1)")
        if not self.availability_lambda >= 0:
            raise ValueError("availability_lambda must be non-negative, "
                             f"got {self.availability_lambda!r}")
        if self.availability_lambda > 0 and self.regions == 0:
            raise ValueError("availability_lambda > 0 needs a [domains] "
                             "section with regions > 0")
        if self.max_epoch_moves is not None and self.max_epoch_moves < 1:
            raise ValueError("max_epoch_moves must be at least 1")
        if self.n_keys < 0:
            raise ValueError("n_keys must be non-negative")
        if self.n_shards < 1:
            raise ValueError("n_shards must be at least 1")
        if self.keys_per_group < 1:
            raise ValueError("keys_per_group must be at least 1")
        if not 0.0 <= self.epoch_stagger <= 1.0:
            raise ValueError("epoch_stagger must lie in [0, 1]")
        if not self.hotspot_exponent >= 0:
            raise ValueError("hotspot_exponent must be non-negative, "
                             f"got {self.hotspot_exponent!r}")
        # Queueing/selection knobs: delegate the detailed validation to
        # the factories so scenario files and direct construction reject
        # identically.
        self.build_queueing()
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown selection strategy "
                             f"{self.strategy!r}; known: {STRATEGIES}")
        if not 0 <= self.hotspot_anchor < self.n_dc:
            raise ValueError(f"hotspot_anchor {self.hotspot_anchor} is not "
                             f"a candidate position (< {self.n_dc})")
        domain_counts = {
            "region": self.regions,
            "dc": self.regions * self.dcs_per_region,
            "rack": self.regions * self.dcs_per_region * self.racks_per_dc,
        }
        horizon = self.duration_ms + self.settle_ms
        for fault in self.faults:
            if fault.at >= horizon:
                raise ValueError(f"fault at {fault.at} ms lies beyond the "
                                 f"run horizon {horizon} ms")
            if fault.kind == "crash-shard-coordinator":
                if self.n_keys == 0:
                    raise ValueError(
                        "crash-shard-coordinator faults need a [catalog] "
                        "section with n_keys > 0")
                if fault.shard >= self.n_shards:
                    raise ValueError(
                        f"fault references shard {fault.shard}, but the "
                        f"scenario has {self.n_shards} shards")
            if fault.kind == "domain-outage":
                if self.regions == 0:
                    raise ValueError("domain-outage faults need a [domains] "
                                     "section with regions > 0")
                mode, level, domain_id = _parse_domain_spec(fault.domain)
                if mode == "explicit" and domain_id >= domain_counts[level]:
                    raise ValueError(
                        f"fault references {fault.domain!r}, but the "
                        f"scenario has {domain_counts[level]} {level}s")
            for position in ((fault.node,) if fault.node is not None else ()) \
                    + fault.group_a + fault.group_b \
                    + tuple(p for p in (fault.a, fault.b) if p is not None):
                if not 0 <= position < self.n_dc:
                    raise ValueError(
                        f"fault references candidate position {position}, "
                        f"but the scenario has {self.n_dc} candidates")

    def build_queueing(self) -> "QueueingConfig | None":
        """Materialize the server-queueing config, or ``None``.

        ``None`` (the ``service_model = "none"``, no-capacity default)
        keeps the store on the certified uncontended path.
        """
        return QueueingConfig.from_params(
            service_model=self.service_model, service_ms=self.service_ms,
            service_sigma=self.service_sigma,
            queue_capacity=self.queue_capacity)

    def build_domains(self, matrix: "LatencyMatrix",
                      candidates: Any) -> FailureDomains | None:
        """Materialize the failure-domain annotation, or ``None``.

        Racks/DCs/regions group mutually-near candidates by the run's
        ground-truth RTTs (the run's matrix and candidate node ids).
        """
        if self.regions == 0:
            return None
        return FailureDomains.from_matrix(
            matrix, candidates, self.regions, self.dcs_per_region,
            self.racks_per_dc, p_region=self.p_region, p_dc=self.p_dc,
            p_rack=self.p_rack, p_node=self.p_node)


def _parse_fault(entry: dict, index: int, source: str) -> FaultSpec:
    if not isinstance(entry, dict):
        raise ValueError(f"{source}: fault #{index} must be a table/object")
    kind = entry.get("kind")
    if not kind:
        raise ValueError(f"{source}: fault #{index} needs a 'kind'")
    if kind not in FAULT_KINDS:
        raise ValueError(f"{source}: fault #{index} has unknown kind "
                         f"{kind!r}; known: {sorted(FAULT_KINDS)}")
    allowed = {"kind", "at", *FAULT_KINDS[kind], *_OPTIONAL[kind]}
    unknown = sorted(set(entry) - allowed)
    if unknown:
        raise ValueError(f"{source}: fault #{index} ({kind}) does not "
                         f"accept {unknown}; allowed: {sorted(allowed)}")
    if "at" not in entry:
        raise ValueError(f"{source}: fault #{index} needs an 'at' time")
    payload = dict(entry)
    for group in ("group_a", "group_b"):
        if group in payload:
            payload[group] = tuple(int(p) for p in payload[group])
    return FaultSpec(**payload)


def _parse_scenario(payload: dict, source: str) -> ChaosScenario:
    if not isinstance(payload, dict):
        raise ValueError(f"{source}: chaos scenario must be a table/object")
    flat: dict[str, Any] = {}
    for key in ("name", "seed", "runs"):
        if key in payload:
            flat[key] = payload[key]
    # The nested tables are flat namespaces over ChaosScenario fields.
    scenario_fields = {f.name for f in fields(ChaosScenario)}
    for section in ("world", "object", "workload", "store", "domains",
                    "catalog", "queueing", "selection"):
        table = payload.get(section, {})
        if section == "workload" and "engine" in table:
            # Retired key: there is one access driver.  Files written
            # for it keep loading; asking for the other one cannot.
            table = dict(table)
            if table.pop("engine") != "batched":
                raise ValueError(
                    f"{source}: [workload] engine was removed — every run "
                    "uses the batched data plane (exact in every regime); "
                    "delete the key")
        unknown = sorted(set(table) - scenario_fields)
        if unknown:
            raise ValueError(f"{source}: unknown [{section}] fields "
                             f"{unknown}")
        flat.update(table)
    retry_table = payload.get("retry", None)
    if retry_table is not None:
        policy_fields = {f.name for f in fields(RetryPolicy)}
        unknown = sorted(set(retry_table) - policy_fields)
        if unknown:
            raise ValueError(f"{source}: unknown [retry] fields {unknown}")
        flat["retry"] = RetryPolicy(**retry_table)
    faults = payload.get("faults", [])
    flat["faults"] = tuple(_parse_fault(entry, i, source)
                           for i, entry in enumerate(faults))
    stray = sorted(set(payload) - {"name", "seed", "runs", "world", "object",
                                   "workload", "store", "domains", "catalog",
                                   "queueing", "selection", "retry",
                                   "faults"})
    if stray:
        raise ValueError(f"{source}: unknown top-level entries {stray}")
    return ChaosScenario(**flat)


def load_scenario(path: str) -> ChaosScenario:
    """Load a chaos scenario from a ``.toml`` or ``.json`` file."""
    extension = os.path.splitext(path)[1].lower()
    if extension == ".toml":
        import tomllib
        with open(path, "rb") as handle:
            payload = tomllib.load(handle)
    elif extension == ".json":
        with open(path) as handle:
            payload = json.load(handle)
    else:
        raise ValueError(f"unsupported chaos scenario format {extension!r} "
                         "(use .toml or .json)")
    return _parse_scenario(payload, path)
