"""Per-server service-time models and bounded FIFO queues.

The paper's data plane is purely RTT-bound: a read's delay is the
round trip to the chosen replica, and a server answers any number of
simultaneous requests instantly.  At the "millions of users" scale the
ROADMAP targets, servers are *queue*-bound — a request that lands on a
busy server waits behind the work already there, and tail latency is
dominated by that waiting, not the network.  This module adds the
server side of that story:

* :class:`ServiceModel` — how long one request occupies the server:
  :class:`DeterministicService` (a constant, the M/D/1 setting) or
  :class:`LogNormalService` (heavy-tailed, seeded from the simulator's
  named ``"service"`` stream so runs stay bit-reproducible).
* :class:`ServerQueue` — one FIFO queue per :class:`StorageServer`:
  work-conserving single-server semantics (Lindley recursion), an
  optional bound on queued-plus-in-service depth, and offered /
  accepted / rejected counters.
* :class:`QueueingConfig` — the store-level knob bundle, with the
  degenerate-case contract the differential suite certifies: a
  configuration whose service time is identically zero and whose queue
  is unbounded is *bitwise identical* to running with no queueing at
  all.

Queues apply to **reads** only.  Writes stay on the uncontended path:
they are rare in every evaluated workload, they are barriers under the
batched engine, and queueing them would entangle the version-bump
ordering that engine's correctness argument leans on.  See
``docs/queueing.md`` for the full model and how the batched data plane
serves it (every arrival escalates to :meth:`ServerQueue.admit`).
"""

from __future__ import annotations

import math
from collections import deque

__all__ = [
    "ServiceModel",
    "DeterministicService",
    "LogNormalService",
    "ServerQueue",
    "QueueingConfig",
    "SERVICE_MODELS",
]

#: Service-model names accepted by :meth:`QueueingConfig.from_params`
#: (scenario files).
SERVICE_MODELS = ("none", "deterministic", "lognormal")

#: Name of the simulator RNG stream stochastic service models draw from.
SERVICE_STREAM = "service"


class ServiceModel:
    """How long one admitted request occupies its server.

    Subclasses implement :meth:`draw`: one sample, consumed at request
    admission in event order.
    """

    #: Whether the model can produce a nonzero service time.  ``False``
    #: keeps the store on the certified zero-service fast path.
    active = True

    def draw(self, sim) -> float:
        raise NotImplementedError


class DeterministicService(ServiceModel):
    """Constant service time (the M/D/1 setting).  Draws no randomness.

    ``DeterministicService(0.0)`` is the degenerate no-queueing case:
    it reports itself inactive, so the store keeps the exact inline
    reply path and the batched engine keeps its certified bulk path.
    """

    def __init__(self, service_ms: float) -> None:
        service_ms = float(service_ms)
        if not math.isfinite(service_ms) or service_ms < 0:
            raise ValueError("service time must be finite and non-negative")
        self.service_ms = service_ms
        self.active = service_ms > 0

    def draw(self, sim) -> float:
        return self.service_ms

    def __repr__(self) -> str:
        return f"DeterministicService({self.service_ms})"


class LogNormalService(ServiceModel):
    """Log-normally distributed service time (heavy-tailed).

    ``median_ms`` is the distribution's median (``exp(mu)``);
    ``sigma`` the log-space standard deviation.  Samples come from the
    simulator's named ``"service"`` stream, so two runs with the same
    seed draw identical service times regardless of telemetry.
    """

    def __init__(self, median_ms: float, sigma: float = 0.5) -> None:
        median_ms = float(median_ms)
        sigma = float(sigma)
        if not math.isfinite(median_ms) or median_ms <= 0:
            raise ValueError("service median must be finite and positive")
        if not math.isfinite(sigma) or sigma < 0:
            raise ValueError("service sigma must be finite and non-negative")
        self.median_ms = median_ms
        self.sigma = sigma
        self._mu = math.log(median_ms)

    def draw(self, sim) -> float:
        return float(sim.rng(SERVICE_STREAM).lognormal(self._mu, self.sigma))

    def __repr__(self) -> str:
        return f"LogNormalService({self.median_ms}, sigma={self.sigma})"


class ServerQueue:
    """Work-conserving FIFO queue state of one storage server.

    The canonical queue state is ``busy_until`` — the instant the
    server finishes everything admitted so far.  An admission at time
    ``now`` with service ``s`` starts at ``max(now, busy_until)`` and
    departs ``s`` later (the scalar Lindley recursion, :meth:`admit`).

    With a depth bound, ``completions`` additionally tracks the
    departure time of every request still queued or in service, so the
    admission-time depth (and hence rejection) is exact.
    """

    __slots__ = ("busy_until", "completions", "offered", "accepted",
                 "rejected")

    def __init__(self) -> None:
        self.busy_until = 0.0
        self.completions: deque[float] = deque()
        self.offered = 0
        self.accepted = 0
        self.rejected = 0

    def depth(self, now: float) -> int:
        """Requests queued or in service at ``now`` (bounded mode only)."""
        completions = self.completions
        while completions and completions[0] <= now:
            completions.popleft()
        return len(completions)

    def admit(self, now: float, service_ms: float,
              capacity: int | None = None) -> float | None:
        """Admit one request; return its departure time, or ``None``.

        ``None`` means the queue was full (``capacity`` requests already
        queued or in service) and the request is rejected — the caller
        drops it, which the client observes exactly like a lost message
        (its read timeout fires, retries run).
        """
        self.offered += 1
        if capacity is not None and self.depth(now) >= capacity:
            self.rejected += 1
            return None
        start = now if now > self.busy_until else self.busy_until
        finish = start + service_ms
        self.busy_until = finish
        self.accepted += 1
        if capacity is not None:
            self.completions.append(finish)
        return finish


class QueueingConfig:
    """Store-level queueing knobs: a service model plus a queue bound.

    Parameters
    ----------
    service:
        A :class:`ServiceModel`, or ``None`` for instantaneous service.
    queue_capacity:
        Maximum requests queued or in service per server; arrivals
        beyond it are rejected (dropped).  ``None`` = unbounded.

    The contract the differential suite pins: ``QueueingConfig()`` —
    and any config whose service time is identically zero with an
    unbounded queue — leaves every observable byte of a run identical
    to passing no config at all.
    """

    def __init__(self, service: ServiceModel | None = None,
                 queue_capacity: int | None = None) -> None:
        if service is not None and not isinstance(service, ServiceModel):
            raise ValueError("service must be a ServiceModel or None")
        if queue_capacity is not None:
            if isinstance(queue_capacity, bool) or \
                    not isinstance(queue_capacity, int):
                raise ValueError("queue capacity must be an integer or None")
            if queue_capacity < 1:
                raise ValueError("queue capacity must be at least 1")
        self.service = service
        self.queue_capacity = queue_capacity

    @property
    def active(self) -> bool:
        """Whether this config can delay or reject any request.

        Inactive configs (zero service, unbounded queue) keep the store
        on the exact no-queueing code path — that equivalence is the
        anchor of the differential certification.
        """
        if self.queue_capacity is not None:
            return True
        return self.service is not None and self.service.active

    def sample_service(self, sim) -> float:
        """One service time (0.0 when no service model is set)."""
        if self.service is None:
            return 0.0
        return self.service.draw(sim)

    @staticmethod
    def from_params(service_model: str = "none", service_ms: float = 0.0,
                    service_sigma: float = 0.5,
                    queue_capacity: int | None = None
                    ) -> "QueueingConfig | None":
        """Build a config from flat knobs (scenario files, CLI, sweeps).

        Returns ``None`` when the knobs describe the unconfigured store
        (``service_model="none"`` and no capacity), so callers can pass
        the result straight to :class:`ReplicatedStore`.
        """
        if service_model not in SERVICE_MODELS:
            raise ValueError(f"unknown service model {service_model!r}; "
                             f"known: {SERVICE_MODELS}")
        if service_model == "none":
            if service_ms:
                raise ValueError("service_ms needs a service model")
            if queue_capacity is None:
                return None
            return QueueingConfig(queue_capacity=queue_capacity)
        if service_model == "deterministic":
            service: ServiceModel = DeterministicService(service_ms)
        else:
            service = LogNormalService(service_ms, service_sigma)
        return QueueingConfig(service=service, queue_capacity=queue_capacity)

    def __repr__(self) -> str:
        return (f"QueueingConfig(service={self.service!r}, "
                f"queue_capacity={self.queue_capacity})")
