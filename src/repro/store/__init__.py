"""A replicated object store running on the simulator.

This is the storage substrate the paper assumes (in the spirit of
Dynamo / Cassandra / PNUTS, its references [4]-[6]): data objects are
replicated across data-center servers; clients read the closest replica;
and the placement controller gradually migrates replicas to better
sites.  It exercises every piece of the library end-to-end inside the
discrete-event simulator:

* :class:`StorageServer` — holds replicas, answers reads/writes, feeds
  each access into the per-replica micro-cluster summary;
* :class:`StorageClient` — issues reads/writes, choosing a replica by
  network-coordinate prediction (or a true-latency oracle);
* :class:`ReplicatedStore` — wiring: object catalog, routing, access
  metrics;
* :mod:`repro.store.control` — one placement unit and its control loop:
  epochs, summary shipping, retries, migration, repair;
* :mod:`repro.store.consistency` — the paper's stated future work,
  built as an extension: asynchronous update propagation between
  replicas and quorum reads (R out of k);
* :mod:`repro.store.queueing` — per-server service-time models and
  bounded FIFO queues (reads wait behind earlier admitted work);
* :mod:`repro.store.selection` — pluggable client replica-selection
  strategies: ``nearest`` (the paper's, bitwise default),
  ``least-pending``, ``c3``-style rate-adaptive scoring.
"""

from repro.store.objects import AccessRecord, DataObject, AccessLog
from repro.store.kvstore import ReplicatedStore, StorageClient, StorageServer
from repro.store.consistency import ConsistencyConfig, QuorumError
from repro.store.batched import BatchedAccessEngine, BatchedAccessWorkload
from repro.store.queueing import (
    DeterministicService,
    LogNormalService,
    QueueingConfig,
    ServerQueue,
    ServiceModel,
)
from repro.store.selection import (
    C3Selection,
    EwmaTracker,
    LeastPendingSelection,
    NearestSelection,
    SelectionStrategy,
    make_strategy,
)

__all__ = [
    "AccessRecord",
    "AccessLog",
    "DataObject",
    "ReplicatedStore",
    "StorageClient",
    "StorageServer",
    "ConsistencyConfig",
    "QuorumError",
    "BatchedAccessEngine",
    "BatchedAccessWorkload",
    "ServiceModel",
    "DeterministicService",
    "LogNormalService",
    "ServerQueue",
    "QueueingConfig",
    "SelectionStrategy",
    "NearestSelection",
    "LeastPendingSelection",
    "C3Selection",
    "EwmaTracker",
    "make_strategy",
]
