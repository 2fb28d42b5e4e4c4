"""Chaos harness: declarative fault scenarios against the live stack.

The paper defers data availability under failures to future work; this
package measures it.  A :class:`~repro.chaos.scenario.ChaosScenario`
(a small TOML/JSON file, mirroring :mod:`repro.runner.sweep`) describes
a live store run plus a schedule of faults — crashes, network
partitions, flaky links, a coordinator assassination — and
:func:`~repro.chaos.harness.run_chaos` executes it paired with a
failure-free baseline of the same world, through the parallel runner.
The headline number is the latency ratio: how much the faults cost the
control loop (coordinator failover, migration retry/rollback, degraded
epochs) compared to fair weather.  :func:`~repro.chaos.harness.catalog_grid`
runs a catalog scenario's fault-free arm over a grid of keyspace sizes
and shard counts (``repro catalog``).

See ``docs/chaos.md`` for the scenario format and the failover
protocol, and ``examples/chaos/`` for ready-to-run scenarios.
"""

from repro.chaos.harness import (
    ChaosRunResult,
    ChaosRunSpec,
    catalog_grid,
    chaos_summary_json,
    format_chaos,
    format_grid,
    run_chaos,
    run_scenario,
)
from repro.chaos.scenario import ChaosScenario, FaultSpec, load_scenario

__all__ = [
    "ChaosRunResult",
    "ChaosRunSpec",
    "ChaosScenario",
    "FaultSpec",
    "catalog_grid",
    "chaos_summary_json",
    "format_chaos",
    "format_grid",
    "load_scenario",
    "run_chaos",
    "run_scenario",
]
