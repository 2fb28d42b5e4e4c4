"""Acceptance tests for catalog mode in the chaos harness.

The bundled ``shard_failover`` scenario drives a 200-key catalog in
20-key groups across 4 shards, then crashes two shards' coordinators
mid-run.  Acceptance: the run completes with
per-shard failovers recorded, the workload survives, and the final
latency recovers to near the failure-free baseline.
"""

import dataclasses
import os

import pytest

from repro.chaos import load_scenario, run_chaos
from repro.chaos.scenario import ChaosScenario, FaultSpec

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "..",
                        "examples", "chaos")


def bundled(name, **overrides):
    scenario = load_scenario(os.path.join(EXAMPLES, f"{name}.toml"))
    return dataclasses.replace(scenario, **overrides) if overrides \
        else scenario


class TestShardFailoverAcceptance:
    @pytest.fixture(scope="class")
    def summary(self):
        return run_chaos(bundled("shard_failover", runs=1))

    def test_scenario_declares_catalog_mode(self):
        scenario = bundled("shard_failover")
        assert scenario.n_keys == 200
        assert scenario.n_shards == 4
        assert scenario.keys_per_group == 20
        assert {f.kind for f in scenario.faults} == \
            {"crash-shard-coordinator"}

    def test_shard_coordinators_fail_over(self, summary):
        faulty = summary["faulty"]
        assert faulty["crashes"] == 2
        assert faulty["failovers"] > 0
        # Epochs kept firing across the catalog while shards were down.
        assert faulty["epochs"] > 0
        assert summary["baseline"]["failovers"] == 0

    def test_workload_survives(self, summary):
        faulty = summary["faulty"]
        assert faulty["reads_issued"] > 0
        assert faulty["completion_rate"] > 0.9

    def test_final_latency_recovers(self, summary):
        assert summary["latency_ratio"] <= 1.15


class TestCatalogScenarioValidation:
    def test_shard_fault_requires_catalog_section(self):
        with pytest.raises(ValueError, match="n_keys"):
            ChaosScenario(
                name="bad", faults=(
                    FaultSpec(kind="crash-shard-coordinator",
                              at=1_000.0, shard=0),))

    def test_shard_fault_index_bounded(self):
        with pytest.raises(ValueError, match="shard"):
            ChaosScenario(
                name="bad", n_keys=10, n_shards=2, faults=(
                    FaultSpec(kind="crash-shard-coordinator",
                              at=1_000.0, shard=5),))

    def test_shard_fault_needs_shard_field(self):
        with pytest.raises(ValueError, match="shard"):
            FaultSpec(kind="crash-shard-coordinator", at=1_000.0)
