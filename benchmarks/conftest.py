"""Shared configuration for the benchmark harness.

``pytest benchmarks/ --benchmark-only`` regenerates every table and
figure of the paper at full scale (226 nodes, 30 runs per point — the
paper's setting) and prints each one as a text table.  The
pytest-benchmark timings attached to each module measure the
representative computational kernel of that experiment.
"""

import os
import platform

import numpy as np
import pytest

from repro import EvaluationSetting


#: The paper's full evaluation setting (Section IV-A).
FULL_SETTING = EvaluationSetting(n_nodes=226, n_runs=30,
                                 coord_system="rnp", seed=0)


@pytest.fixture(scope="session")
def full_setting():
    return FULL_SETTING


@pytest.fixture(scope="session")
def evaluation_world():
    """(matrix, planar coords, heights) for the full 226-node setting."""
    return FULL_SETTING.build()


def print_result(capsys, text: str) -> None:
    """Print a result table so it lands in the benchmark output."""
    with capsys.disabled():
        print("\n" + text + "\n")


def host_stamp() -> dict:
    """CPU model, CPU count, Python and numpy: what a timing ran on."""
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu_model": model, "cpu_count": os.cpu_count() or 1,
            "python": platform.python_version(), "numpy": np.__version__}
