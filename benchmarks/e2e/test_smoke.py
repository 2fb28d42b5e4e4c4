"""Smoke test of the end-to-end benchmark's plumbing.

Outside tier-1 (``testpaths = ["tests"]``); run it with::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_smoke.py -m bench

It drives ``run.py --smoke`` (every workload at a few percent of its
size on a 40-node world) and checks the shape of what comes out, not
the numbers.
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import trace as layer_trace  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
SPEC = run.load_spec()


@pytest.mark.bench
def test_benchmark_json_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert len(SPEC["workloads"]) <= 8
    assert len(SPEC["end_to_end"]) <= 16
    assert len(SPEC["per_layer"]) <= 128
    names = [entry["name"] for kind in ("workloads", "end_to_end", "per_layer")
             for entry in SPEC[kind]]
    assert len(set(names)) == len(names)
    assert all(NAME.match(name) for name in names)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= \
        next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s").items()
    assert "trace.unattributed_share" in names
    assert layer_trace.EXACT_COUNTS <= set(names)


@pytest.mark.bench
def test_smoke_run_writes_every_metric(tmp_path):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke",
         "--seed", "1", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads((tmp_path / "result.json").read_text())
    assert result["schema"] == run.SCHEMA
    assert result["claim"] is None
    assert result["profile"] == "smoke"
    assert {"nproc", "cpu_model", "python", "numpy", "scipy"} <= \
        set(result["host"])
    assert {"sha", "dirty"} == set(result["git"])
    assert list(result["workloads"]) == list(workloads.WORKLOADS)
    for name, record in result["workloads"].items():
        assert list(record["end_to_end"]) == \
            [m["name"] for m in SPEC["end_to_end"]]
        assert list(record["per_layer"]) == \
            [m["name"] for m in SPEC["per_layer"]]
        assert record["correct"], record["problems"]
        assert record["ops"] >= 1 and record["failed"] == 0
        assert all(entry["value"] > 0
                   for entry in record["end_to_end"].values()), name
        assert 0 <= record["per_layer"]["trace.unattributed_share"]["value"] < 1
        assert record["per_layer"]["trace.overhead_ratio"]["value"] > 0
        assert len(record["load_1min"]) == 2 and "noisy" in record
        assert (tmp_path / f"trace-{name}.json").exists()
        for metric in list(record["end_to_end"]) + list(record["per_layer"]):
            assert f"{name}  {metric} = " in done.stdout


@pytest.mark.bench
def test_untraced_run_wraps_nothing():
    import repro.catalog  # noqa: F401  (so every target module is loaded)
    import repro.chaos  # noqa: F401
    sites = layer_trace.wrap_sites()
    assert len(sites) > len(layer_trace.TARGETS)    # re-exports are found

    record = run.measure("store_queued_mixed", seed=1, profile="smoke",
                         seconds=0, repeats=1, traced=False)
    assert record["correct"]
    assert all(getattr(owner, attr) is original
               for owner, attr, original, _target in sites)

    # A traced run puts every original back when it is done.
    record = run.measure("store_queued_mixed", seed=1, profile="smoke",
                         seconds=0, repeats=1, traced=True)
    assert record["correct"]
    assert record["per_layer"]["store.rank_calls"]["value"] > 0
    assert all(getattr(owner, attr) is original
               for owner, attr, original, _target in sites)


@pytest.mark.bench
def test_reference_backend_is_refused():
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke",
         "--workload", "paper_sweep", "--trace", "0"],
        env={**os.environ, "REPRO_KERNEL_BACKEND": "python"},
        capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "REPRO_KERNEL_BACKEND" in done.stderr
    assert not done.stdout.strip()      # no result line
