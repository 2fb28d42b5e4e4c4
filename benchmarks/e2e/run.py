"""The repo's end-to-end benchmark: five workloads, one command.

Two ways to call it.

The driver's protocol measures one workload in this process and prints
one JSON object as the last line of standard output::

    python3 benchmarks/e2e/run.py --workload store_reads --seed 3 \\
        --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics (median over the timed
passes, tracing off, nothing wrapped); ``--trace 1`` times the same
passes, then adds one traced pass and reports its per-layer metrics.

Without ``--trace`` it is the full run: every selected workload, each in
a fresh subprocess of this file (``--trace 1 --out DIR``), collected
into ``<out>/result.json`` (the file ``compare.py`` takes)::

    python3 benchmarks/e2e/run.py [--workload NAME]... [--seed N]
        [--repeats N] [--smoke] [--out DIR]

Either way every metric is printed by name with its unit and outputs are
checked (``check.py``).  A failed check makes the full run exit non-zero;
under the driver's protocol it is ``"correct": false`` in the JSON line.
See README.md for what each metric means and how to state a claim.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()     # set-up starts with the imports

import argparse
import gc
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SCHEMA = "repro.e2e/v1"
MIN_REPEATS = 3


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def host_stamp() -> dict:
    import numpy
    import scipy
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def git_stamp() -> dict:
    """Commit and dirty flag, or ``unknown`` outside a git checkout."""
    def git(*args):
        return subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                              text=True, check=True).stdout.strip()
    try:
        return {"sha": git("rev-parse", "HEAD"),
                "dirty": bool(git("status", "--porcelain"))}
    except (OSError, subprocess.CalledProcessError):
        return {"sha": "unknown", "dirty": None}


def _cpu_seconds() -> float:
    """User+system CPU of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mib() -> float:
    return sum(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
               ) / 1024.0


def _descendants() -> list[int]:
    """Pids of every live process below this one, from ``/proc``."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                # "pid (comm) state ppid ..."; comm may hold spaces.
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue        # gone between listdir and open
        children.setdefault(int(fields[1]), []).append(int(entry))
    found, frontier = [], [os.getpid()]
    while frontier:
        below = children.get(frontier.pop(), [])
        found += below
        frontier += below
    return found


def stop_children() -> None:
    """Stop every process this one started and wait until each has ended.

    The runner joins its pool workers itself, but the shared-memory world
    of ``sweep_pool`` starts multiprocessing's resource tracker, which
    only ends once this process has closed its pipe — left alone, it
    outlives the benchmark by a moment.  Close the pipe and reap it here;
    then kill and reap whatever else is still below this process.
    """
    import multiprocessing
    from multiprocessing import resource_tracker
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if getattr(tracker, "_fd", None) is not None:
        try:
            tracker._stop()     # closes the pipe, waits for the tracker
        except (AttributeError, OSError):
            pass                # the sweep below ends it instead
    killed = _descendants()
    for pid in killed:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            break               # no child left
    # A killed grandchild is not ours to reap: wait until it is gone.
    deadline = time.monotonic() + 10.0
    while any(os.path.exists(f"/proc/{pid}") for pid in killed):
        if time.monotonic() > deadline:
            raise SystemExit(f"processes still running at exit: {killed}")
        time.sleep(0.01)


# ----------------------------------------------------------------------
# One workload, in this process
# ----------------------------------------------------------------------
def measure(workload: str, seed: int, profile: str, seconds: float,
            repeats: int | None, traced: bool,
            out_dir: str | None = None) -> dict:
    """Set up, warm up, time the passes, check them; return the record."""
    if os.environ.get("REPRO_KERNEL_BACKEND") == "python":
        raise SystemExit("REPRO_KERNEL_BACKEND=python selects the scalar "
                         "reference kernels; the benchmark measures the "
                         "production (numpy) path only")
    load_start = os.getloadavg()[0]
    for path in (os.path.join(ROOT, "src"), HERE):
        if path not in sys.path:
            sys.path.insert(0, path)
    import check
    import workloads
    from repro import obs

    sizes = workloads.PROFILES[profile]
    setup, run_pass = workloads.WORKLOADS[workload]
    size = sizes[workload]
    context = setup(seed, sizes["n_nodes"], size)
    # Warm-up: a pass at smoke size triggers the lazy imports and fills
    # the allocator before anything is timed.
    run_pass(context, workloads.PROFILES["smoke"][workload])
    setup_s = time.perf_counter() - _PROCESS_START

    walls, cpus, passes = [], [], []
    deadline = time.perf_counter() + seconds
    while len(walls) < (repeats or MIN_REPEATS) or (
            repeats is None and time.perf_counter() < deadline):
        gc.collect()
        cpu_before, start = _cpu_seconds(), time.perf_counter()
        passes.append(run_pass(context, size))
        walls.append(time.perf_counter() - start)
        cpus.append(_cpu_seconds() - cpu_before)
    first = passes[0]
    end_to_end = {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": _peak_rss_mib(),
    }

    problems = check.check_invariants(workload, first.detail,
                                      statistical=profile == "full")
    digests = {check.digest(p.values) for p in passes}
    if len(digests) != 1:
        problems.append(f"{workload}: repeats of one invocation differ")
    if seed == 0 and profile == "full":
        problems += check.check_golden(workload, first.values)

    # The end-to-end numbers are final here; the traced pass only adds
    # the per-layer set.
    per_layer = None
    if traced:
        import trace
        tracer = trace.LayerTracer()
        registry, _ = obs.enable()
        tracer.install()
        try:
            gc.collect()
            traced_pass = tracer.root(lambda: run_pass(context, size))
        finally:
            tracer.uninstall()
            obs.disable()
        if check.digest(traced_pass.values) not in digests:
            problems.append(f"{workload}: the traced pass changed the results")
        per_layer = trace.per_layer_metrics(
            tracer, registry.snapshot(), traced_pass.detail,
            end_to_end["wall_s"])
        per_layer["sim_delay_mean_ms"] = traced_pass.sim_delay_mean_ms
        per_layer["sim_delay_tail_ms"] = traced_pass.sim_delay_tail_ms
        if out_dir:
            tracer.dump(os.path.join(out_dir, f"trace-{workload}.json"),
                        workload=workload, seed=seed, profile=profile)

    spec = load_spec()

    def with_units(values, declared):
        return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                for m in declared}

    return {
        "workload": workload, "seed": seed, "profile": profile,
        "sizes": size, "host": host_stamp(),
        "load_1min": [load_start, os.getloadavg()[0]],
        # A run that starts on a busy host is flagged, not silently kept.
        "noisy": load_start > 0.5 * (os.cpu_count() or 1),
        "repeats": len(walls),
        "samples": {"wall_s": walls, "cpu_s": cpus},
        "ops": first.ops, "failed": first.failed,
        "fail_ratio": first.failed / first.ops,
        "us_per_op": 1e6 * end_to_end["wall_s"] / first.ops,
        "sim_delay_mean_ms": first.sim_delay_mean_ms,
        "sim_delay_tail_ms": first.sim_delay_tail_ms,
        "end_to_end": with_units(end_to_end, spec["end_to_end"]),
        "per_layer": (with_units(per_layer, spec["per_layer"])
                      if traced else None),
        "values": first.values,
        "problems": problems,
        "correct": not problems,
    }


def report(record: dict) -> None:
    """Print every metric by name with its unit, then the checks."""
    name = record["workload"]
    for kind in ("end_to_end", "per_layer"):
        for metric, entry in (record[kind] or {}).items():
            print(f"{name}  {metric} = {entry['value']:.6g} {entry['unit']}")
    walls = record["samples"]["wall_s"]
    print(f"{name}  ops = {record['ops']}  fail_ratio = "
          f"{record['fail_ratio']:.6g}  us_per_op = {record['us_per_op']:.4g}"
          f"  sim_delay_mean_ms = {record['sim_delay_mean_ms']:.6g}"
          f"  sim_delay_tail_ms = {record['sim_delay_tail_ms']:.6g}")
    print(f"{name}  passes = {record['repeats']} (wall min {min(walls):.4g} s,"
          f" max {max(walls):.4g} s)"
          + ("  NOISY HOST" if record["noisy"] else ""))
    for problem in record["problems"]:
        print(f"{name}  CHECK FAILED: {problem}")


# ----------------------------------------------------------------------
# The full run: every workload in its own subprocess
# ----------------------------------------------------------------------
def run_all(args, names: list[str]) -> int:
    """Each workload in a fresh subprocess of this file (so set-up and
    ``peak_rss_mb`` are per workload): untraced passes, then one traced."""
    os.makedirs(args.out, exist_ok=True)
    result = {"schema": SCHEMA, "claim": None, "seed": args.seed,
              "profile": "smoke" if args.smoke else "full",
              "git": git_stamp(), "host": None, "workloads": {}}
    ok = True
    for name in names:
        command = [sys.executable, os.path.abspath(__file__),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", "1",
                   "--out", args.out]
        if args.repeats is not None:
            command += ["--repeats", str(args.repeats)]
        if args.smoke:
            command.append("--smoke")
        record_path = os.path.join(args.out, f"record-{name}.json")
        if os.path.exists(record_path):
            os.remove(record_path)
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        # The child's last line is the driver's JSON object; the record
        # file carries the same and more.
        print("\n".join(done.stdout.splitlines()[:-1]), flush=True)
        if not os.path.exists(record_path):
            print(f"{name}  RUN FAILED (exit {done.returncode})")
            ok = False
            continue
        with open(record_path) as handle:
            record = json.load(handle)
        os.remove(record_path)
        result["workloads"][name] = record
        result["host"] = record["host"]
        ok = ok and record["correct"]
    path = os.path.join(args.out, "result.json")
    with open(path, "w") as handle:
        json.dump(result, handle, indent=1)
        handle.write("\n")
    print(f"wrote {path}" + ("" if ok else "  (CHECKS FAILED)"))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    known = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=known,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="derives the world, simulator and scenario seeds")
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]),
                        help="keep timing passes for this long (at least "
                             f"{MIN_REPEATS} passes)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="time exactly this many passes instead")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="driver protocol: measure one workload in this "
                             "process, untraced (0) or traced (1)")
    parser.add_argument("--smoke", action="store_true",
                        help="plumbing check at a few percent of the size; "
                             "measures nothing, skips the goldens")
    parser.add_argument("--out", default=None,
                        help="directory for result.json and trace files "
                             "(full run default: benchmarks/e2e/out)")
    args = parser.parse_args(argv)
    if args.repeats is not None and args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if args.smoke and args.repeats is None:
        args.repeats = 2        # enough to see that repeats agree

    if args.trace is None:
        args.out = args.out or os.path.join(HERE, "out")
        return run_all(args, args.workload or known)

    if not args.workload or len(args.workload) != 1:
        parser.error("--trace measures exactly one --workload")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    try:
        record = measure(args.workload[0], args.seed,
                         "smoke" if args.smoke else "full", args.seconds,
                         args.repeats, bool(args.trace), args.out)
    finally:
        stop_children()         # on every path out, a failed run too
    if args.out:
        path = os.path.join(args.out, f"record-{record['workload']}.json")
        with open(path, "w") as handle:
            json.dump(record, handle)
    report(record)
    print(json.dumps({
        "correct": record["correct"], "attempted": record["ops"],
        "failed": record["failed"],
        "metrics": record["per_layer" if args.trace else "end_to_end"]}))
    return 0        # the line above carries the verdict


if __name__ == "__main__":
    sys.exit(main())
