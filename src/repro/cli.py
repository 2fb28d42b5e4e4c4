"""Command-line interface: regenerate the paper's evaluation.

Usage::

    python -m repro figure1 [options]      # Figure 1 sweep
    python -m repro figure2 [options]      # Figure 2 sweep (headline)
    python -m repro figure3 [options]      # Figure 3 micro-cluster sweep
    python -m repro table2  [options]      # Table II cost comparison
    python -m repro coords  [options]      # coordinate-system ablation
    python -m repro sweep SPEC [options]   # declarative sweep (JSON/TOML)
    python -m repro chaos SCENARIO [opts]  # chaos run (faults vs baseline)
    python -m repro catalog SCENARIO       # keys x shards grid, fault-free
    python -m repro report  --out FILE     # full Markdown reproduction report
    python -m repro matrix  --out FILE     # dump the synthetic RTT matrix

Common options: ``--nodes`` ``--runs`` ``--coord-system`` ``--seed``
``--candidate-mode`` scale the experiment; ``--csv FILE`` exports the
series next to the printed table; ``--metrics-out FILE`` switches on
the :mod:`repro.obs` observability layer for the run and dumps its
metrics registry (counters, histograms, phase timers) plus a trace
summary as JSON (see ``docs/observability.md``); ``--profile`` wraps
the command in :mod:`cProfile` and prints the hottest cumulative
entries alongside the obs phase timers.  Defaults reproduce the paper's
full-size setting (226 nodes, 30 runs, RNP coordinates).

Every experiment command executes through :mod:`repro.runner` and takes
``--jobs N`` (worker processes; default: one per CPU; ``1`` = serial),
``--cache-dir DIR`` (persist each finished job) and ``--resume`` (load
cached jobs instead of recomputing — an interrupted sweep restarted
with ``--resume`` only runs what is missing).  These three are the
whole runner surface: chunk sizes follow one fixed rule, not a flag.
Results are bit-identical at any ``--jobs`` level; see
``docs/runner.md``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Sequence

from repro import obs
from repro.analysis import (
    EvaluationSetting,
    format_figure,
    format_table2,
    run_coord_ablation,
    run_figure1,
    run_figure2,
    run_figure3,
    run_table2,
)
from repro.analysis.charts import render_chart
from repro.analysis.export import figure_to_csv, metrics_to_json, table2_to_csv
from repro.analysis.reportgen import generate_report
from repro.net import PlanetLabParams, save_matrix, synthetic_planetlab_matrix

__all__ = ["main", "build_parser"]


#: Entries printed by ``--profile`` (cumulative-time order).
_PROFILE_TOP_N = 25


def _add_metrics_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--metrics-out", default=None, metavar="FILE",
                        help="enable observability and write the metrics "
                             "registry (and trace summary) as JSON")
    parser.add_argument("--profile", action="store_true",
                        help="run under cProfile and print the top "
                             f"{_PROFILE_TOP_N} cumulative entries plus the "
                             "obs phase timers after the command")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_runner_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=_positive_int, default=None,
                        metavar="N",
                        help="worker processes for the experiment runner "
                             "(default: one per CPU; 1 = serial)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="persist finished jobs to this result cache")
    parser.add_argument("--resume", action="store_true",
                        help="reuse cached jobs from --cache-dir instead "
                             "of recomputing them")


def _runner_kwargs(args: argparse.Namespace) -> dict:
    if args.resume and not args.cache_dir:
        raise SystemExit("error: --resume requires --cache-dir")
    return {"jobs": args.jobs, "cache_dir": args.cache_dir,
            "resume": args.resume}


def _add_setting_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--nodes", type=int, default=226,
                        help="emulated nodes (paper: 226)")
    parser.add_argument("--runs", type=int, default=30,
                        help="runs per configuration (paper: 30)")
    parser.add_argument("--coord-system", default="rnp",
                        choices=("rnp", "vivaldi", "gnp", "mds"),
                        help="network coordinate system")
    parser.add_argument("--candidate-mode", default="dispersed",
                        choices=("dispersed", "uniform"),
                        help="how candidate data centers are drawn")
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument("--csv", default=None, metavar="FILE",
                        help="also export the result as CSV")
    parser.add_argument("--chart", action="store_true",
                        help="also draw an ASCII chart of the series")
    _add_metrics_arg(parser)
    _add_runner_args(parser)


def _setting(args: argparse.Namespace) -> EvaluationSetting:
    return EvaluationSetting(
        n_nodes=args.nodes, n_runs=args.runs,
        coord_system=args.coord_system,
        candidate_mode=args.candidate_mode, seed=args.seed)


def _emit_figure(result, args: argparse.Namespace) -> int:
    print(format_figure(result))
    if args.chart:
        print()
        print(render_chart(result))
    if args.csv:
        figure_to_csv(result, args.csv)
        print(f"\nwrote {args.csv}")
    return 0


def _figure_command(runner: Callable) -> Callable:
    def command(args: argparse.Namespace) -> int:
        return _emit_figure(runner(_setting(args), **_runner_kwargs(args)),
                            args)
    return command


def _cmd_table2(args: argparse.Namespace) -> int:
    rows = run_table2(n_accesses_list=tuple(args.accesses), k=args.k,
                      m=args.micro_clusters, seed=args.seed,
                      **_runner_kwargs(args))
    print(format_table2(rows))
    if args.csv:
        table2_to_csv(rows, args.csv)
        print(f"\nwrote {args.csv}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    report = generate_report(_setting(args), **_runner_kwargs(args))
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(report)
        print(f"wrote {args.out}")
    else:
        print(report)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.runner import load_sweep_spec, run_sweep

    spec = load_sweep_spec(args.spec)
    result = run_sweep(spec, **_runner_kwargs(args))
    if spec.kind == "table2":
        print(format_table2(result))
        if args.csv:
            table2_to_csv(result, args.csv)
            print(f"\nwrote {args.csv}")
        return 0
    return _emit_figure(result, args)


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.chaos import (
        chaos_summary_json,
        format_chaos,
        load_scenario,
        run_chaos,
    )

    scenario = load_scenario(args.scenario)
    summary = run_chaos(scenario, **_runner_kwargs(args))
    print(format_chaos(summary))
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(chaos_summary_json(summary) + "\n")
        print(f"\nwrote {args.out}")
    return 0


def _cmd_catalog(args: argparse.Namespace) -> int:
    import csv

    from repro.chaos import catalog_grid, format_grid, load_scenario

    scenario = load_scenario(args.scenario)
    rows = catalog_grid(scenario, args.keys, args.shards,
                        **_runner_kwargs(args))
    print(format_grid(scenario.name, rows))
    if args.csv:
        with open(args.csv, "w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        print(f"\nwrote {args.csv}")
    return 0


def _cmd_matrix(args: argparse.Namespace) -> int:
    matrix, topology = synthetic_planetlab_matrix(
        PlanetLabParams(n=args.nodes), seed=args.seed)
    save_matrix(matrix, args.out)
    print(f"wrote {matrix.n}x{matrix.n} RTT matrix to {args.out} "
          f"(median {matrix.median():.1f} ms)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree for ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce 'Towards Optimal Data Replication Across "
                    "Data Centers' (ICDCS 2011)")
    sub = parser.add_subparsers(dest="command", required=True)

    p1 = sub.add_parser("figure1", help="delay vs number of data centers")
    _add_setting_args(p1)
    p1.set_defaults(func=_figure_command(run_figure1))

    p2 = sub.add_parser("figure2", help="delay vs degree of replication")
    _add_setting_args(p2)
    p2.set_defaults(func=_figure_command(run_figure2))

    p3 = sub.add_parser("figure3", help="delay vs micro-cluster budget")
    _add_setting_args(p3)
    p3.set_defaults(func=_figure_command(run_figure3))

    pt = sub.add_parser("table2", help="online vs offline clustering cost")
    pt.add_argument("--accesses", type=int, nargs="+",
                    default=[1_000, 10_000, 100_000],
                    help="access volumes to measure")
    pt.add_argument("--k", type=int, default=3, help="degree of replication")
    pt.add_argument("--micro-clusters", type=int, default=100,
                    help="micro-clusters per replica (paper example: 100)")
    pt.add_argument("--seed", type=int, default=0)
    pt.add_argument("--csv", default=None, metavar="FILE")
    _add_metrics_arg(pt)
    _add_runner_args(pt)
    pt.set_defaults(func=_cmd_table2)

    pc = sub.add_parser("coords", help="coordinate-system ablation")
    _add_setting_args(pc)
    pc.set_defaults(func=_figure_command(run_coord_ablation))

    pr = sub.add_parser("report",
                        help="full reproduction report (all artifacts)")
    _add_setting_args(pr)
    pr.add_argument("--out", default=None, metavar="FILE",
                    help="write the Markdown report here (default: stdout)")
    pr.set_defaults(func=_cmd_report)

    ps = sub.add_parser("sweep",
                        help="run a declarative sweep spec (JSON/TOML)")
    ps.add_argument("spec", metavar="SPEC",
                    help="sweep spec file (.toml or .json); see "
                         "examples/sweeps/ and docs/runner.md")
    ps.add_argument("--csv", default=None, metavar="FILE",
                    help="also export the result as CSV")
    ps.add_argument("--chart", action="store_true",
                    help="also draw an ASCII chart (figure sweeps only)")
    _add_metrics_arg(ps)
    _add_runner_args(ps)
    ps.set_defaults(func=_cmd_sweep)

    pz = sub.add_parser("chaos",
                        help="run a chaos scenario against the live stack")
    pz.add_argument("scenario", metavar="SCENARIO",
                    help="chaos scenario file (.toml or .json); see "
                         "examples/chaos/ and docs/chaos.md")
    pz.add_argument("--out", default=None, metavar="FILE",
                    help="also write the summary as canonical JSON")
    _add_metrics_arg(pz)
    _add_runner_args(pz)
    pz.set_defaults(func=_cmd_chaos)

    pg = sub.add_parser("catalog",
                        help="run a catalog scenario's fault-free arm over "
                             "keyspace and shard-count grids")
    pg.add_argument("scenario", metavar="SCENARIO",
                    help="chaos scenario file (.toml or .json); its faults "
                         "are dropped and its catalog resized per cell")
    pg.add_argument("--keys", type=_positive_int, nargs="+",
                    default=[100, 1_000], metavar="N",
                    help="keyspace sizes to sweep")
    pg.add_argument("--shards", type=_positive_int, nargs="+",
                    default=[1, 4, 16], metavar="N",
                    help="shard counts to sweep")
    pg.add_argument("--csv", default=None, metavar="FILE",
                    help="also export the rows as CSV")
    _add_metrics_arg(pg)
    _add_runner_args(pg)
    pg.set_defaults(func=_cmd_catalog)

    pm = sub.add_parser("matrix", help="dump the synthetic RTT matrix")
    pm.add_argument("--nodes", type=int, default=226)
    pm.add_argument("--seed", type=int, default=0)
    pm.add_argument("--out", required=True, metavar="FILE",
                    help=".npz or text destination")
    _add_metrics_arg(pm)
    pm.set_defaults(func=_cmd_matrix)

    return parser


def _profiled(func: Callable) -> Callable:
    """Wrap a command in cProfile; print top cumulative entries after."""
    def wrapped(args: argparse.Namespace) -> int:
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        try:
            return profiler.runcall(func, args)
        finally:
            print(f"\n--- cProfile: top {_PROFILE_TOP_N} by cumulative "
                  "time ---")
            stats = pstats.Stats(profiler, stream=sys.stdout)
            stats.sort_stats("cumulative").print_stats(_PROFILE_TOP_N)
    return wrapped


def _format_phase_timers(registry) -> str:
    """The obs phase timers as a small table (for ``--profile``)."""
    timers = registry.snapshot().get("phase_timers", {})
    if not timers:
        return "--- obs phase timers: none recorded ---"
    lines = ["--- obs phase timers ---",
             f"{'phase':<36} {'calls':>8} {'total s':>10} {'mean s':>10}"]
    for name in sorted(timers):
        timer = timers[name]
        lines.append(f"{name:<36} {timer['calls']:>8} "
                     f"{timer['total_seconds']:>10.3f} "
                     f"{timer['mean_seconds']:>10.4f}")
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code.

    With ``--metrics-out FILE``, observability is switched on for the
    duration of the command and the resulting metrics registry (plus a
    trace summary) is written to ``FILE`` as JSON — even when the
    command itself fails, so a crashed run still leaves its telemetry.
    ``--profile`` additionally wraps the command in :mod:`cProfile` and
    prints the hottest cumulative entries next to the obs phase timers.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    metrics_out = getattr(args, "metrics_out", None)
    profile = getattr(args, "profile", False)
    command = _profiled(args.func) if profile else args.func
    if not metrics_out and not profile:
        return command(args)
    with obs.observe() as (registry, tracer):
        try:
            code = command(args)
        finally:
            if profile:
                print(_format_phase_timers(registry))
            if metrics_out:
                metrics_to_json(registry, metrics_out, tracer=tracer)
    if metrics_out:
        print(f"wrote {metrics_out}")
    return code


if __name__ == "__main__":
    sys.exit(main())
