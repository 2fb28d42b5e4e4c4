"""One-command reproduction report.

``python -m repro report --out report.md`` regenerates every evaluation
artifact at the requested scale and writes a self-contained Markdown
report: the environment and seeds, each figure as a table plus an ASCII
chart, Table II, and the headline-claim checklist with pass/fail marks.
This is the artifact to attach to a reproduction claim.
"""

from __future__ import annotations

import platform
from dataclasses import dataclass

import numpy as np

from repro.analysis.charts import render_chart
from repro.analysis.experiment import (
    EvaluationSetting,
    FigureResult,
    run_figure1,
    run_figure2,
    run_figure3,
    run_table2,
)
from repro.analysis.report import format_figure, format_table2

__all__ = ["ClaimCheck", "generate_report"]


@dataclass(frozen=True)
class ClaimCheck:
    """One verified headline claim."""

    claim: str
    passed: bool
    detail: str


def _check_figure2_claims(figure2: FigureResult) -> list[ClaimCheck]:
    checks: list[ClaimCheck] = []
    gains = [
        (r - on) / r
        for r, on in zip(figure2.means("random"),
                         figure2.means("online clustering"))
    ]
    checks.append(ClaimCheck(
        "online clustering ≥ 35 % below random at every k",
        min(gains) >= 0.35,
        f"min gain {min(gains):.0%}, max {max(gains):.0%}",
    ))
    ratios = [
        on / opt
        for on, opt in zip(figure2.means("online clustering"),
                           figure2.means("optimal"))
    ]
    checks.append(ClaimCheck(
        "online clustering slightly worse than optimal (≤ 1.2×)",
        max(ratios) <= 1.2,
        f"worst online/optimal ratio {max(ratios):.2f}",
    ))
    offline_gap = [
        abs(on - off) / off
        for on, off in zip(figure2.means("online clustering"),
                           figure2.means("offline k-means"))
    ]
    checks.append(ClaimCheck(
        "online clustering comparable to offline k-means (within 15 %)",
        max(offline_gap) <= 0.15,
        f"largest relative gap {max(offline_gap):.1%}",
    ))
    drops = figure2.means("optimal")
    checks.append(ClaimCheck(
        "diminishing returns in k (k=1→4 drop > 2× the k=4→7 drop)",
        (drops[0] - drops[3]) > 2 * (drops[3] - drops[6]),
        f"early drop {drops[0] - drops[3]:.1f} ms, "
        f"late drop {drops[3] - drops[6]:.1f} ms",
    ))
    return checks


def _check_figure1_claims(figure1: FigureResult) -> list[ClaimCheck]:
    checks = []
    for name in ("offline k-means", "online clustering", "optimal"):
        means = figure1.means(name)
        checks.append(ClaimCheck(
            f"{name} improves with more candidate data centers",
            means[-1] < means[0] * 0.9,
            f"{means[0]:.1f} -> {means[-1]:.1f} ms",
        ))
    return checks


def _check_figure3_claims(figure3: FigureResult) -> list[ClaimCheck]:
    m4 = figure3.means("4 micro-clusters")
    m11 = figure3.means("11 micro-clusters")
    worst = max(a / b for a, b in zip(m4, m11))
    return [ClaimCheck(
        "a small micro-cluster budget suffices (m=4 within 15 % of m=11)",
        worst <= 1.15,
        f"worst m=4 / m=11 ratio {worst:.2f}",
    )]


def generate_report(setting: EvaluationSetting | None = None,
                    **runner) -> str:
    """Run the full evaluation and return the Markdown report.

    ``**runner``: forwarded to :func:`repro.runner.execute` by every
    figure runner, so the full report can be regenerated in parallel
    and resumed after an interruption.
    """
    setting = setting or EvaluationSetting()
    lines: list[str] = []
    out = lines.append

    out("# Reproduction report — Towards Optimal Data Replication "
        "Across Data Centers (ICDCS 2011)")
    out("")
    out(f"- nodes: {setting.n_nodes}; runs/point: {setting.n_runs}; "
        f"coordinates: {setting.coord_system}; "
        f"candidates: {setting.candidate_mode}; seed: {setting.seed}")
    out(f"- python {platform.python_version()} / numpy {np.__version__} "
        f"on {platform.system().lower()}")
    out("")

    checks: list[ClaimCheck] = []
    for title, run_figure, checker in (
        ("Figure 1 — number of data centers", run_figure1,
         _check_figure1_claims),
        ("Figure 2 — degree of replication", run_figure2,
         _check_figure2_claims),
        ("Figure 3 — micro-cluster budget", run_figure3,
         _check_figure3_claims),
    ):
        result = run_figure(setting, **runner)
        out(f"## {title}")
        out("")
        out("```")
        out(format_figure(result))
        out("")
        out(render_chart(result))
        out("```")
        out("")
        checks.extend(checker(result))

    out("## Table II — online vs offline overheads")
    out("")
    out("```")
    out(format_table2(run_table2(seed=setting.seed, **runner)))
    out("```")
    out("")

    out("## Headline-claim checklist")
    out("")
    for check in checks:
        mark = "✅" if check.passed else "❌"
        out(f"- {mark} {check.claim} — {check.detail}")
    out("")
    passed = sum(1 for c in checks if c.passed)
    out(f"**{passed}/{len(checks)} claims reproduced.**")
    out("")
    return "\n".join(lines)
