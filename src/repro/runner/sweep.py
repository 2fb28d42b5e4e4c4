"""Declarative sweeps: a small JSON/TOML spec in, figure artifacts out.

``repro sweep spec.toml --jobs 4 --cache-dir .cache`` runs a whole
evaluation sweep described by a file instead of code — the shape the
extended comparisons in the related replica-migration work (Mseddi et
al., Luo et al.) need: many seeded grid points, farmed out to workers,
resumable after interruption.

A spec names one experiment ``kind`` and its parameters::

    kind = "figure1"              # figure1|figure2|figure3|coords|table2

    [setting]                     # EvaluationSetting overrides
    n_nodes = 60
    n_runs = 5
    seed = 7

    [params]                      # forwarded to the experiment runner
    datacenter_counts = [5, 10]
    k = 2

The result is the repo's existing artifact types —
:class:`~repro.analysis.experiment.FigureResult` or Table II rows — so
every export path (CSV, JSON, ASCII charts, Markdown report sections)
works unchanged.
"""

from __future__ import annotations

import inspect
import json
import os
from dataclasses import dataclass, fields
from typing import Any, Callable, Sequence

from repro.analysis.experiment import (
    EvaluationSetting,
    FigureResult,
    Table2Row,
    run_coord_ablation,
    run_figure1,
    run_figure2,
    run_figure3,
    run_table2,
)

__all__ = ["SweepSpec", "load_sweep_spec", "run_sweep", "SWEEP_KINDS"]

#: Experiment kind -> the runner a sweep of that kind calls.
SWEEP_KINDS: dict[str, Callable] = {
    "figure1": run_figure1,
    "figure2": run_figure2,
    "figure3": run_figure3,
    "coords": run_coord_ablation,
    "table2": run_table2,
}


def _allowed_params(kind: str) -> list[str]:
    """What ``[params]`` may set: the runner's own parameters — not
    ``setting`` (its own table) and not the ``**runner`` catch-all
    (runner options belong to the command line, not the sweep file).
    """
    parameters = inspect.signature(SWEEP_KINDS[kind]).parameters.values()
    return sorted(p.name for p in parameters
                  if p.name != "setting" and p.kind is not p.VAR_KEYWORD)


@dataclass(frozen=True)
class SweepSpec:
    """One declarative sweep: experiment kind, setting, parameters."""

    kind: str
    setting: EvaluationSetting
    params: dict[str, Any]

    def __post_init__(self) -> None:
        if self.kind not in SWEEP_KINDS:
            raise ValueError(f"unknown sweep kind {self.kind!r}; "
                             f"known: {sorted(SWEEP_KINDS)}")
        allowed = _allowed_params(self.kind)
        unknown = sorted(set(self.params) - set(allowed))
        if unknown:
            raise ValueError(f"sweep kind {self.kind!r} does not accept "
                             f"{unknown}; allowed: {allowed}")


def _parse_spec(payload: dict, source: str) -> SweepSpec:
    if not isinstance(payload, dict):
        raise ValueError(f"{source}: sweep spec must be a table/object")
    kind = payload.get("kind") or payload.get("figure")
    if not kind:
        raise ValueError(f"{source}: sweep spec needs a 'kind' entry")
    setting_fields = {f.name for f in fields(EvaluationSetting)}
    setting_payload = payload.get("setting", {})
    unknown = sorted(set(setting_payload) - setting_fields)
    if unknown:
        raise ValueError(f"{source}: unknown setting fields {unknown}")
    setting = EvaluationSetting(**setting_payload)
    params = dict(payload.get("params", {}))
    # Sequence params arrive as lists; the runners expect tuples.
    params = {key: tuple(value) if isinstance(value, list) else value
              for key, value in params.items()}
    return SweepSpec(kind=str(kind), setting=setting, params=params)


def load_sweep_spec(path: str) -> SweepSpec:
    """Load a sweep spec from a ``.toml`` or ``.json`` file."""
    extension = os.path.splitext(path)[1].lower()
    if extension == ".toml":
        import tomllib
        with open(path, "rb") as handle:
            payload = tomllib.load(handle)
    elif extension == ".json":
        with open(path) as handle:
            payload = json.load(handle)
    else:
        raise ValueError(f"unsupported sweep spec format {extension!r} "
                         "(use .toml or .json)")
    return _parse_spec(payload, path)


def run_sweep(spec: SweepSpec,
              **runner) -> FigureResult | Sequence[Table2Row]:
    """Execute one declarative sweep.

    ``**runner``: forwarded to :func:`repro.runner.execute`.
    """
    kwargs: dict[str, Any] = dict(spec.params)
    if spec.kind == "table2":
        kwargs.setdefault("seed", spec.setting.seed)
        return run_table2(**kwargs, **runner)
    return SWEEP_KINDS[spec.kind](spec.setting, **kwargs, **runner)
