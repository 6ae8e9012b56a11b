"""Run orchestration: offline per-user tuning, online per-day tuning, reports.

The offline scenario tunes one configuration per user on their concatenated
trace. The online scenario splits each user's records into UTC daily
batches and tunes (or, for static baselines, fixes) a configuration per
batch. Both produce a :class:`Report` of per-unit rows plus CDF summaries,
and both are deterministic functions of (dataset, config): units run one
at a time, in (user, day) order, on the calling thread, and each derives its
randomness from (seed, user, day).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date
from typing import Sequence

import numpy as np

from .errors import ConfigurationError
from .geo import MS_PER_DAY, CellGrid, Dataset, Trace, utc_day
from .lppm import LppmConfig, apply_lppm, default_domains, get_mechanism_class, make_mechanism
from .metrics import EVALUATOR_NAMES, PoiClusteringParams, bind_evaluators, default_robust_k
from .optimizer import AnnealingSchedule, ObjectiveCost, anneal, default_objectives
from .rng import RandomStream

MODES = ("offline", "online", "static-baseline")


@dataclass(frozen=True)
class Batch:
    """One user's records within one UTC calendar day."""

    user: str
    day: date
    trace: Trace


def split_daily_batches(trace: Trace) -> list:
    """Partition a trace by UTC day (half-open: midnight starts the new day)."""
    days = np.unique(trace.time_ms // MS_PER_DAY)
    bounds = np.append(np.searchsorted(trace.time_ms, days * MS_PER_DAY), len(trace))
    return [
        Batch(trace.user, utc_day(day * MS_PER_DAY),
              Trace(trace.user, trace.lat[a:b], trace.lon[a:b], trace.time_ms[a:b]))
        for day, a, b in zip(days.tolist(), bounds[:-1].tolist(), bounds[1:].tolist())
    ]


def cdf_points(values) -> list:
    """Empirical CDF as (value, fraction of inputs <= value) over unique values."""
    values = sorted(values)
    n = len(values)
    if n == 0:
        return []
    points = []
    for i, v in enumerate(values):
        if i + 1 == n or values[i + 1] != v:
            points.append((v, (i + 1) / n))
    return points


@dataclass(frozen=True)
class RunConfig:
    """Everything a pipeline run needs besides the dataset itself."""

    lppm_name: str
    mode: str = "offline"
    static_assignment: dict | None = None
    objectives: tuple | None = None
    schedule: AnnealingSchedule = field(default_factory=AnnealingSchedule)
    poi_params: PoiClusteringParams = field(default_factory=PoiClusteringParams)
    cell_size_m: float = 250.0
    seed: int = 42
    robust_k: int | None = None
    use_best: bool = True

    def __post_init__(self):
        get_mechanism_class(self.lppm_name)
        if self.mode not in MODES:
            raise ConfigurationError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        if self.mode == "static-baseline":
            if self.static_assignment is None:
                raise ConfigurationError("static-baseline mode requires a full parameter assignment")
            make_mechanism(LppmConfig(self.lppm_name, self.static_assignment))
        elif self.static_assignment is not None:
            raise ConfigurationError(f"{self.mode} mode searches domains; drop the static assignment")

    def resolved_domains(self) -> list:
        return default_domains(self.lppm_name)

    def resolved_objectives(self) -> list:
        return list(self.objectives) if self.objectives is not None else default_objectives(self.lppm_name)

    def resolved_robust_k(self) -> int:
        return self.robust_k if self.robust_k is not None else default_robust_k(self.lppm_name)

    def describe(self) -> dict:
        """JSON-ready snapshot recorded in every report."""
        return {
            "lppm": self.lppm_name,
            "mode": self.mode,
            "domains": [
                {"name": d.name, "spacing": d.spacing,
                 "min": d.values[0], "max": d.values[-1], "count": len(d)}
                for d in (self.resolved_domains() if self.mode != "static-baseline" else [])
            ],
            "static_assignment": self.static_assignment,
            "objectives": [
                {"evaluator": o.evaluator_name, "direction": "min" if o.minimise else "max",
                 "scale": o.scale}
                for o in self.resolved_objectives()
            ],
            "schedule": {"t0": self.schedule.t0, "t_min": self.schedule.t_min,
                         "delta_t": self.schedule.delta_t},
            "poi_params": {"max_diameter_m": self.poi_params.max_diameter_m,
                           "min_stay_ms": self.poi_params.min_stay_ms,
                           "match_threshold_m": self.poi_params.match_threshold_m},
            "cell_size_m": self.cell_size_m,
            "seed": self.seed,
            "robust_k": self.resolved_robust_k(),
            "use_best": self.use_best,
        }


@dataclass(frozen=True)
class ReportRow:
    """Outcome for one protected unit (a user, or a user-day batch)."""

    user: str
    day: date | None
    config: LppmConfig
    metrics: dict
    cost: float


@dataclass(frozen=True)
class Report:
    """Per-unit rows, summary CDF series, and the protected dataset."""

    rows: tuple
    run_config: dict
    cdf: dict
    param_cdf: dict
    per_user_param_range: dict
    protected: Dataset

    def summary_payload(self, rows_file: str = "") -> dict:
        return {
            "run_config": self.run_config,
            "rows_file": rows_file,
            "cdf": {name: [[v, f] for v, f in series] for name, series in self.cdf.items()},
            "param_cdf": {name: [[v, f] for v, f in series] for name, series in self.param_cdf.items()},
            "per_user_param_range": self.per_user_param_range,
        }


def _summaries(rows: Sequence[ReportRow]):
    cdf = {
        name: cdf_points([row.metrics[name] for row in rows])
        for name in EVALUATOR_NAMES
    }
    param_names = sorted({name for row in rows for name in row.config.assignment})
    param_cdf = {
        name: cdf_points([row.config.assignment[name] for row in rows
                          if name in row.config.assignment])
        for name in param_names
    }
    ranges: dict = {}
    for name in param_names:
        per_user: dict = {}
        for row in rows:
            if name in row.config.assignment:
                per_user.setdefault(row.user, []).append(row.config.assignment[name])
        ranges[name] = {user: max(vs) - min(vs) for user, vs in sorted(per_user.items())}
    return cdf, param_cdf, ranges


def _process_unit(unit_key, raw: Trace, config: RunConfig, grid: CellGrid):
    """Tune (or fix) a configuration for one unit, protect it, measure it.

    Each evaluator is bound to the raw trace once; the search and the row's
    metrics share those bindings.
    """
    user, day = unit_key
    day_label = day.isoformat() if day is not None else "offline"
    root = RandomStream(config.seed).child(user, day_label)

    objectives = config.resolved_objectives()
    bound = bind_evaluators(EVALUATOR_NAMES + tuple(o.evaluator_name for o in objectives), raw,
                            poi_params=config.poi_params, cell_grid=grid)
    cost_fn = ObjectiveCost(objectives, raw, bound, config.resolved_robust_k())
    if config.mode == "static-baseline":
        chosen = LppmConfig(config.lppm_name, config.static_assignment)
        cost = cost_fn(chosen, root.child("cost"))
    else:
        result = anneal(config.lppm_name, config.resolved_domains(), cost_fn,
                        config.schedule, root.child("anneal"), n_objectives=len(objectives))
        chosen = result.chosen(config.use_best)
        cost = result.best_cost if config.use_best else result.final_cost

    protected = apply_lppm(chosen, raw, root.child("protect"))
    metrics = {name: bound[name](protected) for name in EVALUATOR_NAMES}
    return ReportRow(user, day, chosen, metrics, cost), protected


def _run_units(units, config: RunConfig, grid: CellGrid) -> Report:
    """Process units in the given (user, day) order and summarise them."""
    outcomes = [_process_unit(key, raw, config, grid) for key, raw in units]
    rows = tuple(row for row, _ in outcomes)
    protected = Dataset(tuple(trace for _, trace in outcomes))
    cdf, param_cdf, ranges = _summaries(rows)
    return Report(rows, config.describe(), cdf, param_cdf, ranges, protected)


def run_offline(dataset: Dataset, config: RunConfig) -> Report:
    """One tuned configuration per user, fitted on the concatenated trace."""
    if config.mode != "offline":
        raise ConfigurationError(f"run_offline needs mode='offline', got {config.mode!r}")
    grid = CellGrid(config.cell_size_m, dataset.mean_latitude())
    units = [((user, None), trace) for user, trace in dataset.merged_by_user().items()]
    return _run_units(units, config, grid)


def run_online(dataset: Dataset, config: RunConfig) -> Report:
    """One configuration per non-empty (user, UTC day) batch."""
    if config.mode not in ("online", "static-baseline"):
        raise ConfigurationError(f"run_online needs mode 'online' or 'static-baseline', got {config.mode!r}")
    grid = CellGrid(config.cell_size_m, dataset.mean_latitude())
    units = []
    for user, trace in dataset.merged_by_user().items():
        for batch in split_daily_batches(trace):
            units.append(((batch.user, batch.day), batch.trace))
    return _run_units(units, config, grid)
