"""Run orchestration: offline per-user tuning, online per-day tuning, reports.

The offline scenario (:func:`run_offline`) tunes one configuration per user
on their concatenated trace. The online scenario (:func:`run_online`) splits
each user's records into UTC daily batches and tunes a configuration per
batch, or fixes the one in ``RunConfig.static_assignment`` (the static
baseline). Both produce a :class:`Report` of per-unit rows plus CDF summaries,
and both are deterministic functions of (dataset, config): units run one
at a time, in (user, day) order, on the calling thread, and each derives its
randomness from (seed, user, day).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from datetime import date
from typing import Sequence

import numpy as np

from .errors import ConfigurationError
from .geo import MS_PER_DAY, CellGrid, Dataset, Trace, utc_day
from .lppm import MECHANISMS, LppmConfig, apply_lppm, checked, mechanism
from .metrics import EVALUATORS, PoiClusteringParams, bind_evaluators, checked_robust_k, evaluator
from .optimizer import AnnealingSchedule, ObjectiveCost, anneal, default_objectives
from .rng import RandomStream


def split_daily_batches(trace: Trace) -> list:
    """Partition a trace by UTC day (half-open: midnight starts the new day)
    into ``(day, trace)`` pairs, one per non-empty day, in order."""
    days = np.unique(trace.time_ms // MS_PER_DAY)
    bounds = np.append(np.searchsorted(trace.time_ms, days * MS_PER_DAY), len(trace))
    return [
        (utc_day(day * MS_PER_DAY), Trace(trace.user, trace.lat[a:b], trace.lon[a:b], trace.time_ms[a:b]))
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
    """Everything a pipeline run needs besides the dataset itself.

    A ``static_assignment`` fixes the configuration of every unit instead of
    tuning it: the static baseline, which only :func:`run_online` runs.
    ``objectives`` and ``robust_k`` left at None take the mechanism's
    defaults from ``MECHANISMS``, and every setting is checked here.
    """

    lppm_name: str
    static_assignment: dict | None = None
    objectives: tuple | None = None
    schedule: AnnealingSchedule = field(default_factory=AnnealingSchedule)
    poi_params: PoiClusteringParams = field(default_factory=PoiClusteringParams)
    cell_size_m: float = CellGrid.cell_size_m
    seed: int = 42
    robust_k: int | None = None
    use_best: bool = True

    def __post_init__(self):
        entry = mechanism(self.lppm_name)
        if self.static_assignment is not None:
            checked(LppmConfig(self.lppm_name, self.static_assignment))
        objectives = default_objectives(self.lppm_name) if self.objectives is None else self.objectives
        if not objectives:
            raise ConfigurationError("at least one objective is required")
        names = [objective.evaluator_name for objective in objectives]
        for i, name in enumerate(names):
            evaluator(name)  # raises on an unknown name
            if name in names[:i]:
                raise ConfigurationError(f"objectives name evaluator {name!r} twice")
        object.__setattr__(self, "objectives", tuple(objectives))
        k = entry.robust_k if self.robust_k is None else self.robust_k
        object.__setattr__(self, "robust_k", checked_robust_k(k))

    def describe(self, mode: str) -> dict:
        """JSON-ready snapshot recorded in every report."""
        return {
            "lppm": self.lppm_name,
            "mode": mode,
            "domains": [
                {"name": d.name, "spacing": d.spacing,
                 "min": d.values[0], "max": d.values[-1], "count": len(d)}
                for d in (MECHANISMS[self.lppm_name].domains if self.static_assignment is None else [])
            ],
            "static_assignment": self.static_assignment,
            "objectives": [
                {"evaluator": o.evaluator_name, "direction": "min" if o.minimise else "max",
                 "scale": o.scale}
                for o in self.objectives
            ],
            "schedule": asdict(self.schedule),
            "poi_params": asdict(self.poi_params),
            "cell_size_m": self.cell_size_m,
            "seed": self.seed,
            "robust_k": self.robust_k,
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
        for name in EVALUATORS
    }
    param_names = sorted({name for row in rows for name in row.config.assignment})
    param_cdf = {name: cdf_points([row.config.assignment[name] for row in rows])
                 for name in param_names}
    ranges: dict = {}
    for name in param_names:
        per_user: dict = {}
        for row in rows:
            per_user.setdefault(row.user, []).append(row.config.assignment[name])
        ranges[name] = {user: max(vs) - min(vs) for user, vs in sorted(per_user.items())}
    return cdf, param_cdf, ranges


def _process_unit(unit_key, raw: Trace, config: RunConfig, grid: CellGrid):
    """Tune (or fix) a configuration for one unit, protect it, measure it.

    Each entry of ``EVALUATORS`` is bound to the raw trace once; the search,
    whose objectives name only these, and the row's metrics share them.
    """
    user, day = unit_key
    day_label = day.isoformat() if day is not None else "offline"
    root = RandomStream(config.seed).child(user, day_label)

    bound = bind_evaluators(EVALUATORS, raw, config.poi_params, grid)
    cost_fn = ObjectiveCost(config.objectives, raw, bound, config.robust_k)
    if config.static_assignment is not None:
        chosen = LppmConfig(config.lppm_name, config.static_assignment)
        cost = cost_fn(chosen, root.child("cost"))
    else:
        result = anneal(config.lppm_name, MECHANISMS[config.lppm_name].domains, cost_fn,
                        config.schedule, root.child("anneal"), n_objectives=len(config.objectives))
        chosen, cost = result.chosen(config.use_best)

    protected = apply_lppm(chosen, raw, root.child("protect"))
    metrics = {name: bound[name](protected) for name in EVALUATORS}
    return ReportRow(user, day, chosen, metrics, cost), protected


def _run_units(units, config: RunConfig, grid: CellGrid, mode: str) -> Report:
    """Process units in the given (user, day) order and summarise them."""
    outcomes = [_process_unit(key, raw, config, grid) for key, raw in units]
    rows = tuple(row for row, _ in outcomes)
    protected = Dataset(tuple(trace for _, trace in outcomes))
    cdf, param_cdf, ranges = _summaries(rows)
    return Report(rows, config.describe(mode), cdf, param_cdf, ranges, protected)


def run_offline(dataset: Dataset, config: RunConfig) -> Report:
    """One tuned configuration per user, fitted on the concatenated trace."""
    if config.static_assignment is not None:
        raise ConfigurationError("offline mode searches domains; drop the static assignment")
    grid = CellGrid(config.cell_size_m, dataset.mean_latitude())
    units = [((user, None), trace) for user, trace in dataset.merged_by_user().items()]
    return _run_units(units, config, grid, "offline")


def run_online(dataset: Dataset, config: RunConfig) -> Report:
    """One configuration per non-empty (user, UTC day) batch: tuned, or the
    static assignment when the config holds one."""
    grid = CellGrid(config.cell_size_m, dataset.mean_latitude())
    units = [((user, day), batch) for user, trace in dataset.merged_by_user().items()
             for day, batch in split_daily_batches(trace)]
    mode = "online" if config.static_assignment is None else "static-baseline"
    return _run_units(units, config, grid, mode)
