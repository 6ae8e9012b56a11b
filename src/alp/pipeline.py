"""Run orchestration: the one unit loop, the four jobs run on it, and reports.

:func:`_run_units` alone cuts a run into units (each user's trace, or its
UTC-day batches) and runs a job on them one at a time, in (user, day) order,
on the calling thread; it names the user (and day) of a unit that fails. Its
callers are the code paths of the four input commands: :func:`evaluate`,
:func:`protect`, :func:`run_offline` and :func:`run_online`. It alone lays out the
streams: a unit's root ``(seed, user, day or "offline")`` has the children ``cost``
(replicate i of every state scored on ``cost/rep/i``) and ``anneal`` (the search
chain), so a unit's row and trace are a function of its raw trace, its root
stream and the config alone, never of the other days or users in the input. The
trace a job publishes is replicate 0 under the chosen configuration: the very
draw its row's cost and metrics score (:func:`_replicates`).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from datetime import date

import numpy as np

from .errors import AlpError, ConfigurationError
from .geo import MS_PER_DAY, CellGrid, Dataset, Trace, utc_day
from .lppm import MECHANISMS, LppmConfig, apply_lppm, checked, mechanism
from .metrics import (EVALUATORS, PoiClusteringParams, bind_evaluators, checked_robust_k, evaluator,
                      median_of_k, prepare_replicates)
from .optimizer import AnnealingSchedule, ObjectiveCost, anneal, parse_objectives
from .rng import RandomStream


def split_daily_batches(trace: Trace) -> list:
    """Partition a trace by UTC day (half-open: midnight starts the new day) into
    ``(day, trace)`` pairs, one per non-empty day, in order. A trace is time-ordered,
    so a batch starts wherever the day number changes, and its first record names it."""
    day = trace.time_ms // MS_PER_DAY
    bounds = np.flatnonzero(np.diff(day, prepend=day[:1] - 1, append=day[-1:] + 1)).tolist()
    return [(utc_day(trace.time_ms[a]), Trace(trace.user, trace.lat[a:b], trace.lon[a:b], trace.time_ms[a:b]))
            for a, b in zip(bounds[:-1], bounds[1:])]


def cdf_points(values) -> list:
    """Empirical CDF as (value, fraction of inputs <= value) over unique values."""
    values = sorted(values)
    n = len(values)
    return [(v, (i + 1) / n) for i, v in enumerate(values) if i + 1 == n or values[i + 1] != v]


@dataclass(frozen=True)
class RunConfig:
    """The settings of every command that reads an input (all but ``synth``).

    A ``static_assignment`` fixes the configuration of every unit instead of
    tuning it: :func:`evaluate` and :func:`protect` need one, :func:`run_online`
    then runs the static baseline, and :func:`run_offline` rejects one.
    ``objectives`` left at None takes the mechanism's default from
    ``MECHANISMS``, and every setting is checked here. ``robust_k`` is the
    number of replicates a state's metrics are the median of; replicate 0
    is the one published whatever k is.
    """

    lppm_name: str
    static_assignment: dict | None = None
    objectives: tuple | None = None
    schedule: AnnealingSchedule = field(default_factory=AnnealingSchedule)
    poi_params: PoiClusteringParams = field(default_factory=PoiClusteringParams)
    cell_size_m: float = CellGrid.cell_size_m
    seed: int = 42
    robust_k: int = 1
    use_best: bool = True

    def __post_init__(self):
        entry = mechanism(self.lppm_name)
        if self.static_assignment is not None:
            checked(self.static_config)
        objectives = parse_objectives(entry.objectives) if self.objectives is None else self.objectives
        if not objectives:
            raise ConfigurationError("at least one objective is required")
        names = [objective.evaluator_name for objective in objectives]
        for i, name in enumerate(names):
            evaluator(name)  # raises on an unknown name
            if name in names[:i]:
                raise ConfigurationError(f"objectives name evaluator {name!r} twice")
        object.__setattr__(self, "objectives", tuple(objectives))
        checked_robust_k(self.robust_k)
        CellGrid(self.cell_size_m)  # raises on a cell size that is not positive

    @property
    def static_config(self) -> LppmConfig:
        """The fixed configuration of every unit; a run that tunes has none."""
        if self.static_assignment is None:
            raise ConfigurationError("this job runs a fixed configuration; give a static assignment")
        return LppmConfig(self.lppm_name, self.static_assignment)

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
    """Per-unit rows and the protected dataset; the summary is derived from the rows."""

    rows: tuple
    run_config: dict
    protected: Dataset

    def summary_payload(self, rows_file: str = "") -> dict:
        """The JSON summary: metric and parameter CDFs, and each parameter's range over each user's rows."""
        rows = self.rows
        param_names = sorted({name for row in rows for name in row.config.assignment})
        ranges: dict = {}
        for name in param_names:
            per_user: dict = {}
            for row in rows:
                per_user.setdefault(row.user, []).append(row.config.assignment[name])
            ranges[name] = {user: max(vs) - min(vs) for user, vs in sorted(per_user.items())}
        return {
            "run_config": self.run_config,
            "rows_file": rows_file,
            "cdf": {name: cdf_points([row.metrics[name] for row in rows]) for name in EVALUATORS},
            "param_cdf": {name: cdf_points([row.config.assignment[name] for row in rows]) for name in param_names},
            "per_user_param_range": ranges,
        }


def _replicates(lppm_name: str, raw: Trace, k: int, rng: RandomStream) -> tuple:
    """The k replicates a unit is scored on, from its root stream ``rng``:
    replicate i is drawn from ``cost/rep/i``. Every job publishes replicate 0."""
    return prepare_replicates(lppm_name, raw, k, rng.child("cost"))


def _process_unit(user: str, day: date | None, raw: Trace, rng: RandomStream, config: RunConfig):
    """Tune (or fix) a configuration for one unit, protect it, measure it.

    Each entry of ``EVALUATORS`` is bound to the raw trace once; the search,
    whose objectives name only these, and the row's metrics share them. The
    unit is published as replicate 0 under the chosen configuration, so at
    k = 1 the row's cost is the cost of the trace written; at a larger k it
    is the median over the k replicates that replicate 0 is one of.
    """
    bound = bind_evaluators(EVALUATORS, raw, config.poi_params, CellGrid(config.cell_size_m))
    replicates = _replicates(config.lppm_name, raw, config.robust_k, rng)
    cost_fn = ObjectiveCost(config.objectives, bound, replicates)
    if config.static_assignment is not None:
        chosen = config.static_config
        cost = cost_fn(chosen)
    else:
        result = anneal(config.lppm_name, MECHANISMS[config.lppm_name].domains, cost_fn,
                        config.schedule, rng.child("anneal"), n_objectives=len(config.objectives))
        chosen, cost = result.chosen(config.use_best)

    protected = apply_lppm(chosen, replicates[0])
    metrics = {name: bound[name](protected) for name in EVALUATORS}
    return ReportRow(user, day, chosen, metrics, cost), protected


def _run_units(dataset: Dataset, seed: int, job, daily: bool = False):
    """Yield ``job(user, day, trace, rng)`` for each user's whole trace (day None) or, when ``daily``,
    for each of its UTC-day batches, in (user, day) order; ``rng`` is the unit's root stream. A unit
    that fails or runs out of memory raises an AlpError naming its user (and day, if any)."""
    for trace in dataset:
        user = trace.user
        for day, unit in split_daily_batches(trace) if daily else [(None, trace)]:
            try:
                yield job(user, day, unit, RandomStream(seed).child(user, day or "offline"))
            except (AlpError, ValueError, MemoryError) as exc:
                reason = "out of memory" if isinstance(exc, MemoryError) and not str(exc) else exc
                raise AlpError(f"user {user!r}" + (f", day {day}" if day else "") + f": {reason}") from exc


def _tuned_report(dataset: Dataset, config: RunConfig, mode: str, daily: bool) -> Report:
    outcomes = list(_run_units(dataset, config.seed, lambda *unit: _process_unit(*unit, config), daily))
    return Report(tuple(row for row, _ in outcomes), config.describe(mode),
                  Dataset(trace for _, trace in outcomes))


def run_offline(dataset: Dataset, config: RunConfig) -> Report:
    """One tuned configuration per user, fitted on the concatenated trace."""
    if config.static_assignment is not None:
        raise ConfigurationError("offline mode searches domains; drop the static assignment")
    return _tuned_report(dataset, config, "offline", daily=False)


def run_online(dataset: Dataset, config: RunConfig) -> Report:
    """One configuration per non-empty (user, UTC day) batch: tuned, or the
    static assignment when the config holds one."""
    mode = "online" if config.static_assignment is None else "static-baseline"
    return _tuned_report(dataset, config, mode, daily=True)


def evaluate(dataset: Dataset, config: RunConfig) -> list:
    """``(user, {metric: median})`` per user: the static configuration scored on
    the ``robust_k`` replicates that the offline search scores it on. At k = 1
    these are the metrics of the trace :func:`protect` writes."""
    static = config.static_config

    def job(user, day, trace, rng):
        bound = bind_evaluators(EVALUATORS, trace, config.poi_params, CellGrid(config.cell_size_m))
        replicates = _replicates(static.lppm_name, trace, config.robust_k, rng)
        return user, median_of_k(bound, static, replicates)

    return list(_run_units(dataset, config.seed, job))


def protect(dataset: Dataset, config: RunConfig) -> Dataset:
    """Each user's trace under the static configuration: replicate 0 of the
    user's offline root, the trace the offline search publishes and the one
    :func:`evaluate` scores at k = 1."""
    static = config.static_config

    def job(user, day, trace, rng):
        (replicate,) = _replicates(static.lppm_name, trace, 1, rng)
        return apply_lppm(static, replicate)

    return Dataset(_run_units(dataset, config.seed, job))
