"""Location privacy protection mechanisms (LPPMs).

A mechanism turns one trace into one protected trace under a parameter
assignment, in two steps. ``prepare(trace, rng)`` does the work that no
parameter changes: geo-i's noise draws, their unit radii and directions, or
promesse's path in the plane. ``transform(prepared, assignment)`` finishes
the trace for one assignment. The tuner scores many assignments on the same
replicates, so it prepares each (unit, replicate) once and transforms it
once per state. ``MECHANISMS`` holds one entry per mechanism (``geo-i`` and
``promesse``): its two steps, its parameter domains and its default
objectives. An :class:`LppmConfig` names the mechanism and its values, so
evaluators and the tuner stay mechanism-agnostic; :func:`checked` is the one
place that validates it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .errors import ConfigurationError, lookup
from .geo import Trace, latlon_from_local, local_xy
from .rng import RandomStream

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class ParameterDomain:
    """Finite ordered set of admissible values for one mechanism parameter."""

    name: str
    values: tuple
    spacing: str = "linear"

    def __post_init__(self):
        values = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", values)
        if not values:
            raise ConfigurationError(f"domain {self.name!r} has no values")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ConfigurationError(f"domain {self.name!r} must be strictly increasing")
        if self.spacing not in ("linear", "log10"):
            raise ConfigurationError(f"unknown spacing {self.spacing!r}")
        if self.spacing == "log10" and values[0] <= 0:
            raise ConfigurationError("log10 spacing requires positive values")

    def __len__(self) -> int:
        return len(self.values)

    def index_of(self, value: float) -> int:
        if value not in self.values:
            raise ValueError(f"value {value} not in domain {self.name!r}")
        return self.values.index(value)

    @classmethod
    def linear(cls, name: str, lo: float, hi: float, count: int) -> "ParameterDomain":
        return cls(name, tuple(np.linspace(lo, hi, count)), "linear")

    @classmethod
    def log_spaced(cls, name: str, lo: float, hi: float, count: int) -> "ParameterDomain":
        values = tuple(np.logspace(math.log10(lo), math.log10(hi), count))
        return cls(name, values, "log10")


@dataclass(frozen=True)
class LppmConfig:
    """A mechanism name plus one chosen value per parameter."""

    lppm_name: str
    assignment: Mapping[str, float]

    def __post_init__(self):
        object.__setattr__(self, "assignment", dict(self.assignment))


# ---------------------------------------------------------------------------
# Planar Laplace noise (geo-indistinguishability)
# ---------------------------------------------------------------------------

_P_SERIES = 1e-5  # below it the series, above it Newton (see below)


def _inverse_radial_cdf(p: np.ndarray) -> np.ndarray:
    """eps * r for the radius r with 1 - (1 + eps*r)e^{-eps*r} = p, vectorized over
    p in [0, 1): the radius at eps = 1, since the radius scales as 1/eps.

    r = -(W₋₁((p-1)/e) + 1)/eps (Andrés et al., CCS 2013), W₋₁ the lower Lambert
    W branch. For x = eps*r: below p = 1e-5, where x - log1p(x) cancels, the
    branch-point series in sqrt(2p) (Corless et al. 1996); above, four Newton
    steps on the convex x - log1p(x) = L = -log1p(-p), down from the upper bound
    L + log1p(L + sqrt(2L)). Relative error against a 60-digit root: < 1e-13 on
    [2^-53, 1 - 2^-53]. p = 0 gives 0."""
    p = np.asarray(p, dtype=float)
    s = np.sqrt(2.0 * p)
    series = s * (1.0 + s * (1.0 / 3.0 + s * (11.0 / 72.0 + s * (43.0 / 540.0 + s * (769.0 / 17280.0)))))
    # The floor keeps the Newton arm, discarded below _P_SERIES, off 0/0.
    target = np.maximum(-np.log1p(-p), _P_SERIES)
    x = target + np.log1p(target + np.sqrt(2.0 * target))
    for _ in range(4):
        x -= (x - np.log1p(x) - target) * (1.0 + x) / x
    return np.where(p < _P_SERIES, series, x)


def _geo_i_prepare(trace: Trace, rng: RandomStream) -> tuple:
    """geo-i's epsilon-free work: per record, the radius at epsilon 1 and the
    cosine and sine of the direction, from one generator on ``rng``."""
    n = len(trace)
    gen = rng.generator()
    p = gen.uniform(size=n)
    theta = gen.uniform(0.0, _TWO_PI, size=n)
    return trace, _inverse_radial_cdf(p), np.cos(theta), np.sin(theta)


def _geo_i_transform(prepared: tuple, assignment: Mapping[str, float]) -> Trace:
    """Each record moved by (r, theta) in its own tangent plane, r the unit
    radius over epsilon; user, count and timestamps are kept."""
    trace, unit_r, cos_theta, sin_theta = prepared
    r = unit_r / assignment["epsilon"]
    return Trace(trace.user, *latlon_from_local(trace.lat, trace.lon, r * cos_theta, r * sin_theta), trace.time_ms)


# ---------------------------------------------------------------------------
# Speed smoothing (uniform spatial resampling + uniform re-timestamping)
# ---------------------------------------------------------------------------

def _promesse_prepare(trace: Trace, rng: RandomStream) -> tuple:
    """promesse's alpha-free work: the path in the plane of the first record,
    its step lengths and their running sum (None for an empty trace)."""
    if len(trace) == 0:
        return trace, None
    xs, ys = local_xy(trace.lat[0], trace.lon[0], trace.lat, trace.lon)
    seg = np.hypot(np.diff(xs), np.diff(ys))
    return trace, (xs, ys, seg, np.concatenate(([0.0], np.cumsum(seg))))


def _promesse_transform(prepared: tuple, assignment: Mapping[str, float]) -> Trace:
    """Points at along-path distances 0, alpha, 2 alpha, ... up to the last
    full multiple, timestamped uniformly between the first and last instants;
    a path that supports fewer than two points is suppressed."""
    trace, path = prepared
    if path is None:
        return trace
    alpha = assignment["alpha"]
    xs, ys, seg, cum = path
    total = float(cum[-1])

    count = int(math.floor(total / alpha + 1e-9)) + 1
    if count < 2:
        return Trace(trace.user)

    offsets = alpha * np.arange(count, dtype=float)
    j = np.clip(np.searchsorted(cum, offsets, side="right") - 1, 0, len(trace) - 2)
    seg_j = seg[j]
    frac = np.where(seg_j > 0, (offsets - cum[j]) / np.where(seg_j > 0, seg_j, 1.0), 0.0)
    px = xs[j] + frac * (xs[j + 1] - xs[j])
    py = ys[j] + frac * (ys[j + 1] - ys[j])
    out_lat, out_lon = latlon_from_local(trace.lat[0], trace.lon[0], px, py)

    t0, t1 = int(trace.time_ms[0]), int(trace.time_ms[-1])
    steps = np.arange(count, dtype=float)
    times = t0 + np.rint(steps * (t1 - t0) / (count - 1)).astype(np.int64)
    return Trace(trace.user, out_lat, out_lon, times)


# ---------------------------------------------------------------------------
# The mechanism table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Mechanism:
    """One mechanism: how to apply it and how to tune it.

    ``prepare(trace, rng)`` does the parameter-free work of protecting a
    trace on one stream, and ``transform(prepared, assignment)`` finishes it
    for one assignment. The parameter names are the names of ``domains``,
    the grids the tuner searches, and ``objectives`` is the default
    objective spec.
    """

    prepare: Callable
    transform: Callable
    domains: tuple
    objectives: str


MECHANISMS = {
    # Planar-Laplace noise; epsilon is in 1/meters and the mean displacement
    # is 2/epsilon, so smaller epsilon adds more noise.
    "geo-i": Mechanism(
        prepare=_geo_i_prepare,
        transform=_geo_i_transform,
        domains=(ParameterDomain.log_spaced("epsilon", 0.001, 0.1, 101),),
        objectives="min:pois,min:distortion:scale=500",
    ),
    # Speed smoothing at spacing alpha (meters); it obfuscates time rather
    # than places. The grid starts at 5 m: a zero spacing would never end.
    "promesse": Mechanism(
        prepare=_promesse_prepare,
        transform=_promesse_transform,
        domains=(ParameterDomain.linear("alpha", 5.0, 500.0, 101),),
        objectives="min:pois,max:coverage",
    ),
}


def mechanism(name: str) -> Mechanism:
    """The table entry of a mechanism name."""
    return lookup(MECHANISMS, "mechanism", name)


def checked(config: LppmConfig) -> Mechanism:
    """A config's table entry, once its name is known and its parameters are
    exactly the entry's domain names, each in (0, inf)."""
    entry = mechanism(config.lppm_name)
    names = [d.name for d in entry.domains]
    missing = [p for p in names if p not in config.assignment]
    if missing:
        raise ConfigurationError(f"{config.lppm_name!r} config missing parameters: {missing}")
    extra = [p for p in config.assignment if p not in names]
    if extra:
        raise ConfigurationError(f"{config.lppm_name!r} config has unknown parameters: {extra}")
    for name, value in config.assignment.items():
        if not 0 < value < math.inf:
            raise ConfigurationError(f"{name} must be positive and finite")
    return entry


def prepare_lppm(lppm_name: str, trace: Trace, rng: RandomStream) -> tuple:
    """A named mechanism's parameter-free work on a trace and stream (see
    :class:`Mechanism`): what :func:`apply_lppm` takes, for any assignment."""
    return mechanism(lppm_name).prepare(trace, rng)


def apply_lppm(config: LppmConfig, prepared: tuple) -> Trace:
    """The protected trace under a configuration, from what :func:`prepare_lppm`
    returned for the same mechanism: ``apply_lppm(config, prepare_lppm(
    config.lppm_name, trace, rng))`` protects ``trace`` on stream ``rng``."""
    return checked(config).transform(prepared, config.assignment)
