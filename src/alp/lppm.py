"""Location privacy protection mechanisms (LPPMs).

A mechanism turns one trace into one protected trace under a parameter
assignment. ``MECHANISMS`` holds one entry per mechanism (``geo-i`` and
``promesse``): its transform, its parameter domains, its default
median-of-k and its default objectives. An :class:`LppmConfig` names the
mechanism and its values, so evaluators and the tuner stay
mechanism-agnostic; :func:`checked` is the one place that validates it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .errors import ConfigurationError, lookup
from .geo import EARTH_RADIUS_M, GeoPoint, Trace, _wrap_degrees, latlon_from_local, local_xy
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
        try:
            return self.values.index(value)
        except ValueError:
            pass
        close = [i for i, v in enumerate(self.values) if math.isclose(v, value, rel_tol=1e-12)]
        if close:
            return close[0]
        raise ValueError(f"value {value} not in domain {self.name!r}")

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

    def as_row(self):
        """(names, values) in a stable order, for reports."""
        items = sorted(self.assignment.items())
        return ";".join(k for k, _ in items), ";".join(repr(v) for _, v in items)


# ---------------------------------------------------------------------------
# Planar Laplace noise (geo-indistinguishability)
# ---------------------------------------------------------------------------

_P_SERIES = 1e-5  # below it the series, above it Newton (see below)


def _inverse_radial_cdf(epsilon: float, p: np.ndarray) -> np.ndarray:
    """Radius r with 1 - (1 + eps*r)e^{-eps*r} = p, vectorized over p in [0, 1).

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
    return np.where(p < _P_SERIES, series, x) / epsilon


def geo_i_sample_radius(epsilon: float, p):
    """Radius whose planar-Laplace radial CDF at privacy level epsilon equals p.

    Accepts a scalar or an array of probabilities; returns matching shape.
    """
    if not 0 < epsilon < math.inf:
        raise ValueError("epsilon must be positive and finite")
    arr = np.asarray(p, dtype=float)
    if arr.size and not ((arr > 0.0) & (arr < 1.0)).all():
        raise ValueError("probabilities must lie strictly inside (0, 1)")
    radii = _inverse_radial_cdf(epsilon, arr)
    return float(radii) if np.isscalar(p) or arr.ndim == 0 else radii


def geo_i_obfuscate(trace: Trace, epsilon: float, rng: RandomStream) -> Trace:
    """Displace every record independently with planar-Laplace noise.

    Each point is moved by (r, theta) in its own tangent plane, with theta
    uniform on [0, 2*pi) and r drawn through the inverse radial CDF. User id,
    record count, timestamps, and ordering are preserved.
    """
    if not 0 < epsilon < math.inf:
        raise ValueError("epsilon must be positive and finite")
    n = len(trace)
    if n == 0:
        return trace
    gen = rng.generator()
    p = gen.uniform(size=n)
    theta = gen.uniform(0.0, _TWO_PI, size=n)
    r = _inverse_radial_cdf(epsilon, p)
    dx = r * np.cos(theta)
    dy = r * np.sin(theta)

    lat, lon = trace.lat, trace.lon
    new_lat = np.clip(lat + np.degrees(dy / EARTH_RADIUS_M), -90.0, 90.0)
    new_lon = _wrap_degrees(lon + np.degrees(dx / (EARTH_RADIUS_M * np.cos(np.radians(lat)))))
    return Trace(trace.user, new_lat, new_lon, trace.time_ms)


# ---------------------------------------------------------------------------
# Speed smoothing (uniform spatial resampling + uniform re-timestamping)
# ---------------------------------------------------------------------------

def promesse_obfuscate(trace: Trace, alpha: float) -> Trace:
    """Resample the trace at spacing alpha along its path and uniformize time.

    Points are emitted at along-path distances 0, alpha, 2*alpha, ... up to
    the last full multiple; the remainder is dropped. Timestamps are spread
    uniformly between the original first and last instants. Traces whose
    path supports fewer than two output points are fully suppressed.
    """
    if not 0 < alpha < math.inf:
        raise ValueError("alpha must be positive and finite")
    n = len(trace)
    if n == 0:
        return trace

    origin = GeoPoint(float(trace.lat[0]), float(trace.lon[0]))
    xs, ys = local_xy(origin, trace.lat, trace.lon)
    seg = np.hypot(np.diff(xs), np.diff(ys))
    cum = np.concatenate(([0.0], np.cumsum(seg)))
    total = float(cum[-1])

    count = int(math.floor(total / alpha + 1e-9)) + 1
    if count < 2:
        return Trace(trace.user)

    offsets = alpha * np.arange(count, dtype=float)
    j = np.clip(np.searchsorted(cum, offsets, side="right") - 1, 0, n - 2)
    seg_j = seg[j]
    frac = np.where(seg_j > 0, (offsets - cum[j]) / np.where(seg_j > 0, seg_j, 1.0), 0.0)
    px = xs[j] + frac * (xs[j + 1] - xs[j])
    py = ys[j] + frac * (ys[j + 1] - ys[j])
    out_lat, out_lon = latlon_from_local(origin, px, py)

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

    ``transform(trace, assignment, rng)`` protects a trace. The parameter
    names are the names of ``domains``, the grids the tuner searches.
    ``robust_k`` is the default number of replicates a metric is the median
    of (1 when the transform draws no randomness), and ``objectives`` the
    default objective spec.
    """

    transform: Callable
    domains: tuple
    robust_k: int
    objectives: str


MECHANISMS = {
    # Planar-Laplace noise; epsilon is in 1/meters and the mean displacement
    # is 2/epsilon, so smaller epsilon adds more noise.
    "geo-i": Mechanism(
        transform=lambda trace, a, rng: geo_i_obfuscate(trace, a["epsilon"], rng),
        domains=(ParameterDomain.log_spaced("epsilon", 0.001, 0.1, 101),),
        robust_k=3,
        objectives="min:pois,min:distortion:scale=500",
    ),
    # Speed smoothing at spacing alpha (meters); it obfuscates time rather
    # than places. The grid starts at 5 m: a zero spacing would never end.
    "promesse": Mechanism(
        transform=lambda trace, a, rng: promesse_obfuscate(trace, a["alpha"]),
        domains=(ParameterDomain.linear("alpha", 5.0, 500.0, 101),),
        robust_k=1,
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


def apply_lppm(config: LppmConfig, trace: Trace, rng: RandomStream) -> Trace:
    """Obfuscate a trace under a named mechanism and parameter assignment."""
    return checked(config).transform(trace, config.assignment, rng)
