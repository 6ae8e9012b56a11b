"""Location privacy protection mechanisms (LPPMs).

A mechanism turns one trace into one protected trace under a parameter
assignment. An :class:`LppmConfig` names the mechanism (``geo-i`` or
``promesse``) and its values, so evaluators and the tuner stay
mechanism-agnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Mapping

import numpy as np

from .errors import ConfigurationError
from .geo import EARTH_RADIUS_M, GeoPoint, Trace, _wrap_degrees, latlon_from_local, local_xy
from .rng import RandomStream, RngLike, as_generator

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

def _radial_cdf(x):
    """CDF of the planar-Laplace radius in units of 1/epsilon: 1 - (1+x)e^{-x}."""
    return 1.0 - (1.0 + x) * np.exp(-x)


def _inverse_radial_cdf(epsilon: float, p: np.ndarray) -> np.ndarray:
    """Solve 1 - (1+eps*r)e^{-eps*r} = p by bisection, vectorized over p.

    The bracket is grown geometrically, then 100 halvings push the absolute
    error far below the 1e-9 relative tolerance of the sampler contract.
    """
    p = np.asarray(p, dtype=float)
    hi = 1.0
    pmax = float(np.max(p)) if p.size else 0.0
    while _radial_cdf(hi) < pmax:
        hi *= 2.0
        if hi > 2.0 ** 30:  # unreachable for p < 1
            raise ValueError("failed to bracket radial quantile")
    lo = np.zeros_like(p)
    hi = np.full_like(p, hi)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        below = _radial_cdf(mid) < p
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi) / epsilon


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


def geo_i_obfuscate(trace: Trace, epsilon: float, rng: RngLike) -> Trace:
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
    gen = as_generator(rng)
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
# Mechanism classes, looked up by name
# ---------------------------------------------------------------------------

class Mechanism:
    """Base class for trace-to-trace protection mechanisms.

    Subclasses declare ``name``, ``deterministic``, and their parameters as
    keyword constructor arguments listed in ``_param_names``.
    """

    name: ClassVar[str]
    deterministic: ClassVar[bool]
    _param_names: ClassVar[tuple] = ()

    def transform(self, trace: Trace, rng: RngLike | None = None) -> Trace:
        raise NotImplementedError

    @classmethod
    def default_domains(cls) -> list:
        raise NotImplementedError


class GeoIndistinguishability(Mechanism):
    """Planar-Laplace noise with privacy parameter epsilon (1/meters).

    Smaller epsilon adds more noise: the mean displacement is 2/epsilon.
    """

    name = "geo-i"
    deterministic = False
    _param_names = ("epsilon",)

    def __init__(self, epsilon: float = 0.01):
        self.epsilon = float(epsilon)
        if not 0 < self.epsilon < math.inf:
            raise ConfigurationError("epsilon must be positive and finite")

    def transform(self, trace: Trace, rng: RngLike | None = None) -> Trace:
        if rng is None:
            rng = RandomStream(0)
        return geo_i_obfuscate(trace, self.epsilon, rng)

    @classmethod
    def default_domains(cls) -> list:
        return [ParameterDomain.log_spaced("epsilon", 0.001, 0.1, 101)]


class Promesse(Mechanism):
    """Speed smoothing: spatial resampling at spacing alpha (meters).

    Deterministic; obfuscates the temporal dimension rather than locations.
    """

    name = "promesse"
    deterministic = True
    _param_names = ("alpha",)

    def __init__(self, alpha: float = 100.0):
        self.alpha = float(alpha)
        if not 0 < self.alpha < math.inf:
            raise ConfigurationError("alpha must be positive and finite")

    def transform(self, trace: Trace, rng: RngLike | None = None) -> Trace:
        return promesse_obfuscate(trace, self.alpha)

    @classmethod
    def default_domains(cls) -> list:
        # The grid starts at 5 m: a zero spacing would degenerate into
        # infinite resampling, so the mechanism requires alpha > 0.
        return [ParameterDomain.linear("alpha", 5.0, 500.0, 101)]


_REGISTRY = {cls.name: cls for cls in (GeoIndistinguishability, Promesse)}


def mechanism_names() -> list:
    return sorted(_REGISTRY)


def get_mechanism_class(name: str):
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown mechanism {name!r}; registered: {', '.join(mechanism_names())}"
        ) from None


def default_domains(lppm_name: str) -> list:
    """The per-parameter value grids searched by the tuner."""
    return get_mechanism_class(lppm_name).default_domains()


def make_mechanism(config: LppmConfig) -> Mechanism:
    """Instantiate the mechanism named by a config with its assigned values."""
    cls = get_mechanism_class(config.lppm_name)
    missing = [p for p in cls._param_names if p not in config.assignment]
    if missing:
        raise ConfigurationError(f"{config.lppm_name!r} config missing parameters: {missing}")
    extra = [p for p in config.assignment if p not in cls._param_names]
    if extra:
        raise ConfigurationError(f"{config.lppm_name!r} config has unknown parameters: {extra}")
    return cls(**config.assignment)


def apply_lppm(config: LppmConfig, trace: Trace, rng: RngLike) -> Trace:
    """Obfuscate a trace under a named mechanism and parameter assignment."""
    return make_mechanism(config).transform(trace, rng)
