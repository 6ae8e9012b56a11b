"""Synthetic mobility traces with planted points of interest.

Each user gets a fixed set of well-separated POI locations. Every day the
user dwells at each POI once (in a random order that continues from the
previous day's end) and walks between them in straight lines at constant
speed, sampled at a fixed period. The planted POI locations are returned
alongside the dataset so tests can check extraction against ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .geo import Dataset, GeoPoint, Trace, latlon_from_local
from .rng import RandomStream

# 2024-01-01T00:00:00Z; all synthetic activity starts here
SYNTH_EPOCH_MS = 1_704_067_200_000
# Every user's POIs lie in a square of _EXTENT_M meters centred here, at
# least _MIN_POI_SEPARATION_M apart.
_CENTER_LAT, _CENTER_LON = 45.0, 5.0
_EXTENT_M = 4000.0
_MIN_POI_SEPARATION_M = 1000.0


@dataclass(frozen=True)
class SynthSpec:
    """Shape of the generated dataset."""

    users: int = 1
    days: int = 1
    pois_per_user: int = 2
    dwell_minutes: float = 30.0
    speed_mps: float = 10.0
    sample_period_s: float = 30.0
    seed: int = 0
    pad_to_day_end: bool = True

    def __post_init__(self):
        if min(self.users, self.days, self.pois_per_user) < 1:
            raise ConfigurationError("users, days, and pois_per_user must be >= 1")
        if min(self.dwell_minutes, self.speed_mps, self.sample_period_s) <= 0:
            raise ConfigurationError("dwell, speed, and sample period must be positive")


@dataclass(frozen=True)
class SyntheticDataset:
    """Generated traces plus the planted POI locations per user."""

    dataset: Dataset
    true_pois: dict


def _place_pois(spec: SynthSpec, gen: np.random.Generator) -> np.ndarray:
    """Rejection-sample POI positions (plane meters) with a minimum separation."""
    half = _EXTENT_M / 2.0
    placed: list = []
    attempts = 0
    while len(placed) < spec.pois_per_user:
        candidate = gen.uniform(-half, half, size=2)
        if all(np.hypot(*(candidate - p)) >= _MIN_POI_SEPARATION_M for p in placed):
            placed.append(candidate)
        attempts += 1
        if attempts > 10_000:
            raise ConfigurationError(f"cannot place {spec.pois_per_user} POIs {_MIN_POI_SEPARATION_M:g} m apart "
                                     f"in a {_EXTENT_M:g} m square")
    return np.array(placed)


def _user_segments(spec: SynthSpec, pois: np.ndarray, gen: np.random.Generator):
    """Piecewise motion segments (t0_s, t1_s, xy0, xy1) over all days."""
    segments = []
    current = 0
    day_len = 86400.0
    for day in range(spec.days):
        others = [i for i in range(spec.pois_per_user) if i != current]
        gen.shuffle(others)
        order = [current] + others
        t = day * day_len
        day_end = (day + 1) * day_len
        for k, idx in enumerate(order):
            dwell_s = spec.dwell_minutes * 60.0 * gen.uniform(1.0, 2.0)
            end = min(t + dwell_s, day_end)
            segments.append((t, end, pois[idx], pois[idx]))
            t = end
            if t >= day_end:
                break
            if k + 1 < len(order):
                nxt = order[k + 1]
                dist = float(np.hypot(*(pois[nxt] - pois[idx])))
                end = min(t + dist / spec.speed_mps, day_end)
                segments.append((t, end, pois[idx], pois[nxt]))
                t = end
                if t >= day_end:
                    break
        current = order[min(len(order) - 1, k)]
        if spec.pad_to_day_end and t < day_end:
            segments.append((t, day_end, pois[current], pois[current]))
    return segments


def _sample_segments(segments, period_s: float) -> tuple:
    """(times_s, xy) sampled every period while a segment is active.

    Sample instants fall on the global period grid but are kept only when
    some segment covers them, so trip-style days leave a gap until the next
    day's itinerary starts.
    """
    start = segments[0][0]
    end = segments[-1][1]
    times = np.arange(start, end, period_s)
    t0s = np.array([s[0] for s in segments])
    t1s = np.array([s[1] for s in segments])
    p0 = np.array([s[2] for s in segments])
    p1 = np.array([s[3] for s in segments])
    j = np.clip(np.searchsorted(t1s, times, side="right"), 0, len(segments) - 1)
    covered = (times >= t0s[j]) & (times < t1s[j] + 1e-9)
    times, j = times[covered], j[covered]
    span = np.maximum(t1s[j] - t0s[j], 1e-9)
    frac = np.clip((times - t0s[j]) / span, 0.0, 1.0)
    xy = p0[j] + frac[:, None] * (p1[j] - p0[j])
    return times, xy


def generate_synthetic_dataset(spec: SynthSpec) -> SyntheticDataset:
    """Build the dataset; identical specs (including seed) reproduce it exactly."""
    stream = RandomStream(spec.seed)
    traces = []
    true_pois: dict = {}
    for u in range(spec.users):
        user = f"u{u:03d}"
        gen = stream.child("synth", user).generator()
        pois_xy = _place_pois(spec, gen)
        segments = _user_segments(spec, pois_xy, gen)
        times_s, xy = _sample_segments(segments, spec.sample_period_s)
        lat, lon = latlon_from_local(_CENTER_LAT, _CENTER_LON, xy[:, 0], xy[:, 1])
        time_ms = SYNTH_EPOCH_MS + np.rint(times_s * 1000.0).astype(np.int64)
        traces.append(Trace(user, lat, lon, time_ms))
        poi_lat, poi_lon = latlon_from_local(_CENTER_LAT, _CENTER_LON, pois_xy[:, 0], pois_xy[:, 1])
        true_pois[user] = [GeoPoint(float(la), float(lo)) for la, lo in zip(poi_lat, poi_lon)]
    return SyntheticDataset(Dataset(tuple(traces)), true_pois)
