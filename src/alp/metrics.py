"""Points-of-interest extraction and the privacy/utility metric evaluators.

``EVALUATORS`` maps each metric name to its table entry, in report order.
An entry's ``bind(raw, poi_params, grid)`` precomputes what depends on the
raw trace alone and returns a ``protected -> value`` callable; every
setting is passed explicitly. The three evaluators:

* ``pois``       - F-score of POIs re-extracted from the protected trace,
                   matched to true POIs within a distance threshold (privacy,
                   lower is better for the user).
* ``distortion`` - mean distance from each protected location to the nearest
                   raw location, in meters (utility, lower is better).
* ``coverage``   - F-score over the sets of grid cells touched by the raw
                   and protected traces (utility, higher is better).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError, lookup
from .geo import (
    EARTH_RADIUS_M,
    CellGrid,
    GeoPoint,
    Trace,
    haversine_m,
    latlon_from_local,
    local_xy,
    sphere_xyz,
)
from .lppm import LppmConfig, apply_lppm
from .rng import RandomStream

# Slack of the distance bounds in extract_pois, far above their rounding.
_MARGIN_M = 1e-6


@dataclass(frozen=True)
class PoiClusteringParams:
    """Knobs of the stay-point extractor and the POI matching threshold."""

    max_diameter_m: float = 200.0
    min_stay_ms: int = 15 * 60 * 1000
    match_threshold_m: float = 100.0

    def __post_init__(self):
        if not (self.max_diameter_m > 0 and self.min_stay_ms > 0 and self.match_threshold_m > 0):
            raise ValueError("clustering parameters must be strictly positive")


@dataclass(frozen=True)
class Poi:
    """A stay cluster reduced to its centroid; time span kept for diagnostics."""

    user: str
    centroid: GeoPoint
    start_ms: int
    end_ms: int
    size: int


def extract_pois(trace: Trace, params: PoiClusteringParams) -> list:
    """Greedy forward-scan spatio-temporal clustering.

    A candidate cluster grows with consecutive records while its diameter
    (max pairwise great-circle distance) stays within the limit: record j
    joins the open cluster [start, j) unless its reach, the largest distance
    from j to a cluster member, exceeds ``max_diameter_m``. When a record
    breaks the diameter, the cluster becomes a POI if its time span reaches
    the minimum stay, and the scan restarts at the breaking record.

    The reach is an O(cluster) numpy scan, so cheap bounds decide most
    records without it. They use the step d(j-1, j), computed for every j in
    one vectorized call, and the anchor distance d(start, j) and the
    cluster's bounding box, both taken from the points' 3-D coordinates on
    the sphere. R is the largest anchor distance in the open cluster.

    * Break: j-1 and start are members, so the reach is at least the step
      and at least d(start, j). Either one above ``max_d + _MARGIN_M``
      breaks the cluster.
    * Join: by the triangle inequality, every member m has
      d(m, j) <= d(m, start) + d(start, j) <= R + d(start, j). Every member
      also lies in the bounding box, so d(m, j) is at most the arc to the
      box corner farthest from j. If either bound is at most
      ``max_d - _MARGIN_M``, j joins.

    Only records that no bound decides get the exact scan, with the same
    arithmetic and the same ``reach > max_d`` test. The margin covers the
    rounding of the bounds, which add and compare distances computed in
    other ways than the scan. For coordinates in degree range that rounding
    is about 1e-9 m, far below the 1e-6 m margin (it grows only near
    antipodal distances). So the POIs are exactly those of the plain scan.
    """
    n = len(trace)
    if n == 0:
        return []

    lat, lon, times = trace.lat, trace.lon, trace.time_ms
    phi = np.radians(lat)
    lam = np.radians(lon)
    cos_phi = np.cos(phi)
    radius2 = 2.0 * EARTH_RADIUS_M
    max_d = params.max_diameter_m
    join_below, break_above = max_d - _MARGIN_M, max_d + _MARGIN_M

    def reach(start: int, j: int) -> float:
        sl = slice(start, j)
        a = np.sin((phi[j] - phi[sl]) / 2.0) ** 2 + cos_phi[sl] * cos_phi[j] * np.sin((lam[j] - lam[sl]) / 2.0) ** 2
        return radius2 * float(np.arcsin(np.sqrt(np.max(np.clip(a, 0.0, 1.0)))))

    def arc(chord2: float) -> float:
        """Great-circle distance of a squared chord."""
        return radius2 * math.asin(min(math.sqrt(chord2) / radius2, 1.0))

    pois = []

    def close_cluster(start: int, end: int):
        if times[end] - times[start] < params.min_stay_ms:
            return
        origin = GeoPoint(float(lat[start]), float(lon[start]))
        xs, ys = local_xy(origin, lat[start:end + 1], lon[start:end + 1])
        centroid = GeoPoint(*map(float, latlon_from_local(origin, np.mean(xs), np.mean(ys))))
        pois.append(Poi(trace.user, centroid, int(times[start]), int(times[end]), end - start + 1))

    steps = haversine_m(lat[:-1], lon[:-1], lat[1:], lon[1:]).tolist()  # steps[j - 1] = d(j-1, j)
    xyz = sphere_xyz(lat, lon).tolist()
    start = 0
    anchor_max = 0.0  # R
    # The start's 3-D point and the low and high corners of the bounding box.
    (sx, sy, sz) = (x0, y0, z0) = (x1, y1, z1) = xyz[0]
    for j in range(1, n):
        x, y, z = xyz[j]
        breaks = steps[j - 1] > break_above
        if not breaks:
            anchor = arc((x - sx) ** 2 + (y - sy) ** 2 + (z - sz) ** 2)
            if anchor + anchor_max > join_below:
                corner = arc(max(x - x0, x1 - x) ** 2 + max(y - y0, y1 - y) ** 2 + max(z - z0, z1 - z) ** 2)
                breaks = anchor > break_above or (corner > join_below and reach(start, j) > max_d)
        if breaks:
            close_cluster(start, j - 1)
            start, anchor_max = j, 0.0
            sx, sy, sz = x0, y0, z0 = x1, y1, z1 = x, y, z
            continue
        if anchor > anchor_max:
            anchor_max = anchor
        x0, y0, z0 = min(x0, x), min(y0, y), min(z0, z)
        x1, y1, z1 = max(x1, x), max(y1, y), max(z1, z)
    close_cluster(start, n - 1)
    return pois


def _f_score(precision: float, recall: float) -> float:
    if precision + recall == 0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def poi_retrieval(pois_true: Sequence[Poi], pois_obf: Sequence[Poi], threshold_m: float) -> float:
    """F-score of POIs recovered from the protected trace, in [0, 1].

    Recall counts protected POIs within the threshold of a true POI over the
    number of true POIs (capped at 1 when several protected POIs hit the
    same true one); precision divides the same count by the number of
    protected POIs. Empty sets score 0.
    """
    if not threshold_m > 0:
        raise ValueError("threshold must be positive")
    if not pois_true or not pois_obf:
        return 0.0
    lat_t = np.array([p.centroid.lat for p in pois_true])
    lon_t = np.array([p.centroid.lon for p in pois_true])
    matched = 0
    for p in pois_obf:
        if np.any(haversine_m(p.centroid.lat, p.centroid.lon, lat_t, lon_t) <= threshold_m):
            matched += 1
    recall = min(1.0, matched / len(pois_true))
    precision = matched / len(pois_obf)
    return _f_score(precision, recall)


def _cell_f_score(cells_raw: set, cells_obf: set) -> float:
    if not cells_raw or not cells_obf:
        return 0.0
    common = len(cells_raw & cells_obf)
    recall = common / len(cells_raw)
    precision = common / len(cells_obf)
    return _f_score(precision, recall)


# ---------------------------------------------------------------------------
# The evaluator table: each metric is bound to the raw trace once
# ---------------------------------------------------------------------------

def _bind_pois(raw: Trace, poi_params: PoiClusteringParams, grid: CellGrid) -> Callable[[Trace], float]:
    pois_raw = extract_pois(raw, poi_params)

    def evaluate(protected: Trace) -> float:
        pois_obf = extract_pois(protected, poi_params)
        return poi_retrieval(pois_raw, pois_obf, poi_params.match_threshold_m)

    return evaluate


def _bind_distortion(raw: Trace, poi_params: PoiClusteringParams, grid: CellGrid) -> Callable[[Trace], float]:
    """Mean distance from protected locations to the nearest raw location.

    The kd-tree holds each distinct raw location once: dwell-heavy traces
    repeat a few points many times, and duplicates only slow the query. An
    empty protected trace distorts nothing and scores 0; an empty raw trace
    is a caller error.
    """
    # Imported here: scipy.spatial takes longer to import than the rest
    # of the package, and protect and synth never measure distortion.
    from scipy.spatial import cKDTree

    if len(raw) == 0:
        raise ValueError("raw location set must be non-empty")
    points = np.unique(np.column_stack((raw.lat, raw.lon)), axis=0)
    raw_lat, raw_lon = points[:, 0], points[:, 1]
    tree = cKDTree(sphere_xyz(raw_lat, raw_lon))

    def evaluate(protected: Trace) -> float:
        if len(protected) == 0:
            return 0.0
        # Chord length is monotone in arc length, so the chord nearest
        # neighbour is also the great-circle nearest neighbour; report
        # the haversine value.
        _, idx = tree.query(sphere_xyz(protected.lat, protected.lon))
        d = haversine_m(protected.lat, protected.lon, raw_lat[idx], raw_lon[idx])
        return float(np.mean(d))

    return evaluate


def _bind_coverage(raw: Trace, poi_params: PoiClusteringParams, grid: CellGrid) -> Callable[[Trace], float]:
    cells_raw = grid.cells_of(raw.lat, raw.lon)

    def evaluate(protected: Trace) -> float:
        if len(protected) == 0:
            return 0.0
        return _cell_f_score(cells_raw, grid.cells_of(protected.lat, protected.lon))

    return evaluate


@dataclass(frozen=True)
class Evaluator:
    """A named metric; ``prepare(raw, poi_params, grid)`` returns its bound
    ``protected -> value`` callable. ``bind`` stays a method so that the
    benchmark's tracer can time each bound callable under ``name``."""

    name: str
    prepare: Callable

    def bind(self, raw: Trace, poi_params: PoiClusteringParams, grid: CellGrid) -> Callable[[Trace], float]:
        return self.prepare(raw, poi_params, grid)


EVALUATORS = {e.name: e for e in (Evaluator("pois", _bind_pois), Evaluator("distortion", _bind_distortion),
                                  Evaluator("coverage", _bind_coverage))}


def evaluator(name: str) -> Evaluator:
    """The table entry of an evaluator name."""
    return lookup(EVALUATORS, "evaluator", name)


def bind_evaluators(names: Sequence[str], raw: Trace, poi_params: PoiClusteringParams, grid: CellGrid) -> dict:
    """Bind each named evaluator to the raw trace once (repeated names bind once)."""
    return {name: evaluator(name).bind(raw, poi_params, grid) for name in dict.fromkeys(names)}


def checked_robust_k(k: int) -> int:
    """k, once it is odd and at least 1, so that a median of k is one of them."""
    if k < 1 or k % 2 == 0:
        raise ConfigurationError(f"robust_k must be an odd integer >= 1, got {k}")
    return k


def median_of_k(bound: dict, config: LppmConfig, raw: Trace, k: int, rng: RandomStream) -> dict:
    """Median value of every bound evaluator over k protected replicates.

    Replicate i is obfuscated once, on the sub-stream ``rep/i``, and every
    bound evaluator scores that same protected trace.
    """
    checked_robust_k(k)
    values = {name: [] for name in bound}
    for i in range(k):
        protected = apply_lppm(config, raw, rng.child("rep", i))
        for name, evaluate in bound.items():
            values[name].append(evaluate(protected))
    return {name: sorted(vs)[k // 2] for name, vs in values.items()}
