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
                   and protected traces, near-square at the raw trace's mean
                   latitude (utility, higher is better).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError, lookup
from .geo import (
    CellGrid,
    Trace,
    chord_m,
    haversine_m,
    latlon_from_local,
    local_xy,
    sphere_xyz,
)
from .lppm import LppmConfig, apply_lppm, prepare_lppm
from .rng import RandomStream


@dataclass(frozen=True)
class PoiClusteringParams:
    """Knobs of the stay-point extractor and the POI matching threshold."""

    max_diameter_m: float = 200.0
    min_stay_ms: int = 15 * 60 * 1000
    match_threshold_m: float = 100.0

    def __post_init__(self):
        if not (self.max_diameter_m > 0 and self.min_stay_ms > 0 and self.match_threshold_m > 0):
            raise ValueError("clustering parameters must be strictly positive")


_POI_COLUMNS = (("lat", np.float64), ("lon", np.float64), ("start_ms", np.int64), ("end_ms", np.int64),
                ("size", np.int64))


@dataclass(frozen=True, eq=False)
class Pois:
    """Stay clusters reduced to their centroids, stored as columns like a
    :class:`~alp.geo.Trace`: one row per POI, in time order.

    ``lat`` and ``lon`` are the centroids' float64 degrees, ``start_ms`` and
    ``end_ms`` the int64 times of each cluster's first and last record, and
    ``size`` its int64 record count; all five are read-only numpy arrays of one
    length. Two sets are equal when every column is, floats included.
    """

    lat: np.ndarray = ()
    lon: np.ndarray = ()
    start_ms: np.ndarray = ()
    end_ms: np.ndarray = ()
    size: np.ndarray = ()

    def __post_init__(self):
        shapes = set()
        for name, dtype in _POI_COLUMNS:
            column = np.array(getattr(self, name), dtype=dtype)  # a private copy
            column.flags.writeable = False
            object.__setattr__(self, name, column)
            shapes.add(column.shape)
        if shapes != {(self.size.size,)}:
            raise ValueError("POI columns must be 1-D arrays of equal lengths")

    def __len__(self) -> int:
        return len(self.size)

    def __eq__(self, other):
        if not isinstance(other, Pois):
            return NotImplemented
        return all(np.array_equal(getattr(self, name), getattr(other, name)) for name, _ in _POI_COLUMNS)


def extract_pois(trace: Trace, params: PoiClusteringParams) -> Pois:
    """Greedy forward-scan spatio-temporal clustering, as :class:`Pois` columns.

    A candidate cluster grows with consecutive records while its diameter
    (max pairwise distance) stays within the limit: record j joins the open
    cluster [start, j) unless its reach, the largest distance from j to a
    cluster member, exceeds ``max_diameter_m``. When a record breaks the
    diameter, the cluster becomes a POI if its time span reaches the minimum
    stay, and the scan restarts at the breaking record.

    Every distance is a chord c between the records' 3-D points
    (:attr:`~alp.geo.Trace.xyz`, shared with the distortion evaluator): "arc >
    max_d" is "c > max_c", with max_c = ``chord_m(max_d)``. In floating point
    the two differ only within about 3e-8 m of max_d: on 400,000 random pairs
    at 200 m +- delta they never disagreed at delta = 3e-8 m, 11 times at
    1e-8 m, 2,550 times at 3e-9 m.

    Every test compares a squared chord with one constant, ``max_c ** 2``.
    The exact test takes the squared chord from j to each member in turn, in
    plain Python floats: per axis the difference from j, squared as a product,
    summed x, then y, then z; it breaks at the first member above the limit.
    Each shortcut computes its squared chord with the same roundings (numpy's
    ``** 2`` is a product too), and rounding is monotone, so it decides
    exactly as the exact test does:

    * Segment cut: the step from j-1 to j is, bit for bit, the exact test's
      term for member j-1, so a step above the limit breaks whatever cluster
      is open. These steps, computed for every j in one vectorized pass, cut
      the trace into segments that the scan handles independently. No
      cluster outlasts its segment, so a segment whose time span is below
      the minimum stay holds no POI and is skipped unscanned: the duration
      threshold of stay-point detection (Li et al., "Mining user similarity
      based on location history", ACM GIS 2008).
    * Join: along each axis, the difference from j to the farther corner of
      the members' bounding box bounds every member's difference. If these
      corner differences give at most the limit, j joins; only records that
      this test does not join get the exact scan.
    """
    n = len(trace)
    if n == 0:
        return Pois()

    limit2 = chord_m(params.max_diameter_m) ** 2
    xyz = trace.xyz
    steps2 = np.diff(xyz, axis=0) ** 2
    cuts = np.flatnonzero(steps2[:, 0] + steps2[:, 1] + steps2[:, 2] > limit2) + 1
    firsts, lasts = np.append(0, cuts), np.append(cuts - 1, n - 1)  # segment s: records firsts[s]..lasts[s]
    kept = trace.time_ms[lasts] - trace.time_ms[firsts] >= params.min_stay_ms
    if not kept.any():
        return Pois()

    clusters = []  # (start, end) of every cluster of a kept segment
    for first, last in zip(firsts[kept].tolist(), lasts[kept].tolist()):
        points = xyz[first:last + 1].tolist()
        start = 0  # the open cluster is points[start:j]
        # The low and high corners of the members' bounding box.
        (x0, y0, z0) = (x1, y1, z1) = points[0]
        for j, (x, y, z) in enumerate(points[1:], 1):
            a, b = x - x0, x1 - x
            dx = a if a > b else b
            a, b = y - y0, y1 - y
            dy = a if a > b else b
            a, b = z - z0, z1 - z
            dz = a if a > b else b
            if dx * dx + dy * dy + dz * dz > limit2 and _reaches_beyond(points[start:j], x, y, z, limit2):
                clusters.append((first + start, first + j - 1))
                start = j
                x0, y0, z0 = x1, y1, z1 = x, y, z
                continue
            if x < x0:
                x0 = x
            elif x > x1:
                x1 = x
            if y < y0:
                y0 = y
            elif y > y1:
                y1 = y
            if z < z0:
                z0 = z
            elif z > z1:
                z1 = z
        clusters.append((first + start, last))
    return _stay_pois(trace, clusters, params.min_stay_ms)


def _reaches_beyond(members: list, x: float, y: float, z: float, limit2: float) -> bool:
    """Whether the squared chord from (x, y, z) to some member exceeds limit2."""
    for xm, ym, zm in members:
        dx, dy, dz = x - xm, y - ym, z - zm
        if dx * dx + dy * dy + dz * dz > limit2:
            return True
    return False


def _stay_pois(trace: Trace, clusters: list, min_stay_ms: int) -> Pois:
    """The POIs of the clusters (start, end) that last ``min_stay_ms``, in order.

    A centroid is the members' mean in the local plane at the cluster's first
    record. All are built in one pass: :func:`~alp.geo.local_xy` and
    :func:`~alp.geo.latlon_from_local` take one origin per member and per
    cluster.
    """
    lat, lon, times = trace.lat, trace.lon, trace.time_ms
    starts, ends = np.array(clusters).T
    stays = times[ends] - times[starts] >= min_stay_ms
    starts, ends = starts[stays], ends[stays]
    if len(starts) == 0:
        return Pois()
    sizes = ends - starts + 1
    stops = np.cumsum(sizes)
    begins = stops - sizes  # cluster c's members are members[begins[c]:stops[c]]
    members = np.arange(stops[-1]) + np.repeat(starts - begins, sizes)
    lat0, lon0 = lat[starts], lon[starts]
    xs, ys = local_xy(np.repeat(lat0, sizes), np.repeat(lon0, sizes), lat[members], lon[members])
    # np.mean's pairwise sum and division, without its per-call overhead.
    bounds = list(zip(begins.tolist(), stops.tolist()))
    mean_x = np.array([np.add.reduce(xs[a:b]) for a, b in bounds]) / sizes
    mean_y = np.array([np.add.reduce(ys[a:b]) for a, b in bounds]) / sizes
    return Pois(*latlon_from_local(lat0, lon0, mean_x, mean_y), times[starts], times[ends], sizes)


def _f_score(matched: int, n_true: int, n_found: int) -> float:
    """F-score of ``matched`` hits among ``n_found`` found and ``n_true`` true
    items, recall capped at 1 (several found POIs can hit one true POI)."""
    if matched == 0:
        return 0.0
    precision = matched / n_found
    recall = min(1.0, matched / n_true)
    return 2.0 * precision * recall / (precision + recall)


def poi_retrieval(pois_true: Pois, pois_obf: Pois, threshold_m: float) -> float:
    """F-score of POIs recovered from the protected trace, in [0, 1].

    Recall counts protected POIs within the threshold of a true POI over the
    number of true POIs (capped at 1 when several protected POIs hit the
    same true one); precision divides the same count by the number of
    protected POIs. Empty sets score 0. Both sets are :class:`Pois` columns,
    matched in one table of distances.
    """
    if not threshold_m > 0:
        raise ValueError("threshold must be positive")
    # Row i holds the distances from protected POI i to every true POI.
    d = haversine_m(pois_obf.lat[:, None], pois_obf.lon[:, None], pois_true.lat, pois_true.lon)
    matched = int(np.count_nonzero(np.any(d <= threshold_m, axis=1)))
    return _f_score(matched, len(pois_true), len(pois_obf))


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

    The search runs over each distinct raw location once, in ascending (lat, lon)
    order, which fixes the scan's first-index tie-break: dwell-heavy traces repeat
    a few points many times, and duplicates only slow it. An empty protected trace
    distorts nothing and scores 0; an empty raw trace is a caller error.
    """
    if len(raw) == 0:
        raise ValueError("raw location set must be non-empty")
    raw_lat, raw_lon = np.array(sorted(set(zip(raw.lat.tolist(), raw.lon.tolist())))).T
    nearest = _nearest_finder(sphere_xyz(raw_lat, raw_lon))

    def evaluate(protected: Trace) -> float:
        if len(protected) == 0:
            return 0.0
        # Chord length is monotone in arc length, so the chord nearest
        # neighbour is also the great-circle nearest neighbour; report
        # the haversine value.
        idx = nearest(protected.xyz)
        d = haversine_m(protected.lat, protected.lon, raw_lat[idx], raw_lon[idx])
        return float(np.mean(d))

    return evaluate


# Most distinct raw points that _nearest_finder scans instead of putting in a
# kd-tree. At 2,880 and 20,160 query points the scan is no slower than a
# kd-tree query up to about 32 raw points, and it spares the scipy import.
_SCAN_MAX_RAW_POINTS = 32


def _nearest_finder(points_xyz: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """A function from query points to the index of their chord-nearest row
    of ``points_xyz`` (the first index on a tie when it scans)."""
    if len(points_xyz) > _SCAN_MAX_RAW_POINTS:
        # Imported here: scipy.spatial takes longer to import than the rest
        # of the package, and only large raw sets need it.
        from scipy.spatial import cKDTree

        query = cKDTree(points_xyz).query
        return lambda query_xyz: query(query_xyz)[1]

    def scan(query_xyz: np.ndarray) -> np.ndarray:
        # Squared chords as differences, not dot products: those lose about
        # 0.1 m of resolution near zero distance.
        qx, qy, qz = (np.ascontiguousarray(c) for c in query_xyz.T)
        best = np.zeros(len(query_xyz), dtype=np.intp)
        best_d2 = np.full(len(query_xyz), np.inf)
        for i, (px, py, pz) in enumerate(points_xyz):
            d2 = (qx - px) ** 2 + (qy - py) ** 2 + (qz - pz) ** 2
            best[d2 < best_d2] = i
            np.minimum(best_d2, d2, out=best_d2)
        return best

    return scan


def _bind_coverage(raw: Trace, poi_params: PoiClusteringParams, grid: CellGrid) -> Callable[[Trace], float]:
    """Coverage on cells near-square at the raw trace's mean latitude, so that no other
    trace moves it. cumsum adds left to right, like a plain float sum (np.sum's pairwise
    order could move the reference by an ulp). An empty raw trace scores 0."""
    ref_lat = float(np.cumsum(raw.lat)[-1]) / len(raw) if len(raw) else 0.0
    cells_raw = grid.cells_of(raw.lat, raw.lon, ref_lat)

    def evaluate(protected: Trace) -> float:
        cells_obf = grid.cells_of(protected.lat, protected.lon, ref_lat)
        return _f_score(len(cells_raw & cells_obf), len(cells_raw), len(cells_obf))

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


def prepare_replicates(lppm_name: str, raw: Trace, k: int, rng: RandomStream) -> tuple:
    """The k replicates of a unit that every state is scored on: replicate i is
    the mechanism's parameter-free work on ``raw`` and the sub-stream ``rep/i``
    (:func:`~alp.lppm.prepare_lppm`), done once per (unit, replicate)."""
    checked_robust_k(k)
    return tuple(prepare_lppm(lppm_name, raw, rng.child("rep", i)) for i in range(k))


def median_of_k(bound: dict, config: LppmConfig, replicates: tuple) -> dict:
    """Median value of every bound evaluator over the protected replicates.

    Each of the k replicates from :func:`prepare_replicates` is transformed
    once under ``config`` (:func:`~alp.lppm.apply_lppm`): only the
    parameter-dependent rest of the mechanism runs per state. Every bound
    evaluator scores that same protected trace, and its 3-D points
    (:attr:`~alp.geo.Trace.xyz`) are computed once for all of them.
    """
    k = len(replicates)
    values = {name: [] for name in bound}
    for prepared in replicates:
        protected = apply_lppm(config, prepared)
        for name, evaluate in bound.items():
            values[name].append(evaluate(protected))
    return {name: sorted(vs)[k // 2] for name, vs in values.items()}
