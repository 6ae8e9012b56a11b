"""Independent brute-force oracles used to cross-check the library.

Everything here is deliberately simple and slow: plain loops, full pairwise
tables, and textbook arithmetic, kept free of the vectorized shortcuts the
library itself uses. The exception is ``scan_extract_pois``, which keeps the
library's arithmetic so that the two can be compared exactly.
"""

import math

import numpy as np

from alp.geo import EARTH_RADIUS_M, GeoPoint, Record, distance_meters, from_local_plane, local_xy
from alp.metrics import Poi


def brute_poi_retrieval(pois_true, pois_obf, threshold_m):
    """F-score by direct set counting over all POI pairs."""
    if not pois_true or not pois_obf:
        return 0.0
    matched = 0
    for p2 in pois_obf:
        if any(distance_meters(p.centroid, p2.centroid) <= threshold_m for p in pois_true):
            matched += 1
    recall = min(1.0, matched / len(pois_true))
    precision = matched / len(pois_obf)
    if precision + recall == 0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def brute_haversine_m(a, b):
    """Great-circle distance in meters, textbook haversine on math scalars."""
    phi1, phi2 = math.radians(a.lat), math.radians(b.lat)
    dphi = phi2 - phi1
    dlam = math.radians(b.lon - a.lon)
    h = math.sin(dphi / 2) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2) ** 2
    return 2 * EARTH_RADIUS_M * math.asin(math.sqrt(min(1.0, h)))


def brute_spatial_distortion(raw_points, protected_points):
    """Mean of per-point minima over the full distance table."""
    if not protected_points:
        return 0.0
    mins = [
        min(brute_haversine_m(raw, prot) for raw in raw_points)
        for prot in protected_points
    ]
    return sum(mins) / len(mins)


def brute_cell(point, cell_size_m, ref_lat_deg):
    """Grid index from scratch with math-module arithmetic."""
    scale = EARTH_RADIUS_M * math.cos(math.radians(ref_lat_deg))
    ix = math.floor(math.radians(point.lon) * scale / cell_size_m)
    iy = math.floor(math.radians(point.lat) * EARTH_RADIUS_M / cell_size_m)
    return (ix, iy)


def brute_area_coverage(raw_points, protected_points, cell_size_m, ref_lat_deg):
    """F-score over cell sets computed with :func:`brute_cell`."""
    cells_raw = {brute_cell(p, cell_size_m, ref_lat_deg) for p in raw_points}
    cells_obf = {brute_cell(p, cell_size_m, ref_lat_deg) for p in protected_points}
    if not cells_raw or not cells_obf:
        return 0.0
    common = len(cells_raw & cells_obf)
    recall = common / len(cells_raw)
    precision = common / len(cells_obf)
    if precision + recall == 0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def window_extract_pois(trace, params):
    """Stay extraction via exhaustive maximal-window enumeration.

    For each start index the maximal end index whose window diameter stays
    within the limit is found from a full pairwise distance table; windows
    meeting the minimum stay become POIs and the walk restarts after them.
    """
    records = [Record(trace.user, GeoPoint(la, lo), t) for la, lo, t in
               zip(trace.lat.tolist(), trace.lon.tolist(), trace.time_ms.tolist())]
    n = len(records)
    if n == 0:
        return []
    dist = [[distance_meters(a.point, b.point) for b in records] for a in records]

    def diameter(i, j):
        return max(
            (dist[a][b] for a in range(i, j + 1) for b in range(a + 1, j + 1)),
            default=0.0,
        )

    pois = []
    i = 0
    while i < n:
        j = i
        while j + 1 < n and diameter(i, j + 1) <= params.max_diameter_m:
            j += 1
        if records[j].time_ms - records[i].time_ms >= params.min_stay_ms:
            window = records[i:j + 1]
            phi0 = math.radians(window[0].point.lat)
            lam0 = math.radians(window[0].point.lon)
            xs = [EARTH_RADIUS_M * (math.radians(r.point.lon) - lam0) * math.cos(phi0) for r in window]
            ys = [EARTH_RADIUS_M * (math.radians(r.point.lat) - phi0) for r in window]
            centroid = GeoPoint(
                math.degrees(phi0 + (sum(ys) / len(ys)) / EARTH_RADIUS_M),
                math.degrees(lam0 + (sum(xs) / len(xs)) / (EARTH_RADIUS_M * math.cos(phi0))),
            )
            pois.append(Poi(trace.user, centroid, records[i].time_ms,
                            records[j].time_ms, j - i + 1))
        i = j + 1
    return pois


def scan_extract_pois(trace, params):
    """Stay extraction that scores every record against the whole open cluster.

    The plain form of ``alp.metrics.extract_pois``: one O(cluster) reach
    scan per record, with the library's arithmetic, so the two must agree
    exactly, centroid floats included.
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

    pois = []

    def close_cluster(start, end):
        if times[end] - times[start] < params.min_stay_ms:
            return
        origin = GeoPoint(float(lat[start]), float(lon[start]))
        xs, ys = local_xy(origin, lat[start:end + 1], lon[start:end + 1])
        centroid = from_local_plane(origin, (float(np.mean(xs)), float(np.mean(ys))))
        pois.append(Poi(trace.user, centroid, int(times[start]), int(times[end]), end - start + 1))

    start = 0
    for j in range(1, n):
        sl = slice(start, j)
        a = np.sin((phi[j] - phi[sl]) / 2.0) ** 2 + cos_phi[sl] * cos_phi[j] * np.sin((lam[j] - lam[sl]) / 2.0) ** 2
        reach = radius2 * float(np.arcsin(np.sqrt(np.max(np.clip(a, 0.0, 1.0)))))
        if reach > max_d:
            close_cluster(start, j - 1)
            start = j
    close_cluster(start, n - 1)
    return pois


def point_segment_distance(p, a, b):
    """(distance, parameter t) from point p to segment a-b in the plane."""
    ax, ay = a
    bx, by = b
    px, py = p
    dx, dy = bx - ax, by - ay
    seg2 = dx * dx + dy * dy
    if seg2 == 0:
        return math.hypot(px - ax, py - ay), 0.0
    t = max(0.0, min(1.0, ((px - ax) * dx + (py - ay) * dy) / seg2))
    cx, cy = ax + t * dx, ay + t * dy
    return math.hypot(px - cx, py - cy), t


def monotone_arc_positions(path_xy, points_xy, tol_m=1e-6):
    """Arc-length positions of points lying on a polyline, scanned forward.

    Walks the polyline segments in order and projects each query point onto
    the first segment (at or after the previous match) that contains it, so
    self-crossing paths are handled as long as the points were emitted in
    increasing arc order. Raises if a point is off the path.
    """
    seg_len = [
        math.hypot(path_xy[k + 1][0] - path_xy[k][0], path_xy[k + 1][1] - path_xy[k][1])
        for k in range(len(path_xy) - 1)
    ]
    cum = [0.0]
    for length in seg_len:
        cum.append(cum[-1] + length)

    positions = []
    seg = 0
    last_pos = -math.inf
    for p in points_xy:
        found = None
        for k in range(seg, len(seg_len)):
            d, t = point_segment_distance(p, path_xy[k], path_xy[k + 1])
            if d <= tol_m:
                pos = cum[k] + t * seg_len[k]
                if pos >= last_pos - tol_m:
                    found = (k, pos)
                    break
        if found is None:
            raise AssertionError(f"point {p} does not lie on the path")
        seg, pos = found
        positions.append(pos)
        last_pos = pos
    return positions
