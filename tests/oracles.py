"""Independent brute-force oracles used to cross-check the library.

Everything here is deliberately simple and slow: plain loops, full pairwise
tables, and textbook arithmetic, kept free of the vectorized shortcuts the
library itself uses. ``scan_extract_pois`` decides diameters with haversine
distances, while the library compares chords, so it is an independent
reference; the two can differ only on pairs within about 3e-8 m of the
limit. ``one_shot_geo_i`` and ``one_shot_promesse`` protect a trace in one
pass, with no prepared state, and must equal ``alp``'s prepared replicates
bit for bit. ``csv_write_dataset`` keeps the library's former bytes so that
the two can be compared exactly.
"""

import csv
import decimal
import itertools
import math

import numpy as np

from alp.geo import EARTH_RADIUS_M, GeoPoint, Trace, latlon_from_local, local_xy
from alp.lppm import LppmConfig, _inverse_radial_cdf
from alp.metrics import Pois


def brute_poi_retrieval(pois_true, pois_obf, threshold_m):
    """F-score by direct set counting over all pairs of POI centroids."""
    true = [GeoPoint(la, lo) for la, lo in zip(pois_true.lat.tolist(), pois_true.lon.tolist())]
    obf = [GeoPoint(la, lo) for la, lo in zip(pois_obf.lat.tolist(), pois_obf.lon.tolist())]
    if not true or not obf:
        return 0.0
    matched = 0
    for p2 in obf:
        if any(brute_haversine_m(p, p2) <= threshold_m for p in true):
            matched += 1
    recall = min(1.0, matched / len(true))
    precision = matched / len(obf)
    if precision + recall == 0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def grid_optimum(cost_fn, lppm_name, domain):
    """The least cost over every value of a one-parameter domain: the exact
    optimum that an annealing run over the same ``cost_fn`` can reach."""
    return min(cost_fn(LppmConfig(lppm_name, {domain.name: value})) for value in domain.values)


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


def brute_mean_latitude(points):
    """Mean latitude of the points, summed left to right in a plain loop (the
    built-in ``sum`` compensates on Python 3.12 and later), 0.0 for none."""
    total = 0.0
    for p in points:
        total += p.lat
    return total / len(points) if points else 0.0


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
    points = [GeoPoint(la, lo) for la, lo in zip(trace.lat.tolist(), trace.lon.tolist())]
    times = trace.time_ms.tolist()
    n = len(points)
    if n == 0:
        return Pois()
    dist = [[brute_haversine_m(a, b) for b in points] for a in points]

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
        if times[j] - times[i] >= params.min_stay_ms:
            window = points[i:j + 1]
            phi0 = math.radians(window[0].lat)
            lam0 = math.radians(window[0].lon)
            xs = [EARTH_RADIUS_M * (math.radians(p.lon) - lam0) * math.cos(phi0) for p in window]
            ys = [EARTH_RADIUS_M * (math.radians(p.lat) - phi0) for p in window]
            centroid = GeoPoint(
                math.degrees(phi0 + (sum(ys) / len(ys)) / EARTH_RADIUS_M),
                math.degrees(lam0 + (sum(xs) / len(xs)) / (EARTH_RADIUS_M * math.cos(phi0))),
            )
            pois.append((centroid.lat, centroid.lon, times[i], times[j], j - i + 1))
        i = j + 1
    return Pois(*zip(*pois)) if pois else Pois()


def scan_extract_pois(trace, params):
    """Stay extraction that scores every record against the whole open cluster.

    The plain form of ``alp.metrics.extract_pois``: one O(cluster) reach
    scan per record, with no bounds and no segment cuts. Its reach is the
    haversine distance, where the library compares chords of ``sphere_xyz``;
    the two decide alike unless a pair lies within about 3e-8 m of the
    limit, so away from that band they must agree exactly. The centroids use
    the library's ``local_xy`` and ``latlon_from_local``, so they agree to the
    last bit.
    """
    n = len(trace)
    if n == 0:
        return Pois()

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
        xs, ys = local_xy(origin.lat, origin.lon, lat[start:end + 1], lon[start:end + 1])
        centroid = GeoPoint(*map(float, latlon_from_local(origin.lat, origin.lon, np.mean(xs), np.mean(ys))))
        pois.append((centroid.lat, centroid.lon, int(times[start]), int(times[end]), end - start + 1))

    start = 0
    for j in range(1, n):
        sl = slice(start, j)
        a = np.sin((phi[j] - phi[sl]) / 2.0) ** 2 + cos_phi[sl] * cos_phi[j] * np.sin((lam[j] - lam[sl]) / 2.0) ** 2
        reach = radius2 * float(np.arcsin(np.sqrt(np.max(np.clip(a, 0.0, 1.0)))))
        if reach > max_d:
            close_cluster(start, j - 1)
            start = j
    close_cluster(start, n - 1)
    return Pois(*zip(*pois)) if pois else Pois()


def one_shot_geo_i(trace, epsilon, rng):
    """The trace under planar-Laplace noise at ``epsilon``, drawn and applied in
    one pass: one generator on ``rng`` draws every record's radial-CDF level p,
    then every direction theta; each record moves r = W(p) / epsilon along theta
    in its own tangent plane. The same draws and arithmetic as ``alp``'s geo-i,
    so a prepared replicate must equal it bit for bit."""
    gen = rng.generator()
    p = gen.uniform(size=len(trace))
    theta = gen.uniform(0.0, 2.0 * math.pi, size=len(trace))
    r = _inverse_radial_cdf(p) / epsilon
    lat, lon = latlon_from_local(trace.lat, trace.lon, r * np.cos(theta), r * np.sin(theta))
    return Trace(trace.user, lat, lon, trace.time_ms)


def one_shot_promesse(trace, alpha):
    """The trace resampled every ``alpha`` meters along its path, one output
    point at a time: the path lies in the plane of the first record, each point
    is found by walking the segments forward, and the timestamps are spread
    evenly between the first and last instants. A path that supports fewer
    than two points gives the empty trace. Each value takes the same
    roundings as in ``alp``'s promesse, so the two must agree bit for bit."""
    if len(trace) == 0:
        return trace
    xs, ys = local_xy(trace.lat[0], trace.lon[0], trace.lat, trace.lon)
    seg = np.hypot(np.diff(xs), np.diff(ys)).tolist()
    cum = [0.0]
    for length in seg:
        cum.append(cum[-1] + length)
    count = math.floor(cum[-1] / alpha + 1e-9) + 1
    if count < 2:
        return Trace(trace.user)
    px, py, times = [], [], []
    t0, t1 = int(trace.time_ms[0]), int(trace.time_ms[-1])
    j = 0
    for k in range(count):
        offset = alpha * float(k)
        while j + 1 < len(seg) and cum[j + 1] <= offset:
            j += 1
        frac = (offset - cum[j]) / seg[j] if seg[j] > 0 else 0.0
        px.append(xs[j] + frac * (xs[j + 1] - xs[j]))
        py.append(ys[j] + frac * (ys[j + 1] - ys[j]))
        times.append(t0 + round(float(k) * (t1 - t0) / (count - 1)))
    lat, lon = latlon_from_local(trace.lat[0], trace.lon[0], np.array(px), np.array(py))
    return Trace(trace.user, lat, lon, times)


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


def csv_write_dataset(dataset, fh):
    """The plain writer: every row through ``csv.writer``, coordinates as ``repr``."""
    writer = csv.writer(fh)
    writer.writerow(["user", "timestamp", "lat", "lon"])
    for trace in dataset:
        writer.writerows(zip(
            itertools.repeat(trace.user), trace.time_ms.tolist(),
            map(repr, trace.lat.tolist()), map(repr, trace.lon.tolist()),
        ))


def decimal_radial_quantile(epsilon, p, digits=60):
    """Planar-Laplace radius at radial-CDF level p, by Newton in ``digits``-digit decimals.

    Solves x - ln(1 + x) = -ln(1 - p) for x = epsilon * r, which is
    1 - (1 + x)e^{-x} = p rearranged. The left side is convex and increasing,
    so Newton started above the root, at L + sqrt(2L), descends to it
    monotonically. Returns a Decimal; p = 0 gives 0.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        target = -(1 - decimal.Decimal(p)).ln()
        if target == 0:
            return decimal.Decimal(0)
        x = target + (2 * target).sqrt()
        for _ in range(200):
            step = (x - (1 + x).ln() - target) * (1 + x) / x
            x -= step
            if abs(step) <= x.scaleb(-digits + 5):
                break
        return x / decimal.Decimal(epsilon)
