import numpy as np
import pytest

from alp.errors import ConfigurationError
from alp.geo import (
    EARTH_RADIUS_M,
    CellGrid,
    GeoPoint,
    Trace,
    haversine_m,
    latlon_from_local,
    local_xy,
    sphere_xyz,
)
from alp.lppm import LppmConfig
from alp.metrics import (
    _SCAN_MAX_RAW_POINTS,
    EVALUATORS,
    PoiClusteringParams,
    Pois,
    _nearest_finder,
    bind_evaluators,
    evaluator,
    extract_pois,
    median_of_k,
    poi_retrieval,
    prepare_replicates,
)
from alp.rng import RandomStream
from alp.synth import SynthSpec, generate_synthetic_dataset

from conftest import applied, make_trace, plane_points, points_of, pois_of, spans, trace_of
from oracles import (
    brute_area_coverage,
    brute_mean_latitude,
    brute_poi_retrieval,
    brute_spatial_distortion,
    scan_extract_pois,
    window_extract_pois,
)

BASE = GeoPoint(45.0, 5.0)
PARAMS = PoiClusteringParams()


def pois_at(offsets_m):
    """POIs centred at (x_east_m, y_north_m) offsets from BASE."""
    return pois_of(plane_points(BASE, offsets_m))


def points_at(offsets_m):
    return plane_points(BASE, offsets_m)


def bound_distortion(raw_points, protected_points):
    """The bound ``distortion`` evaluator on traces through the points."""
    return EVALUATORS["distortion"].bind(trace_of(raw_points), PARAMS, CellGrid())(trace_of(protected_points))


def bound_coverage(raw_points, protected_points, grid):
    """The bound ``coverage`` evaluator on traces through the points."""
    return EVALUATORS["coverage"].bind(trace_of(raw_points), PARAMS, grid)(trace_of(protected_points))


class TestExtractPois:
    def test_stationary_trace_meets_min_stay_exactly(self):
        point = (45.0, 5.0)
        trace = make_trace([point] * 31, step_ms=30_000)  # span 15 min
        pois = extract_pois(trace, PARAMS)
        assert len(pois) == 1
        assert haversine_m(pois.lat[0], pois.lon[0], *point) < 1e-6
        assert pois.size.tolist() == [31]

    def test_constant_motion_yields_no_poi(self):
        # 10 m/s sampled every 30 s for 20 min: 300 m steps break every cluster
        offsets = [(i * 300.0, 0.0) for i in range(41)]
        trace = trace_of(points_at(offsets), step_ms=30_000)
        assert extract_pois(trace, PARAMS) == Pois()

    def test_empty_trace(self):
        assert extract_pois(Trace("u"), PARAMS) == Pois()

    def test_emitted_clusters_respect_diameter_and_span(self, gen):
        from conftest import random_walk_trace

        for _ in range(20):
            trace = random_walk_trace(gen, n=60, step_sd_m=40.0, step_ms=60_000)
            times = trace.time_ms.tolist()
            points = points_of(trace)
            for start_ms, end_ms, size in spans(extract_pois(trace, PARAMS)):
                assert end_ms - start_ms >= PARAMS.min_stay_ms
                assert size >= 1
                first = times.index(start_ms)
                members = points[first:first + size]
                assert times[first + size - 1] == end_ms
                diameter = max(
                    (haversine_m(a.lat, a.lon, b.lat, b.lon)
                     for i, a in enumerate(members) for b in members[i + 1:]),
                    default=0.0,
                )
                assert diameter <= PARAMS.max_diameter_m

    def test_matches_window_oracle_on_random_traces(self, gen):
        for _ in range(100):
            n = int(gen.integers(1, 21))
            coords = []
            x = y = 0.0
            for _ in range(n):
                if gen.uniform() < 0.35:
                    x += float(gen.normal(0, 350))  # jump far: breaks clusters
                    y += float(gen.normal(0, 350))
                else:
                    x += float(gen.normal(0, 40))
                coords.append((x, y))
            times = np.cumsum(gen.integers(60_000, 600_000, size=n))
            lat, lon = latlon_from_local(BASE.lat, BASE.lon, *np.array(coords).T)
            trace = Trace("u", lat, lon, times)
            got = extract_pois(trace, PARAMS)
            expected = window_extract_pois(trace, PARAMS)
            assert spans(got) == spans(expected)
            assert (haversine_m(got.lat, got.lon, expected.lat, expected.lon) < 1e-6).all()

    @pytest.mark.parametrize("sample_period_s", [240, 30])
    def test_matches_scan_oracle_on_synth_days(self, sample_period_s):
        # Full days, raw and geo-i protected from 2 km to 20 m of mean noise:
        # long dwell clusters, short noisy ones and travel, at up to 2,880
        # records a trace.
        spec = SynthSpec(users=2, pois_per_user=3, sample_period_s=sample_period_s, seed=3)
        for raw in generate_synthetic_dataset(spec).dataset:
            traces = [raw] + [applied(LppmConfig("geo-i", {"epsilon": epsilon}), raw,
                                      RandomStream(5).child(raw.user, i))
                              for i, epsilon in enumerate(np.logspace(-3, -1, 13))]
            for trace in traces:
                assert extract_pois(trace, PARAMS) == scan_extract_pois(trace, PARAMS)

    @pytest.mark.parametrize("lat0, lon0, along_meridian", [
        (45.0, 5.0, True), (0.0, 5.0, False), (89.9, 5.0, True), (-89.9, 5.0, True),
        (45.0, 180.0, True), (0.0, 179.999, False),
    ], ids=["meridian", "equator", "meridian-north-89.9", "meridian-south-89.9",
            "meridian-lon-180", "equator-across-antimeridian"])
    def test_matches_scan_oracle_at_the_diameter(self, lat0, lon0, along_meridian):
        # Steps of max_d +- 1e-7 m back and forth along a meridian or the
        # equator, where the haversine distance is exactly R * angle: every
        # step, and every distance from a cluster's start that is not about
        # 0, lies within about 1e-6 m of the limit, so the corner test and the
        # exact scan decide next to it. The equator case from lon 179.999 steps
        # across the antimeridian.
        gen = np.random.default_rng(7)
        n = 400
        steps = (-1.0) ** np.arange(n - 1) * (PARAMS.max_diameter_m + gen.choice([-1e-7, 1e-7], n - 1))
        offsets = np.degrees(np.concatenate(([0.0], np.cumsum(steps))) / EARTH_RADIUS_M)
        lat = lat0 + offsets if along_meridian else np.full(n, lat0)
        lon = np.full(n, lon0) if along_meridian else lon0 + offsets
        lon = 180.0 - (180.0 - lon) % 360.0  # into (-180, 180]
        trace = Trace("u", lat, lon, 300_000 * np.arange(n))
        pois = extract_pois(trace, PARAMS)
        assert pois == scan_extract_pois(trace, PARAMS)
        assert len(pois) > 10 and pois.size.max() > 4

    @pytest.mark.parametrize("lat0", [45.0, 89.9])
    def test_limit_below_the_margin_joins_only_equal_records(self, lat0):
        # A diameter limit of 1e-7 m, far below a typical step: dwells of 3-14
        # equal records 2 min apart along a meridian, each left by a step of
        # 5e-7 m back or forth. Every step breaks, and no shortcut may join it.
        params = PoiClusteringParams(max_diameter_m=1e-7)
        gen = np.random.default_rng(13)
        steps = []
        for _ in range(60):
            steps += [0.0] * int(gen.integers(3, 15))
            steps.append(gen.choice([-5e-7, 5e-7]))
        offsets = np.degrees(np.concatenate(([0.0], np.cumsum(steps))) / EARTH_RADIUS_M)
        n = len(offsets)
        trace = Trace("u", lat0 + offsets, np.full(n, 5.0), 120_000 * np.arange(n))
        pois = extract_pois(trace, params)
        assert pois == scan_extract_pois(trace, params)
        assert len(pois) > 10

    def test_limit_past_half_the_circumference_never_breaks(self):
        # Antipodes and points between them, 5 min apart: one cluster.
        params = PoiClusteringParams(max_diameter_m=3e7)
        trace = make_trace([(0.0, 0.0), (0.0, 180.0), (90.0, 5.0), (-90.0, 5.0), (0.0, 0.0)], step_ms=300_000)
        pois = extract_pois(trace, params)
        assert pois == scan_extract_pois(trace, params)
        assert pois.size.tolist() == [5]

    def test_segment_of_exactly_the_minimum_stay_is_kept(self):
        # Two dwells cut apart by a 1 km jump: the first spans exactly the
        # minimum stay, the second 1 ms less.
        stay = PARAMS.min_stay_ms
        times = np.concatenate((np.linspace(0, stay, 11), 2 * stay + np.linspace(0, stay - 1, 11)))
        lat = np.repeat([45.0, 45.01], 11)
        trace = Trace("u", lat, np.full(22, 5.0), times.astype(np.int64))
        pois = extract_pois(trace, PARAMS)
        assert pois == scan_extract_pois(trace, PARAMS)
        assert spans(pois) == [(0, stay, 11)]

    def test_forced_steps_next_to_steps_inside_the_margin(self):
        # Dwells of 4-15 equal records 2 min apart along a meridian, where the
        # haversine distance is exactly R * angle, each left by a step back or
        # forth: steps of max_d + 2e-6 m and max_d + 5e-7 m cut a segment, and
        # max_d - 5e-7 m does not, so the scan decides the records after it
        # within 5e-7 m of the limit.
        gen = np.random.default_rng(11)
        max_d = PARAMS.max_diameter_m
        steps = []
        for i in range(60):
            steps += [0.0] * int(gen.integers(3, 15))
            steps.append((-1.0) ** i * gen.choice([max_d + 2e-6, max_d + 5e-7, max_d - 5e-7]))
        offsets = np.degrees(np.concatenate(([0.0], np.cumsum(steps))) / EARTH_RADIUS_M)
        n = len(offsets)
        trace = Trace("u", 45.0 + offsets, np.full(n, 5.0), 120_000 * np.arange(n))
        pois = extract_pois(trace, PARAMS)
        assert pois == scan_extract_pois(trace, PARAMS)
        assert len(pois) > 10

    def test_corner_bound_squares_as_the_exact_scan_does(self):
        # q's squared chord from p is just above the limit as the exact scan
        # rounds it, with products, and at most the limit with Python's
        # ``** 2``. The midpoint m joins p, so q reaches the corner test,
        # which must break there as the exact scan does. The oracle's
        # haversine cannot decide a pair this close to the limit.
        p, q = (45.0, 5.0), (44.99822694203999, 5.000427449655092)
        x, y = local_xy(*p, *q)
        m = latlon_from_local(*p, x / 2, y / 2)
        stay = PARAMS.min_stay_ms
        trace = Trace("u", [p[0], m[0], q[0]], [p[1], m[1], q[1]], [0, stay, stay + 60_000])
        pois = extract_pois(trace, PoiClusteringParams(max_diameter_m=199.99927535503932))
        assert spans(pois) == [(0, stay, 2)]

    def test_ring_joins_through_the_exact_scan_up_to_its_last_member(self):
        # 16 records on a circle of diameter 196 m, in a scattered order, then
        # q, 102 m out on the far side from f, the 15th. Once the box spans the
        # ring, its corner bound is about 1.4 times the diameter, so every
        # record from the 5th on joins only through the exact scan, which must
        # check each member. Only f is beyond the limit from q, and only as the
        # exact scan rounds it, summed x, then y, then z: summed z first, the
        # squared chord is exactly the limit. The oracle's haversine cannot
        # decide a pair this close to the limit.
        angles = np.radians([90, 270, 150, 210, 45, 315, 135, 225, 60, 300, 120, 240, 20, 340, 0, 180])
        x = np.append(98.0 * np.cos(angles), -102.00000009242147)
        y = np.append(98.0 * np.sin(angles), -0.0005309795966603521)
        trace = Trace("u", *latlon_from_local(BASE.lat, BASE.lon, x, y), 60_000 * np.arange(17))
        pois = extract_pois(trace, PoiClusteringParams(max_diameter_m=200.00000009205462))
        assert spans(pois) == [(0, PARAMS.min_stay_ms, 16)]
        assert extract_pois(trace, PARAMS) == scan_extract_pois(trace, PARAMS)

    def test_every_segment_pruned(self, gen):
        # Dwells of 10 records 60 s apart (9 min) between 1-5 km jumps.
        centers = np.cumsum(gen.uniform(1000.0, 5000.0, size=(30, 2)), axis=0)
        xy = np.repeat(centers, 10, axis=0) + gen.normal(0.0, 20.0, size=(300, 2))
        lat, lon = latlon_from_local(BASE.lat, BASE.lon, xy[:, 0], xy[:, 1])
        trace = Trace("u", lat, lon, 60_000 * np.arange(300))
        assert extract_pois(trace, PARAMS) == scan_extract_pois(trace, PARAMS) == Pois()

    @pytest.mark.parametrize("n, n_pois", [(1, 0), (2, 0), (200, 1)])
    def test_single_record_and_all_duplicate_traces(self, n, n_pois):
        trace = make_trace([(45.0, 5.0)] * n, step_ms=60_000)
        pois = extract_pois(trace, PARAMS)
        assert pois == scan_extract_pois(trace, PARAMS)
        assert len(pois) == n_pois

    def test_centroids_across_the_antimeridian_and_near_the_poles(self, gen):
        # Dwells of 40 jittered records, each anchored near the antimeridian
        # or at latitude +-89.9, with a jump between dwells.
        origins = [(0.0, 180.0), (45.0, -179.9999), (89.9, 30.0), (-89.9, -170.0), (89.9, 180.0),
                   (-89.9, 179.9995), (12.0, 179.9998)]
        lat, lon = [], []
        for origin in origins:
            la, lo = latlon_from_local(*origin, *gen.normal(0.0, 15.0, size=(2, 40)))
            lat.append(la)
            lon.append(lo)
        trace = Trace("u", np.concatenate(lat), np.concatenate(lon), 30_000 * np.arange(40 * len(origins)))
        pois = extract_pois(trace, PARAMS)
        assert pois == scan_extract_pois(trace, PARAMS)
        assert len(pois) == len(origins)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("column", ["lat", "lon"])
    @pytest.mark.parametrize("index", [0, 1, 25])
    def test_non_finite_coordinates_match_scan_oracle(self, value, column, index):
        # Neither extractor sees a non-finite coordinate: a NaN reach never
        # exceeds the limit, so one such record would merge the rest of the
        # trace into one cluster. The trace refuses it instead.
        coords = [(45.0, 5.0)] * 3 + [(45.01, 5.0)] * 20 + [(45.0, 5.0)] * 9
        trace = make_trace(coords, step_ms=60_000)
        columns = {"lat": trace.lat.copy(), "lon": trace.lon.copy()}
        columns[column][index] = value
        with pytest.raises(ValueError, match="coordinates must be finite"):
            Trace("u", columns["lat"], columns["lon"], trace.time_ms)


class TestPoiRetrieval:
    def test_perfect_retrieval(self):
        p = pois_at([(0, 0)])
        assert poi_retrieval(p, p, 100.0) == 1.0

    def test_all_hidden(self):
        assert poi_retrieval(pois_at([(0, 0)]), Pois(), 100.0) == 0.0
        assert poi_retrieval(Pois(), pois_at([(0, 0)]), 100.0) == 0.0

    def test_half_retrieval(self):
        p_true = pois_at([(0, 0), (1000, 0)])
        p_obf = pois_at([(50, 0), (5000, 5000)])
        assert poi_retrieval(p_true, p_obf, 100.0) == 0.5

    def test_recall_is_capped_at_one(self):
        # Several protected POIs can match one true POI; uncapped, the first
        # case would score 4/3.
        a, b, far = (0, 0), (1000, 0), (5000, 5000)
        near_a = [(10, 0), (-20, 30), (0, 40)]
        assert poi_retrieval(pois_at([a]), pois_at(near_a[:2]), 100.0) == 1.0
        assert poi_retrieval(pois_at([a, b]), pois_at(near_a + [far]), 100.0) == pytest.approx(6 / 7)

    def test_self_match_is_one(self, gen):
        for _ in range(20):
            pois = pois_at([(float(gen.uniform(-2000, 2000)), float(gen.uniform(-2000, 2000)))
                            for _ in range(int(gen.integers(1, 8)))])
            assert poi_retrieval(pois, pois, float(gen.uniform(1, 300))) == 1.0

    def test_matches_brute_force(self, gen):
        for _ in range(200):
            p_true = pois_at([(float(gen.uniform(-1500, 1500)), float(gen.uniform(-1500, 1500)))
                              for _ in range(int(gen.integers(1, 11)))])
            p_obf = pois_at([(float(gen.uniform(-1500, 1500)), float(gen.uniform(-1500, 1500)))
                             for _ in range(int(gen.integers(0, 11)))])
            threshold = float(gen.uniform(50, 400))
            assert poi_retrieval(p_true, p_obf, threshold) == \
                brute_poi_retrieval(p_true, p_obf, threshold)

    def test_matches_brute_force_at_the_threshold(self):
        # Along a meridian the haversine distance is exactly R * angle, so the
        # protected POIs sit at the threshold to within a few ulps.
        threshold = 100.0
        true = [GeoPoint(lat, 5.0) for lat in (-60.0, 0.0, 45.0)]
        obf = [GeoPoint(p.lat + sign * np.degrees((threshold + delta) / EARTH_RADIUS_M), 5.0)
               for p in true for sign in (-1.0, 1.0) for delta in (-1e-9, 0.0, 1e-9)]
        p_true = pois_of(true)
        for p_obf in [pois_of(obf)] + [pois_of([p]) for p in obf]:
            assert poi_retrieval(p_true, p_obf, threshold) == brute_poi_retrieval(p_true, p_obf, threshold)

    def test_matches_brute_force_with_many_more_protected_pois(self, gen):
        p_true = pois_at([(0, 0), (800, 300)])
        p_obf = pois_at(gen.uniform(-1500, 1500, size=(300, 2)).tolist())
        value = poi_retrieval(p_true, p_obf, 150.0)
        assert 0.0 < value == brute_poi_retrieval(p_true, p_obf, 150.0)

    def test_no_protected_pois(self):
        p_true = pois_at([(i * 500.0, 0) for i in range(5)])
        assert poi_retrieval(p_true, Pois(), 100.0) == brute_poi_retrieval(p_true, Pois(), 100.0) == 0.0

    @pytest.mark.parametrize("threshold", [0.0, -1.0, np.nan])
    def test_threshold_must_be_positive(self, threshold):
        p = pois_at([(0, 0)])
        with pytest.raises(ValueError, match="^threshold must be positive$"):
            poi_retrieval(p, p, threshold)


class TestSpatialDistortion:
    def test_identical_sets(self):
        pts = points_at([(0, 0), (100, 50)])
        assert bound_distortion(pts, pts) == 0.0

    def test_known_shift(self):
        raw = points_at([(0, 0)])
        prot = points_at([(100, 0)])
        assert bound_distortion(raw, prot) == pytest.approx(100.0, abs=0.1)

    def test_midpoint(self):
        raw = points_at([(0, 0), (1000, 0)])
        prot = points_at([(500, 0)])
        assert bound_distortion(raw, prot) == pytest.approx(500.0, abs=0.5)

    def test_empty_protected_scores_zero(self):
        assert bound_distortion(points_at([(0, 0)]), []) == 0.0

    def test_empty_raw_is_an_error(self):
        with pytest.raises(ValueError):
            bound_distortion([], points_at([(0, 0)]))

    def test_permutation_and_duplication_invariance(self, gen):
        raw = points_at([(float(gen.uniform(-500, 500)), float(gen.uniform(-500, 500)))
                         for _ in range(10)])
        prot = points_at([(float(gen.uniform(-500, 500)), float(gen.uniform(-500, 500)))
                          for _ in range(7)])
        base = bound_distortion(raw, prot)
        assert bound_distortion(raw, prot[::-1]) == pytest.approx(base, rel=1e-12)
        assert bound_distortion(raw + raw, prot) == pytest.approx(base, rel=1e-12)

    def test_matches_brute_force(self, gen):
        for _ in range(200):
            raw = points_at([(float(gen.uniform(-2000, 2000)), float(gen.uniform(-2000, 2000)))
                             for _ in range(int(gen.integers(1, 101)))])
            prot = points_at([(float(gen.uniform(-2000, 2000)), float(gen.uniform(-2000, 2000)))
                              for _ in range(int(gen.integers(0, 101)))])
            assert bound_distortion(raw, prot) == pytest.approx(
                brute_spatial_distortion(raw, prot), rel=1e-12, abs=0.0)


    @pytest.mark.parametrize("shape", ["all-duplicate", "dwell-heavy"])
    def test_bound_evaluator_matches_brute_force_on_repeated_points(self, shape):
        # the evaluator searches each distinct raw point once
        if shape == "all-duplicate":
            offsets = [(120.0, -40.0)] * 150
        else:
            stops = [(0.0, 0.0), (900.0, 300.0), (-600.0, 800.0)]
            walk = [(300.0 * k, 100.0 * k) for k in range(1, 4)]
            offsets = [stops[0]] * 60 + walk + [stops[1]] * 50 + [stops[2]] * 40 + [stops[0]] * 20
        raw = make_trace([(p.lat, p.lon) for p in points_at(offsets)])
        protected = applied(LppmConfig("geo-i", {"epsilon": 0.01}), raw, RandomStream(5))
        got = EVALUATORS["distortion"].bind(raw, PARAMS, CellGrid())(protected)
        want = brute_spatial_distortion(points_of(raw), points_of(protected))
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)
        assert EVALUATORS["distortion"].bind(raw, PARAMS, CellGrid())(raw) == 0.0


def kd_tree_distortion(raw, protected):
    """Mean haversine distance to the kd-tree nearest of the distinct raw points."""
    from scipy.spatial import cKDTree

    points = np.unique(np.column_stack((raw.lat, raw.lon)), axis=0)
    _, idx = cKDTree(sphere_xyz(points[:, 0], points[:, 1])).query(sphere_xyz(protected.lat, protected.lon))
    return float(np.mean(haversine_m(protected.lat, protected.lon, points[idx, 0], points[idx, 1])))


class TestNearestRawPointIsExact:
    """The bound distortion equals a direct kd-tree computation, on both sides
    of the distinct-point count at which the evaluator stops scanning."""

    @staticmethod
    def assert_matches_kd_tree(raw_coords, protected_coords):
        raw, protected = make_trace(raw_coords), make_trace(protected_coords)
        got = EVALUATORS["distortion"].bind(raw, PARAMS, CellGrid())(protected)
        assert got == kd_tree_distortion(raw, protected)

    @pytest.mark.parametrize("extra", [0, 1])
    def test_random_sets_at_the_scan_limit(self, gen, extra):
        m = _SCAN_MAX_RAW_POINTS + extra
        for _ in range(20):
            raw = points_at([(float(gen.uniform(-3000, 3000)), float(gen.uniform(-3000, 3000)))
                             for _ in range(m)])
            raw_trace = trace_of(raw)
            protected = applied(LppmConfig("geo-i", {"epsilon": 0.005}), trace_of(raw * 20),
                                RandomStream(int(gen.integers(1 << 30))))
            assert len(np.unique(np.column_stack((raw_trace.lat, raw_trace.lon)), axis=0)) == m
            got = EVALUATORS["distortion"].bind(raw_trace, PARAMS, CellGrid())(protected)
            assert got == kd_tree_distortion(raw_trace, protected)

    def test_exact_chord_tie_takes_the_first_point(self):
        # Mirror images about lon 0 and about lat 0 have squared chords equal
        # to the last bit from the points on the mirror line.
        raw = [(0.0, 0.001), (0.0, -0.001), (0.001, 5.0), (-0.001, 5.0)]
        queries = [(0.0, 0.0), (0.0, 5.0)]
        self.assert_matches_kd_tree(raw, queries + [(0.0, 0.0005), (0.0005, 5.0)])
        for order, want in ((raw, [0, 2]), (raw[::-1], [2, 0])):
            nearest = _nearest_finder(sphere_xyz(*np.array(order).T))
            assert nearest(sphere_xyz(*np.array(queries).T)).tolist() == want

    def test_poles(self):
        raw = [(90.0, 0.0), (90.0, 120.0), (-90.0, -45.0), (89.9999, 10.0), (-89.999, 170.0)]
        protected = [(90.0, 45.0), (90.0, 180.0), (-90.0, 180.0), (89.99995, -100.0), (-89.9995, 0.0),
                     (89.0, 30.0)]
        self.assert_matches_kd_tree(raw, protected)

    def test_antimeridian(self):
        raw = [(10.0, 179.9995), (10.0, -179.9995), (10.001, 180.0), (-10.0, -179.99999)]
        protected = [(10.0, 180.0), (10.0, -179.99999), (10.0, 179.9999), (10.0, -179.9991),
                     (10.0005, -179.9999), (-10.0, 179.9999)]
        self.assert_matches_kd_tree(raw, protected)

    def test_single_raw_point(self):
        self.assert_matches_kd_tree([(45.0, 5.0)], [(45.0, 5.0), (45.001, 5.002), (-45.0, -175.0)])

    def test_all_duplicate_raw_trace(self, gen):
        protected = [(45.0 + float(gen.normal(0, 0.01)), 5.0 + float(gen.normal(0, 0.01))) for _ in range(50)]
        self.assert_matches_kd_tree([(45.0, 5.0)] * 150, protected)


class TestAreaCoverage:
    def test_identical_sets(self):
        grid = CellGrid(250)
        pts = points_at([(0, 0), (600, 600), (-400, 100)])
        assert bound_coverage(pts, pts, grid) == 1.0

    def test_disjoint_sets(self):
        grid = CellGrid(250)
        raw = points_at([(0, 0)])
        prot = points_at([(50_000, 50_000)])
        assert bound_coverage(raw, prot, grid) == 0.0

    def test_half_overlap(self):
        grid = CellGrid(250)
        raw = points_at([(0, 0), (1000, 1000)])       # cells A, B
        prot = points_at([(0, 0), (-1000, -1000)])    # cells A, C
        assert bound_coverage(raw, prot, grid) == 0.5

    def test_empty_sets_score_zero(self):
        grid = CellGrid(250)
        assert bound_coverage(points_at([(0, 0)]), [], grid) == 0.0
        assert bound_coverage([], points_at([(0, 0)]), grid) == 0.0

    def test_matches_brute_force(self, gen):
        for _ in range(200):
            cell_size = float(gen.uniform(100, 500))
            grid = CellGrid(cell_size)
            raw = points_at([(float(gen.uniform(-2000, 2000)), float(gen.uniform(-2000, 2000)))
                             for _ in range(int(gen.integers(1, 101)))])
            prot = points_at([(float(gen.uniform(-2000, 2000)), float(gen.uniform(-2000, 2000)))
                              for _ in range(int(gen.integers(1, 101)))])
            assert bound_coverage(raw, prot, grid) == \
                brute_area_coverage(raw, prot, cell_size, brute_mean_latitude(raw))


class _SequenceEvaluator:
    """Test stub returning scripted values, one per call."""

    name = "scripted"

    def __init__(self, values):
        self.values = list(values)
        self.calls = 0

    def bind(self, raw):
        def evaluate(protected):
            value = self.values[self.calls % len(self.values)]
            self.calls += 1
            return value

        return evaluate


class TestEvaluateRobust:
    """Median-of-k robust evaluation (`median_of_k`)."""

    CONFIG = LppmConfig("promesse", {"alpha": 100.0})

    def trace(self):
        offsets = [(i * 100.0, 0.0) for i in range(20)]
        return make_trace([(p.lat, p.lon) for p in points_at(offsets)])

    def replicates(self, trace, k, rng):
        return prepare_replicates(self.CONFIG.lppm_name, trace, k, rng)

    def test_single_evaluation_passthrough(self):
        stub = _SequenceEvaluator([0.7])
        trace = self.trace()
        value = median_of_k({"s": stub.bind(trace)}, self.CONFIG, self.replicates(trace, 1, RandomStream(0)))
        assert value == {"s": 0.7}
        assert stub.calls == 1

    def test_median_of_three(self):
        stub = _SequenceEvaluator([0.9, 0.2, 0.5])
        trace = self.trace()
        bound = {"s": stub.bind(trace)}
        assert median_of_k(bound, self.CONFIG, self.replicates(trace, 3, RandomStream(0))) == {"s": 0.5}

    def test_deterministic_mechanism_median_equals_single(self):
        trace = self.trace()
        bound = bind_evaluators(["distortion"], trace, PARAMS, CellGrid())
        v1 = median_of_k(bound, self.CONFIG, self.replicates(trace, 1, RandomStream(1)))
        v3 = median_of_k(bound, self.CONFIG, self.replicates(trace, 3, RandomStream(1)))
        assert v1 == v3

    def test_rejects_even_or_non_positive_k(self):
        trace = self.trace()
        bound = bind_evaluators(["distortion"], trace, PARAMS, CellGrid())
        for k in (0, 2, -1):
            with pytest.raises(ConfigurationError, match="robust_k must be an odd integer >= 1"):
                median_of_k(bound, self.CONFIG, self.replicates(trace, k, RandomStream(0)))


class TestRegistry:
    def test_unknown_evaluator(self):
        with pytest.raises(ConfigurationError, match="unknown evaluator"):
            evaluator("nope")

    def test_values_stay_in_range(self, gen):
        from conftest import random_walk_trace

        grid = CellGrid(250)
        for seed in range(5):
            trace = random_walk_trace(gen, n=80, step_sd_m=30.0)
            protected = applied(LppmConfig("geo-i", {"epsilon": 0.01}), trace, RandomStream(seed))
            pois = EVALUATORS["pois"].bind(trace, PARAMS, CellGrid())(protected)
            coverage = EVALUATORS["coverage"].bind(trace, PARAMS, grid)(protected)
            distortion = EVALUATORS["distortion"].bind(trace, PARAMS, CellGrid())(protected)
            assert 0.0 <= pois <= 1.0
            assert 0.0 <= coverage <= 1.0
            assert distortion >= 0.0
