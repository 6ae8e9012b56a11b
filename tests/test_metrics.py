import numpy as np
import pytest

from alp.errors import ConfigurationError
from alp.geo import EARTH_RADIUS_M, CellGrid, GeoPoint, Trace, distance_meters, latlon_from_local
from alp.lppm import LppmConfig, apply_lppm, geo_i_obfuscate
from alp.metrics import (
    EVALUATORS,
    Poi,
    PoiClusteringParams,
    bind_evaluators,
    evaluator,
    extract_pois,
    median_of_k,
    poi_retrieval,
)
from alp.rng import RandomStream
from alp.synth import SynthSpec, generate_synthetic_dataset

from conftest import make_trace, plane_points, points_of, trace_of
from oracles import (
    brute_area_coverage,
    brute_poi_retrieval,
    brute_spatial_distortion,
    scan_extract_pois,
    window_extract_pois,
)

BASE = GeoPoint(45.0, 5.0)
PARAMS = PoiClusteringParams()


def poi_at(x_m, y_m, user="u"):
    (point,) = plane_points(BASE, [(x_m, y_m)])
    return Poi(user, point, 0, 0, 1)


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
        assert distance_meters(pois[0].centroid, GeoPoint(*point)) < 1e-6
        assert pois[0].size == 31

    def test_constant_motion_yields_no_poi(self):
        # 10 m/s sampled every 30 s for 20 min: 300 m steps break every cluster
        offsets = [(i * 300.0, 0.0) for i in range(41)]
        trace = trace_of(points_at(offsets), step_ms=30_000)
        assert extract_pois(trace, PARAMS) == []

    def test_empty_trace(self):
        assert extract_pois(Trace("u"), PARAMS) == []

    def test_emitted_clusters_respect_diameter_and_span(self, gen):
        from conftest import random_walk_trace

        for _ in range(20):
            trace = random_walk_trace(gen, n=60, step_sd_m=40.0, step_ms=60_000)
            times = trace.time_ms.tolist()
            points = points_of(trace)
            for poi in extract_pois(trace, PARAMS):
                assert poi.end_ms - poi.start_ms >= PARAMS.min_stay_ms
                assert poi.size >= 1
                first = times.index(poi.start_ms)
                members = points[first:first + poi.size]
                assert times[first + poi.size - 1] == poi.end_ms
                diameter = max(
                    (distance_meters(a, b)
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
            lat, lon = latlon_from_local(BASE, *np.array(coords).T)
            trace = Trace("u", lat, lon, times)
            got = extract_pois(trace, PARAMS)
            expected = window_extract_pois(trace, PARAMS)
            assert len(got) == len(expected)
            for g, e in zip(got, expected):
                assert (g.start_ms, g.end_ms, g.size) == (e.start_ms, e.end_ms, e.size)
                assert distance_meters(g.centroid, e.centroid) < 1e-6

    @pytest.mark.parametrize("sample_period_s", [240, 30])
    def test_matches_scan_oracle_on_synth_days(self, sample_period_s):
        # Full days, raw and geo-i protected from 2 km to 20 m of mean noise:
        # long dwell clusters, short noisy ones and travel, at up to 2,880
        # records a trace.
        spec = SynthSpec(users=2, pois_per_user=3, sample_period_s=sample_period_s, seed=3)
        for raw in generate_synthetic_dataset(spec).dataset:
            traces = [raw] + [geo_i_obfuscate(raw, epsilon, RandomStream(5).child(raw.user, i))
                              for i, epsilon in enumerate(np.logspace(-3, -1, 13))]
            for trace in traces:
                assert extract_pois(trace, PARAMS) == scan_extract_pois(trace, PARAMS)

    @pytest.mark.parametrize("lat0, along_meridian", [(45.0, True), (0.0, False)])
    def test_matches_scan_oracle_at_the_diameter(self, lat0, along_meridian):
        # Steps of max_d +- 1e-7 m back and forth along a meridian or the
        # equator, where the haversine distance is exactly R * angle: every
        # step, and every anchor distance that is not about 0, lies inside
        # the bounds' margin, so only the exact scan can decide.
        gen = np.random.default_rng(7)
        n = 400
        steps = (-1.0) ** np.arange(n - 1) * (PARAMS.max_diameter_m + gen.choice([-1e-7, 1e-7], n - 1))
        offsets = np.degrees(np.concatenate(([0.0], np.cumsum(steps))) / EARTH_RADIUS_M)
        lat = lat0 + offsets if along_meridian else np.full(n, lat0)
        lon = np.full(n, 5.0) if along_meridian else 5.0 + offsets
        trace = Trace("u", lat, lon, 300_000 * np.arange(n))
        pois = extract_pois(trace, PARAMS)
        assert pois == scan_extract_pois(trace, PARAMS)
        assert len(pois) > 10 and max(p.size for p in pois) > 4

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
        p = [poi_at(0, 0)]
        assert poi_retrieval(p, p, 100.0) == 1.0

    def test_all_hidden(self):
        assert poi_retrieval([poi_at(0, 0)], [], 100.0) == 0.0
        assert poi_retrieval([], [poi_at(0, 0)], 100.0) == 0.0

    def test_half_retrieval(self):
        p_true = [poi_at(0, 0), poi_at(1000, 0)]
        p_obf = [poi_at(50, 0), poi_at(5000, 5000)]
        assert poi_retrieval(p_true, p_obf, 100.0) == 0.5

    def test_self_match_is_one(self, gen):
        for _ in range(20):
            pois = [poi_at(float(gen.uniform(-2000, 2000)), float(gen.uniform(-2000, 2000)))
                    for _ in range(int(gen.integers(1, 8)))]
            assert poi_retrieval(pois, pois, float(gen.uniform(1, 300))) == 1.0

    def test_matches_brute_force(self, gen):
        for _ in range(200):
            p_true = [poi_at(float(gen.uniform(-1500, 1500)), float(gen.uniform(-1500, 1500)))
                      for _ in range(int(gen.integers(1, 11)))]
            p_obf = [poi_at(float(gen.uniform(-1500, 1500)), float(gen.uniform(-1500, 1500)))
                     for _ in range(int(gen.integers(0, 11)))]
            threshold = float(gen.uniform(50, 400))
            assert poi_retrieval(p_true, p_obf, threshold) == \
                brute_poi_retrieval(p_true, p_obf, threshold)


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
        # the evaluator's kd-tree holds each distinct raw point once
        if shape == "all-duplicate":
            offsets = [(120.0, -40.0)] * 150
        else:
            stops = [(0.0, 0.0), (900.0, 300.0), (-600.0, 800.0)]
            walk = [(300.0 * k, 100.0 * k) for k in range(1, 4)]
            offsets = [stops[0]] * 60 + walk + [stops[1]] * 50 + [stops[2]] * 40 + [stops[0]] * 20
        raw = make_trace([(p.lat, p.lon) for p in points_at(offsets)])
        protected = apply_lppm(LppmConfig("geo-i", {"epsilon": 0.01}), raw, RandomStream(5))
        got = EVALUATORS["distortion"].bind(raw, PARAMS, CellGrid())(protected)
        want = brute_spatial_distortion(points_of(raw), points_of(protected))
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)
        assert EVALUATORS["distortion"].bind(raw, PARAMS, CellGrid())(raw) == 0.0


class TestAreaCoverage:
    def test_identical_sets(self):
        grid = CellGrid(250, BASE.lat)
        pts = points_at([(0, 0), (600, 600), (-400, 100)])
        assert bound_coverage(pts, pts, grid) == 1.0

    def test_disjoint_sets(self):
        grid = CellGrid(250, BASE.lat)
        raw = points_at([(0, 0)])
        prot = points_at([(50_000, 50_000)])
        assert bound_coverage(raw, prot, grid) == 0.0

    def test_half_overlap(self):
        grid = CellGrid(250, BASE.lat)
        raw = points_at([(0, 0), (1000, 1000)])       # cells A, B
        prot = points_at([(0, 0), (-1000, -1000)])    # cells A, C
        assert bound_coverage(raw, prot, grid) == 0.5

    def test_empty_sets_score_zero(self):
        grid = CellGrid(250, BASE.lat)
        assert bound_coverage(points_at([(0, 0)]), [], grid) == 0.0
        assert bound_coverage([], points_at([(0, 0)]), grid) == 0.0

    def test_matches_brute_force(self, gen):
        for _ in range(200):
            cell_size = float(gen.uniform(100, 500))
            grid = CellGrid(cell_size, BASE.lat)
            raw = points_at([(float(gen.uniform(-2000, 2000)), float(gen.uniform(-2000, 2000)))
                             for _ in range(int(gen.integers(1, 101)))])
            prot = points_at([(float(gen.uniform(-2000, 2000)), float(gen.uniform(-2000, 2000)))
                              for _ in range(int(gen.integers(1, 101)))])
            assert bound_coverage(raw, prot, grid) == \
                brute_area_coverage(raw, prot, cell_size, BASE.lat)


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

    def test_single_evaluation_passthrough(self):
        stub = _SequenceEvaluator([0.7])
        trace = self.trace()
        value = median_of_k({"s": stub.bind(trace)}, self.CONFIG, trace, 1, RandomStream(0))
        assert value == {"s": 0.7}
        assert stub.calls == 1

    def test_median_of_three(self):
        stub = _SequenceEvaluator([0.9, 0.2, 0.5])
        trace = self.trace()
        bound = {"s": stub.bind(trace)}
        assert median_of_k(bound, self.CONFIG, trace, 3, RandomStream(0)) == {"s": 0.5}

    def test_deterministic_mechanism_median_equals_single(self):
        trace = self.trace()
        bound = bind_evaluators(["distortion"], trace, PARAMS, CellGrid())
        v1 = median_of_k(bound, self.CONFIG, trace, 1, RandomStream(1))
        v3 = median_of_k(bound, self.CONFIG, trace, 3, RandomStream(1))
        assert v1 == v3

    def test_rejects_even_or_non_positive_k(self):
        trace = self.trace()
        bound = bind_evaluators(["distortion"], trace, PARAMS, CellGrid())
        for k in (0, 2, -1):
            with pytest.raises(ConfigurationError, match="robust_k must be an odd integer >= 1"):
                median_of_k(bound, self.CONFIG, trace, k, RandomStream(0))


class TestRegistry:
    def test_unknown_evaluator(self):
        with pytest.raises(ConfigurationError, match="unknown evaluator"):
            evaluator("nope")

    def test_values_stay_in_range(self, gen):
        from conftest import random_walk_trace

        grid = CellGrid(250, BASE.lat)
        for seed in range(5):
            trace = random_walk_trace(gen, n=80, step_sd_m=30.0)
            protected = apply_lppm(LppmConfig("geo-i", {"epsilon": 0.01}),
                                   trace, RandomStream(seed))
            pois = EVALUATORS["pois"].bind(trace, PARAMS, CellGrid())(protected)
            coverage = EVALUATORS["coverage"].bind(trace, PARAMS, grid)(protected)
            distortion = EVALUATORS["distortion"].bind(trace, PARAMS, CellGrid())(protected)
            assert 0.0 <= pois <= 1.0
            assert 0.0 <= coverage <= 1.0
            assert distortion >= 0.0
