"""Acceptance suite: one test per release criterion.

Each test prints a single ``[PASS]``/``[FAIL]`` line with its runtime (run
``pytest -s tests/test_acceptance.py`` to see them live). Tolerances and
time limits are pinned here and are not meant to be tuned.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy import stats

from alp.cli import main
from alp.geo import GeoPoint, Trace, haversine_m, latlon_from_local, local_xy
from alp.lppm import LppmConfig, ParameterDomain, apply_lppm, prepare_lppm
from alp.metrics import PoiClusteringParams, extract_pois, poi_retrieval
from alp.geo import CellGrid
from alp.metrics import EVALUATORS, bind_evaluators, median_of_k, prepare_replicates
from alp.optimizer import AnnealingSchedule, acceptance_probability, anneal, restrict_by_half
from alp.pipeline import RunConfig, run_online
from alp.rng import RandomStream
from alp.synth import SynthSpec, generate_synthetic_dataset

from conftest import applied, plane_points, pois_of, random_walk_trace, spans, trace_of
from oracles import (
    brute_area_coverage,
    brute_mean_latitude,
    brute_poi_retrieval,
    brute_spatial_distortion,
    monotone_arc_positions,
    window_extract_pois,
)

BASE = GeoPoint(45.0, 5.0)


@contextmanager
def criterion(number, description, limit_s):
    problems = []

    def check(condition, message):
        if not condition:
            problems.append(message)

    start = time.perf_counter()
    try:
        yield check
    finally:
        elapsed = time.perf_counter() - start
        if elapsed >= limit_s:
            problems.append(f"runtime {elapsed:.1f}s exceeded {limit_s}s limit")
        status = "PASS" if not problems else "FAIL"
        print(f"\n[{status}] criterion {number}: {description} ({elapsed:.1f}s, limit {limit_s}s)")
    assert not problems, problems


def test_criterion_1_geo_i_noise_law():
    with criterion(1, "geo-i radial noise law (KS < 0.01, mean within 2% of 2/eps)", 10) as check:
        # The radii are the steps geo-i takes from 100,000 records at one place.
        n = 100_000
        raw = Trace("u", np.full(n, BASE.lat), np.full(n, BASE.lon), np.arange(n))
        for epsilon in (0.001, 0.01, 0.1):
            prepared = prepare_lppm("geo-i", raw, RandomStream(101, f"noise-law/{epsilon}"))
            out = apply_lppm(LppmConfig("geo-i", {"epsilon": epsilon}), prepared)
            radii = np.hypot(*local_xy(raw.lat, raw.lon, out.lat, out.lon))
            cdf = lambda r, e=epsilon: 1.0 - (1.0 + e * r) * np.exp(-e * r)
            d_stat = stats.kstest(radii, cdf).statistic
            check(d_stat < 0.01, f"eps={epsilon}: KS statistic {d_stat:.4f} >= 0.01")
            mean = float(np.mean(radii))
            check(abs(mean - 2.0 / epsilon) <= 0.02 * (2.0 / epsilon),
                  f"eps={epsilon}: mean {mean:.2f} not within 2% of {2.0 / epsilon:.2f}")


def test_criterion_2_promesse_geometry():
    with criterion(2, "promesse spacing exact within 1e-6 rel, timestamp gaps within 1 ms", 5) as check:
        alpha = 175.0
        resampled = 0
        for seed in range(50):
            gen = RandomStream(seed, "walk").generator()
            trace = random_walk_trace(gen, n=100, step_sd_m=50.0, base=BASE)
            out = applied(LppmConfig("promesse", {"alpha": alpha}), trace, RandomStream(0))
            if len(out) < 2:
                continue
            resampled += 1
            anchor = GeoPoint(float(trace.lat[0]), float(trace.lon[0]))
            path = list(zip(*local_xy(anchor.lat, anchor.lon, trace.lat, trace.lon)))
            pts = list(zip(*local_xy(anchor.lat, anchor.lon, out.lat, out.lon)))
            positions = monotone_arc_positions(path, pts)
            spacings = np.diff(positions)
            check(np.allclose(spacings, alpha, rtol=1e-6),
                  f"seed={seed}: spacing off by {np.abs(spacings - alpha).max():.2e} m")
            gaps = np.diff(out.time_ms)
            check(gaps.max() - gaps.min() <= 1,
                  f"seed={seed}: timestamp gaps vary by {gaps.max() - gaps.min()} ms")
            check(out.time_ms[0] == trace.time_ms[0]
                  and out.time_ms[-1] == trace.time_ms[-1],
                  f"seed={seed}: endpoint timestamps changed")
        check(resampled >= 45, f"only {resampled}/50 walks produced output")


def test_criterion_3_metric_oracles():
    with criterion(3, "metrics match brute-force oracles on random instances", 10) as check:
        gen = np.random.default_rng(303)

        def pois_at(n):
            xy = [(float(gen.uniform(-1500, 1500)), float(gen.uniform(-1500, 1500)))
                  for _ in range(n)]
            return pois_of(plane_points(BASE, xy))

        def points(n):
            return plane_points(BASE, [(float(gen.uniform(-2000, 2000)), float(gen.uniform(-2000, 2000)))
                                       for _ in range(n)])

        for i in range(200):
            p_true = pois_at(int(gen.integers(1, 11)))
            p_obf = pois_at(int(gen.integers(0, 11)))
            threshold = float(gen.uniform(50, 400))
            got = poi_retrieval(p_true, p_obf, threshold)
            want = brute_poi_retrieval(p_true, p_obf, threshold)
            check(got == want, f"pois instance {i}: {got} != {want}")

            raw, prot = points(int(gen.integers(1, 101))), points(int(gen.integers(0, 101)))
            got = EVALUATORS["distortion"].bind(trace_of(raw), PoiClusteringParams(), CellGrid())(trace_of(prot))
            want = brute_spatial_distortion(raw, prot)
            check(math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12),
                  f"distortion instance {i}: {got} != {want}")

            cell_size = float(gen.uniform(100, 500))
            raw, prot = points(int(gen.integers(1, 101))), points(int(gen.integers(1, 101)))
            grid = CellGrid(cell_size)
            got = EVALUATORS["coverage"].bind(trace_of(raw), PoiClusteringParams(), grid)(trace_of(prot))
            want = brute_area_coverage(raw, prot, cell_size, brute_mean_latitude(raw))
            check(got == want, f"coverage instance {i}: {got} != {want}")

        params = PoiClusteringParams()
        for i in range(100):
            n = int(gen.integers(1, 21))
            x = y = 0.0
            coords = []
            for _ in range(n):
                if gen.uniform() < 0.35:
                    x += float(gen.normal(0, 350))
                    y += float(gen.normal(0, 350))
                else:
                    x += float(gen.normal(0, 40))
                coords.append((x, y))
            times = np.cumsum(gen.integers(60_000, 600_000, size=n))
            lat, lon = latlon_from_local(BASE.lat, BASE.lon, *np.array(coords).T)
            trace = Trace("u", lat, lon, times)
            got = extract_pois(trace, params)
            want = window_extract_pois(trace, params)
            same = spans(got) == spans(want) and bool(
                (haversine_m(got.lat, got.lon, want.lat, want.lon) < 1e-6).all())
            check(same, f"extract_pois trace {i}: {len(got)} vs {len(want)} clusters")


def test_criterion_4_annealing_mechanics():
    with criterion(4, "schedule length, acceptance probabilities, restrict-by-half", 5) as check:
        schedule = AnnealingSchedule()
        check(schedule.n_iterations == 110, f"schedule runs {schedule.n_iterations} != 110")
        check(0.9 ** 109 >= 1e-5 > 0.9 ** 110, "cooling boundary arithmetic broken")

        domain = ParameterDomain("x", tuple(float(v) for v in range(101)))
        result = anneal("geo-i", [domain],
                        lambda s: s.assignment["x"] / 101.0,
                        schedule, RandomStream(0, "mech"))
        check(result.iterations == 110, f"anneal executed {result.iterations} != 110")

        check(acceptance_probability(0.5, 0.3, 1.0, 1) == 1.0, "improvement not accepted")
        check(abs(acceptance_probability(0.4, 0.4, 0.7, 2) - 0.5) < 1e-5, "equal-cost move != 0.5")
        check(abs(acceptance_probability(0.0, 1.0, 1.0, 2) - 1.0 / (1.0 + math.e)) < 1e-5,
              "logistic value off")

        window = restrict_by_half(ParameterDomain("a", (1.0, 2.0, 3.0, 4.0, 5.0)), 2.0)
        check(window == [1.0, 3.0], f"restrict_by_half gave {window}")


def test_criterion_5_annealing_convergence():
    with criterion(5, "best-seen state hits the exhaustive optimum in >= 18/20 runs", 2) as check:
        domain = ParameterDomain("x", tuple(float(v) for v in range(101)))
        x_star = 73.0

        def cost_fn(state):
            return abs(state.assignment["x"] - x_star) / len(domain)

        exhaustive = min(domain.values, key=lambda v: abs(v - x_star))
        check(exhaustive == x_star, "exhaustive-search oracle disagrees about the optimum")
        wins = 0
        for seed in range(20):
            result = anneal("geo-i", [domain], cost_fn, AnnealingSchedule(),
                            RandomStream(seed, "surrogate"))
            wins += result.best_state.assignment["x"] == exhaustive
        check(wins >= 18, f"only {wins}/20 seeded runs found the optimum")


@pytest.fixture(scope="module")
def trend_dataset():
    return generate_synthetic_dataset(SynthSpec(users=10, days=1, pois_per_user=3,
                                                dwell_minutes=45.0, speed_mps=10.0,
                                                sample_period_s=30.0, seed=29)).dataset


def test_criterion_6_tradeoff_trend(trend_dataset):
    with criterion(6, "static eps sweep: pois non-decreasing, distortion non-increasing", 60) as check:
        sweep = (0.001, 0.01, 0.1)
        poi_params = PoiClusteringParams()
        root = RandomStream(31)
        bound = {trace.user: bind_evaluators(["pois", "distortion"], trace, poi_params, CellGrid())
                 for trace in trend_dataset}
        median_pois, median_dist = [], []
        for eps in sweep:
            config = LppmConfig("geo-i", {"epsilon": eps})
            pois_vals, dist_vals = [], []
            for trace in trend_dataset:
                replicates = prepare_replicates("geo-i", trace, 3, root.child(trace.user, eps))
                values = median_of_k(bound[trace.user], config, replicates)
                pois_vals.append(values["pois"])
                dist_vals.append(values["distortion"])
            median_pois.append(float(np.median(pois_vals)))
            median_dist.append(float(np.median(dist_vals)))

        check(all(a <= b for a, b in zip(median_pois, median_pois[1:])),
              f"median pois not non-decreasing: {median_pois}")
        check(median_pois[0] < median_pois[-1],
              f"pois endpoints not strict: {median_pois}")
        check(all(a >= b for a, b in zip(median_dist, median_dist[1:])),
              f"median distortion not non-increasing: {median_dist}")
        check(median_dist[0] > median_dist[-1],
              f"distortion endpoints not strict: {median_dist}")


@pytest.fixture(scope="module")
def batch_dataset():
    return generate_synthetic_dataset(SynthSpec(users=4, days=2, pois_per_user=4,
                                                dwell_minutes=20.0, speed_mps=8.0,
                                                pad_to_day_end=False, seed=47)).dataset


def test_criterion_7_adaptive_dominance(batch_dataset):
    with criterion(7, "adaptive cost <= best static + 0.05 on >= 80% of batches", 300) as check:
        comparisons = (
            ("geo-i", "epsilon", (0.001, 0.01, 0.1)),
            ("promesse", "alpha", (100.0, 200.0, 300.0, 500.0)),
        )
        for lppm, param, static_values in comparisons:
            adaptive = run_online(batch_dataset, RunConfig(lppm_name=lppm, seed=53))
            adaptive_cost = {(r.user, r.day): r.cost for r in adaptive.rows}
            static_cost = []
            for value in static_values:
                report = run_online(batch_dataset, RunConfig(
                    lppm_name=lppm,
                    static_assignment={param: value}, seed=53))
                static_cost.append({(r.user, r.day): r.cost for r in report.rows})
            dominated = sum(
                adaptive_cost[key] <= min(sc[key] for sc in static_cost) + 0.05
                for key in adaptive_cost)
            fraction = dominated / len(adaptive_cost)
            check(fraction >= 0.8,
                  f"{lppm}: adaptive within slack on only {dominated}/{len(adaptive_cost)} batches")


def test_criterion_8_online_determinism(tmp_path):
    with criterion(8, "online reports byte-identical across reruns and worker counts", 120) as check:
        data = tmp_path / "d.csv"
        assert main(["synth", "--users", "2", "--days", "2", "--pois", "3",
                     "--dwell-minutes", "20", "--speed", "8", "--trip",
                     "--sample-period", "120", "--seed", "61", "--out", str(data)]) == 0
        outputs = []
        for label, workers in (("r1", "1"), ("r2", "1"), ("r3", "4")):
            out_dir = tmp_path / label
            code = main(["online", "--input", str(data), "--lppm", "geo-i",
                         "--seed", "62", "--workers", workers,
                         "--out-dir", str(out_dir), "--name", "run"])
            check(code == 0, f"{label}: online run failed")
            outputs.append(tuple((out_dir / f"run{suffix}").read_bytes()
                                 for suffix in (".csv", ".json", "_protected.csv")))
        check(outputs[0] == outputs[1], "identical reruns differ")
        check(outputs[0] == outputs[2], "worker count changed the report")
