import decimal
import math
import warnings

import numpy as np
import pytest
from scipy import stats

from alp.errors import ConfigurationError
from alp.geo import GeoPoint, Trace, distance_meters, latlon_from_local, local_xy
from alp.lppm import (
    MECHANISMS,
    LppmConfig,
    ParameterDomain,
    _inverse_radial_cdf,
    apply_lppm,
    checked,
    geo_i_obfuscate,
    geo_i_sample_radius,
    promesse_obfuscate,
)
from alp.metrics import EVALUATORS
from alp.optimizer import default_objectives, parse_objectives
from alp.rng import RandomStream

from conftest import points_of, random_walk_trace
from oracles import decimal_radial_quantile, monotone_arc_positions

ORIGIN = GeoPoint(45.0, 5.0)


def straight_line_trace(offsets_m, t0=0, t1=None, user="u"):
    """Records along an eastward line at the given plane offsets."""
    n = len(offsets_m)
    if t1 is None:
        t1 = (n - 1) * 100_000
    times = np.linspace(t0, t1, n).astype(int)
    lat, lon = latlon_from_local(ORIGIN, np.asarray(offsets_m, dtype=float), np.zeros(n))
    return Trace(user, lat, lon, times)


def stationary_trace(point, n, step_ms=1):
    """n records at one point, step_ms apart."""
    return Trace("u", [point.lat] * n, [point.lon] * n, step_ms * np.arange(n))


class TestRadialSampling:
    def test_radius_vanishes_with_p(self):
        assert geo_i_sample_radius(0.01, 1e-12) < 1e-2

    def test_median_radius(self):
        assert geo_i_sample_radius(0.01, 0.5) == pytest.approx(167.83, abs=0.01)

    def test_scale_invariance(self):
        assert geo_i_sample_radius(0.1, 0.5) == pytest.approx(16.783, abs=0.001)

    @pytest.mark.parametrize("epsilon,p", [(0, 0.5), (-1, 0.5), (0.01, 0.0),
                                           (0.01, 1.0), (0.01, -0.2), (0.01, 1.5)])
    def test_rejects_bad_arguments(self, epsilon, p):
        with pytest.raises(ValueError):
            geo_i_sample_radius(epsilon, p)

    @pytest.mark.parametrize("epsilon", [0.001, 0.01, 1.0])
    def test_matches_a_high_precision_root(self, epsilon):
        # Both tails included: 2**-53 is the smallest non-zero uniform draw.
        p = [2.0 ** -53, 1e-12, 1e-9, 1e-6, 0.5, 1 - 1e-9, 1 - 2.0 ** -53]
        p += RandomStream(12, "radius-oracle").generator().uniform(size=200).tolist()
        p += np.logspace(-15, -1, 29).tolist()  # across the series/Newton switch
        radii = _inverse_radial_cdf(epsilon, np.array(p))
        worst = max(abs(decimal.Decimal(r) / decimal_radial_quantile(epsilon, q) - 1)
                    for q, r in zip(p, radii.tolist()))
        assert worst <= decimal.Decimal("1e-12")

    def test_zero_probability_gives_zero_radius_silently(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            radii = _inverse_radial_cdf(0.01, np.array([0.0]))
        assert radii.tolist() == [0.0]

    def test_radii_follow_radial_cdf(self):
        epsilon = 0.01
        p = RandomStream(11, "ks").generator().uniform(size=20_000)
        radii = geo_i_sample_radius(epsilon, p)
        cdf = lambda r: 1.0 - (1.0 + epsilon * r) * np.exp(-epsilon * r)
        d_stat = stats.kstest(radii, cdf).statistic
        assert d_stat < 0.015
        assert np.mean(radii) == pytest.approx(2.0 / epsilon, rel=0.02)


class TestGeoIObfuscate:
    def test_empty_trace_passthrough(self):
        empty = Trace("u")
        assert geo_i_obfuscate(empty, 0.01, RandomStream(0)) == empty

    def test_metadata_preserved(self, gen):
        trace = random_walk_trace(gen, n=50)
        out = geo_i_obfuscate(trace, 0.01, RandomStream(1))
        assert out.user == trace.user
        assert len(out) == len(trace)
        assert list(out.time_ms) == list(trace.time_ms)

    def test_deterministic_given_stream(self, gen):
        trace = random_walk_trace(gen, n=30)
        a = geo_i_obfuscate(trace, 0.01, RandomStream(9, "s"))
        b = geo_i_obfuscate(trace, 0.01, RandomStream(9, "s"))
        assert a == b

    def test_mean_displacement_is_two_over_epsilon(self):
        epsilon = 0.01
        point = GeoPoint(45.0, 5.0)
        trace = stationary_trace(point, 20_000)
        out = geo_i_obfuscate(trace, epsilon, RandomStream(3, "disp"))
        d = [distance_meters(point, p) for p in points_of(out)]
        assert np.mean(d) == pytest.approx(2.0 / epsilon, rel=0.02)

    def test_angles_uniform(self):
        point = GeoPoint(0.0, 0.0)
        trace = stationary_trace(point, 10_000)
        out = geo_i_obfuscate(trace, 0.001, RandomStream(4, "ang"))
        xy = np.column_stack(local_xy(point, out.lat, out.lon))
        angles = np.arctan2(xy[:, 1], xy[:, 0]) % (2 * np.pi)
        counts, _ = np.histogram(angles, bins=36, range=(0, 2 * np.pi))
        assert stats.chisquare(counts).pvalue > 0.001

    def test_rejects_non_positive_epsilon(self, gen):
        trace = random_walk_trace(gen, n=5)
        with pytest.raises(ValueError):
            geo_i_obfuscate(trace, 0.0, RandomStream(0))


class TestPromesse:
    def test_straight_path_resampling(self):
        trace = straight_line_trace([0, 250, 500, 750, 1000], t0=0, t1=500_000)
        out = promesse_obfuscate(trace, 200.0)
        assert len(out) == 6
        xs = local_xy(ORIGIN, out.lat, out.lon)[0].tolist()
        assert xs == pytest.approx([0, 200, 400, 600, 800, 1000], abs=1e-6)
        times = out.time_ms.tolist()
        assert times == [0, 100_000, 200_000, 300_000, 400_000, 500_000]

    def test_stationary_trace_suppressed(self):
        point = GeoPoint(45.0, 5.0)
        trace = stationary_trace(point, 10, step_ms=1000)
        assert len(promesse_obfuscate(trace, 200.0)) == 0

    def test_short_path_suppressed(self):
        trace = straight_line_trace([0, 100])
        assert len(promesse_obfuscate(trace, 500.0)) == 0

    def test_empty_trace(self):
        assert len(promesse_obfuscate(Trace("u"), 200.0)) == 0

    def test_rejects_non_positive_alpha(self):
        trace = straight_line_trace([0, 100])
        with pytest.raises(ValueError):
            promesse_obfuscate(trace, 0.0)

    def test_spacing_and_time_invariants_on_random_walks(self, gen):
        alpha = 150.0
        for _ in range(10):
            trace = random_walk_trace(gen, n=80, step_sd_m=60.0)
            out = promesse_obfuscate(trace, alpha)
            if len(out) < 2:
                continue
            from alp.geo import local_xy

            # Along-path distance is defined in the plane anchored at the
            # trace's first point; measure in that same frame.
            anchor = GeoPoint(float(trace.lat[0]), float(trace.lon[0]))
            path = np.column_stack(local_xy(anchor, trace.lat, trace.lon))
            pts = np.column_stack(local_xy(anchor, out.lat, out.lon))
            positions = monotone_arc_positions([tuple(p) for p in path], [tuple(p) for p in pts])
            spacings = np.diff(positions)
            assert np.allclose(spacings, alpha, rtol=1e-6)
            chords = np.hypot(*np.diff(pts, axis=0).T)
            assert chords.max() <= alpha + 1e-6
            gaps = np.diff(out.time_ms)
            assert gaps.max() - gaps.min() <= 1
            assert out.time_ms[0] == trace.time_ms[0]
            assert out.time_ms[-1] == trace.time_ms[-1]


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
def test_free_functions_reject_non_finite_parameters(value, gen):
    # at epsilon = inf geo-i would publish the raw trace, and at alpha = inf
    # promesse would suppress every trace
    trace = random_walk_trace(gen, n=5)
    with pytest.raises(ValueError, match="epsilon must be positive and finite"):
        geo_i_sample_radius(value, 0.5)
    with pytest.raises(ValueError, match="epsilon must be positive and finite"):
        geo_i_obfuscate(trace, value, RandomStream(0))
    with pytest.raises(ValueError, match="alpha must be positive and finite"):
        promesse_obfuscate(trace, value)


class TestApplyAndRegistry:
    def test_dispatch_to_promesse(self):
        trace = straight_line_trace([0, 250, 500, 750, 1000])
        config = LppmConfig("promesse", {"alpha": 200.0})
        direct = promesse_obfuscate(trace, 200.0)
        assert apply_lppm(config, trace, RandomStream(0)) == direct

    def test_empty_trace_through_geo_i(self):
        config = LppmConfig("geo-i", {"epsilon": 0.01})
        assert len(apply_lppm(config, Trace("u"), RandomStream(0))) == 0

    def test_unknown_mechanism(self):
        with pytest.raises(ConfigurationError, match="foo"):
            apply_lppm(LppmConfig("foo", {}), Trace("u"), RandomStream(0))

    def test_missing_parameter(self):
        with pytest.raises(ConfigurationError, match="missing"):
            apply_lppm(LppmConfig("geo-i", {}), Trace("u"), RandomStream(0))

    def test_unknown_parameter(self):
        config = LppmConfig("promesse", {"alpha": 10.0, "beta": 1.0})
        with pytest.raises(ConfigurationError, match="unknown"):
            apply_lppm(config, Trace("u"), RandomStream(0))

    def test_user_never_changes(self, gen):
        trace = random_walk_trace(gen, n=40, user="alice")
        for config in (LppmConfig("geo-i", {"epsilon": 0.05}),
                       LppmConfig("promesse", {"alpha": 50.0})):
            out = apply_lppm(config, trace, RandomStream(2))
            assert out.user == "alice"

    def test_get_set_params(self, gen):
        # epsilon = inf would draw zero noise and publish the raw trace
        trace = random_walk_trace(gen, n=5)
        for name, param in (("geo-i", "epsilon"), ("promesse", "alpha")):
            for value in (-1.0, 0.0, math.inf, -math.inf, math.nan):
                with pytest.raises(ConfigurationError, match=f"{param} must be positive and finite"):
                    apply_lppm(LppmConfig(name, {param: value}), trace, RandomStream(0))


@pytest.mark.parametrize("name", sorted(MECHANISMS))
def test_mechanism_table_is_consistent(name, gen):
    entry = MECHANISMS[name]
    objectives = parse_objectives(entry.objectives)
    assert objectives and {o.evaluator_name for o in objectives} <= set(EVALUATORS)
    assert default_objectives(name) == objectives
    trace = random_walk_trace(gen, n=40, user="carol")
    config = LppmConfig(name, {d.name: d.values[0] for d in entry.domains})
    protected = apply_lppm(config, trace, RandomStream(3))
    assert protected.user == "carol"
    # a single replicate is enough exactly when the transform ignores its stream
    assert (entry.robust_k == 1) == (protected == apply_lppm(config, trace, RandomStream(4)))


class TestDomains:
    def test_geo_i_grid(self):
        (domain,) = MECHANISMS["geo-i"].domains
        assert domain.spacing == "log10"
        assert len(domain) == 101
        assert domain.values[0] == pytest.approx(0.001, rel=1e-12)
        assert domain.values[50] == pytest.approx(0.01, rel=1e-12)
        assert domain.values[-1] == pytest.approx(0.1, rel=1e-12)

    def test_promesse_grid(self):
        (domain,) = MECHANISMS["promesse"].domains
        assert domain.spacing == "linear"
        assert len(domain) == 101
        assert domain.values[0] == 5.0
        assert domain.values[-1] == 500.0
        assert domain.values[1] - domain.values[0] == pytest.approx(4.95)

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError, match="^unknown mechanism 'nope'; registered: geo-i, promesse$"):
            checked(LppmConfig("nope", {"epsilon": 0.01}))

    def test_domain_validation(self):
        with pytest.raises(ConfigurationError):
            ParameterDomain("x", ())
        with pytest.raises(ConfigurationError):
            ParameterDomain("x", (1.0, 1.0))
        with pytest.raises(ConfigurationError):
            ParameterDomain("x", (-1.0, 1.0), "log10")
