import decimal
import math
import warnings

import numpy as np
import pytest
from scipy import stats

from alp.errors import ConfigurationError
from alp.geo import GeoPoint, Trace, haversine_m, latlon_from_local, local_xy
from alp.lppm import (
    MECHANISMS,
    LppmConfig,
    ParameterDomain,
    _inverse_radial_cdf,
    checked,
)
from alp.metrics import EVALUATORS
from alp.optimizer import parse_objectives
from alp.pipeline import RunConfig
from alp.rng import RandomStream

from conftest import applied, random_walk_trace
from oracles import decimal_radial_quantile, monotone_arc_positions, one_shot_promesse

ORIGIN = GeoPoint(45.0, 5.0)


def straight_line_trace(offsets_m, t0=0, t1=None, user="u"):
    """Records along an eastward line at the given plane offsets."""
    n = len(offsets_m)
    if t1 is None:
        t1 = (n - 1) * 100_000
    times = np.linspace(t0, t1, n).astype(int)
    lat, lon = latlon_from_local(ORIGIN.lat, ORIGIN.lon, np.asarray(offsets_m, dtype=float), np.zeros(n))
    return Trace(user, lat, lon, times)


def stationary_trace(point, n, step_ms=1):
    """n records at one point, step_ms apart."""
    return Trace("u", [point.lat] * n, [point.lon] * n, step_ms * np.arange(n))


class TestRadialSampling:
    def test_radius_vanishes_with_p(self):
        assert _inverse_radial_cdf(np.array(1e-12)) / 0.01 < 1e-2

    def test_median_radius(self):
        assert _inverse_radial_cdf(np.array(0.5)) / 0.01 == pytest.approx(167.83, abs=0.01)

    def test_scale_invariance(self):
        assert _inverse_radial_cdf(np.array(0.5)) / 0.1 == pytest.approx(16.783, abs=0.001)

    @pytest.mark.parametrize("epsilon", [0.001, 0.01, 1.0])
    def test_matches_a_high_precision_root(self, epsilon):
        # Both tails included: 2**-53 is the smallest non-zero uniform draw.
        p = [2.0 ** -53, 1e-12, 1e-9, 1e-6, 0.5, 1 - 1e-9, 1 - 2.0 ** -53]
        p += RandomStream(12, "radius-oracle").generator().uniform(size=200).tolist()
        p += np.logspace(-15, -1, 29).tolist()  # across the series/Newton switch
        radii = _inverse_radial_cdf(np.array(p)) / epsilon
        worst = max(abs(decimal.Decimal(r) / decimal_radial_quantile(epsilon, q) - 1)
                    for q, r in zip(p, radii.tolist()))
        assert worst <= decimal.Decimal("1e-12")

    def test_zero_probability_gives_zero_radius_silently(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            radii = _inverse_radial_cdf(np.array([0.0])) / 0.01
        assert radii.tolist() == [0.0]

    def test_radii_follow_radial_cdf(self):
        epsilon = 0.01
        p = RandomStream(11, "ks").generator().uniform(size=20_000)
        radii = _inverse_radial_cdf(p) / epsilon
        cdf = lambda r: 1.0 - (1.0 + epsilon * r) * np.exp(-epsilon * r)
        d_stat = stats.kstest(radii, cdf).statistic
        assert d_stat < 0.015
        assert np.mean(radii) == pytest.approx(2.0 / epsilon, rel=0.02)


class TestGeoIObfuscate:
    def test_empty_trace_passthrough(self):
        empty = Trace("u")
        assert applied(LppmConfig("geo-i", {"epsilon": 0.01}), empty, RandomStream(0)) == empty

    def test_metadata_preserved(self, gen):
        trace = random_walk_trace(gen, n=50)
        out = applied(LppmConfig("geo-i", {"epsilon": 0.01}), trace, RandomStream(1))
        assert out.user == trace.user
        assert len(out) == len(trace)
        assert list(out.time_ms) == list(trace.time_ms)

    def test_deterministic_given_stream(self, gen):
        trace = random_walk_trace(gen, n=30)
        a = applied(LppmConfig("geo-i", {"epsilon": 0.01}), trace, RandomStream(9, "s"))
        b = applied(LppmConfig("geo-i", {"epsilon": 0.01}), trace, RandomStream(9, "s"))
        assert a == b

    @pytest.mark.parametrize("lat, lon", [(45.0, 5.0), (0.0, 5.0), (80.0, 5.0), (-80.0, 5.0), (89.9, 5.0),
                                          (-89.9, 5.0), (0.0, 180.0), (0.0, -179.9999)])
    def test_mean_displacement_is_two_over_epsilon(self, lat, lon):
        """The noise law holds on the sphere, not only in the radius sampler:
        the mean great-circle step is 2/epsilon at mid latitudes, at the
        equator, at +-80, at +-89.9 and across the antimeridian. Closer to a
        pole it is not yet: the per-point plane's longitude step grows as
        1/cos(lat) and the latitude is clipped, so at 89.999 the mean reads
        about 155 m (the open pole defect); that latitude is left out."""
        epsilon = 0.01
        trace = stationary_trace(GeoPoint(lat, lon), 20_000)
        out = applied(LppmConfig("geo-i", {"epsilon": epsilon}), trace, RandomStream(3, "disp"))
        d = haversine_m(lat, lon, out.lat, out.lon)
        assert np.mean(d) == pytest.approx(2.0 / epsilon, rel=0.02)

    def test_angles_uniform(self):
        point = GeoPoint(0.0, 0.0)
        trace = stationary_trace(point, 10_000)
        out = applied(LppmConfig("geo-i", {"epsilon": 0.001}), trace, RandomStream(4, "ang"))
        xy = np.column_stack(local_xy(point.lat, point.lon, out.lat, out.lon))
        angles = np.arctan2(xy[:, 1], xy[:, 0]) % (2 * np.pi)
        counts, _ = np.histogram(angles, bins=36, range=(0, 2 * np.pi))
        assert stats.chisquare(counts).pvalue > 0.001


class TestPromesse:
    def test_straight_path_resampling(self):
        trace = straight_line_trace([0, 250, 500, 750, 1000], t0=0, t1=500_000)
        out = applied(LppmConfig("promesse", {"alpha": 200.0}), trace, RandomStream(0))
        assert len(out) == 6
        xs = local_xy(ORIGIN.lat, ORIGIN.lon, out.lat, out.lon)[0].tolist()
        assert xs == pytest.approx([0, 200, 400, 600, 800, 1000], abs=1e-6)
        times = out.time_ms.tolist()
        assert times == [0, 100_000, 200_000, 300_000, 400_000, 500_000]

    def test_stationary_trace_suppressed(self):
        point = GeoPoint(45.0, 5.0)
        trace = stationary_trace(point, 10, step_ms=1000)
        assert len(applied(LppmConfig("promesse", {"alpha": 200.0}), trace, RandomStream(0))) == 0

    def test_short_path_suppressed(self):
        trace = straight_line_trace([0, 100])
        assert len(applied(LppmConfig("promesse", {"alpha": 500.0}), trace, RandomStream(0))) == 0

    def test_empty_trace(self):
        assert len(applied(LppmConfig("promesse", {"alpha": 200.0}), Trace("u"), RandomStream(0))) == 0

    def test_spacing_and_time_invariants_on_random_walks(self, gen):
        alpha = 150.0
        for _ in range(10):
            trace = random_walk_trace(gen, n=80, step_sd_m=60.0)
            out = applied(LppmConfig("promesse", {"alpha": alpha}), trace, RandomStream(0))
            if len(out) < 2:
                continue
            # Along-path distance is defined in the plane anchored at the
            # trace's first point; measure in that same frame.
            anchor = GeoPoint(float(trace.lat[0]), float(trace.lon[0]))
            path = np.column_stack(local_xy(anchor.lat, anchor.lon, trace.lat, trace.lon))
            pts = np.column_stack(local_xy(anchor.lat, anchor.lon, out.lat, out.lon))
            positions = monotone_arc_positions([tuple(p) for p in path], [tuple(p) for p in pts])
            spacings = np.diff(positions)
            assert np.allclose(spacings, alpha, rtol=1e-6)
            chords = np.hypot(*np.diff(pts, axis=0).T)
            assert chords.max() <= alpha + 1e-6
            gaps = np.diff(out.time_ms)
            assert gaps.max() - gaps.min() <= 1
            assert out.time_ms[0] == trace.time_ms[0]
            assert out.time_ms[-1] == trace.time_ms[-1]


class TestApplyAndRegistry:
    def test_dispatch_to_promesse(self):
        trace = straight_line_trace([0, 250, 500, 750, 1000])
        config = LppmConfig("promesse", {"alpha": 200.0})
        assert applied(config, trace, RandomStream(0)) == one_shot_promesse(trace, 200.0)

    def test_empty_trace_through_geo_i(self):
        config = LppmConfig("geo-i", {"epsilon": 0.01})
        assert len(applied(config, Trace("u"), RandomStream(0))) == 0

    def test_unknown_mechanism(self):
        with pytest.raises(ConfigurationError, match="foo"):
            applied(LppmConfig("foo", {}), Trace("u"), RandomStream(0))

    def test_missing_parameter(self):
        with pytest.raises(ConfigurationError, match="missing"):
            applied(LppmConfig("geo-i", {}), Trace("u"), RandomStream(0))

    def test_unknown_parameter(self):
        config = LppmConfig("promesse", {"alpha": 10.0, "beta": 1.0})
        with pytest.raises(ConfigurationError, match="unknown"):
            applied(config, Trace("u"), RandomStream(0))

    def test_user_never_changes(self, gen):
        trace = random_walk_trace(gen, n=40, user="alice")
        for config in (LppmConfig("geo-i", {"epsilon": 0.05}),
                       LppmConfig("promesse", {"alpha": 50.0})):
            out = applied(config, trace, RandomStream(2))
            assert out.user == "alice"

    @pytest.mark.parametrize("value", [-1.0, 0.0, math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("name, param", [("geo-i", "epsilon"), ("promesse", "alpha")], ids=["geo-i", "promesse"])
    def test_rejects_parameters_that_are_not_positive_and_finite(self, name, param, value, gen):
        # epsilon = inf would draw zero noise and publish the raw trace, and
        # alpha = inf would suppress every trace
        trace = random_walk_trace(gen, n=5)
        with pytest.raises(ConfigurationError, match=f"{param} must be positive and finite"):
            applied(LppmConfig(name, {param: value}), trace, RandomStream(0))


@pytest.mark.parametrize("name", sorted(MECHANISMS))
def test_mechanism_table_is_consistent(name, gen):
    entry = MECHANISMS[name]
    objectives = parse_objectives(entry.objectives)
    assert objectives and {o.evaluator_name for o in objectives} <= set(EVALUATORS)
    assert RunConfig(name).objectives == tuple(objectives)
    trace = random_walk_trace(gen, n=40, user="carol")
    config = LppmConfig(name, {d.name: d.values[0] for d in entry.domains})
    protected = applied(config, trace, RandomStream(3))
    assert protected.user == "carol"
    # geo-i draws its noise from the stream; promesse ignores it
    assert (protected == applied(config, trace, RandomStream(4))) == (name == "promesse")


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
        with pytest.raises(ConfigurationError, match="^unknown spacing 'cubic'$"):
            ParameterDomain("x", (1.0, 2.0), "cubic")
