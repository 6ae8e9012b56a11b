import math

import numpy as np
import pytest

from alp.errors import ConfigurationError
from alp.geo import CellGrid
from alp.lppm import MECHANISMS, LppmConfig, ParameterDomain
from alp.metrics import PoiClusteringParams, bind_evaluators
from alp.optimizer import (
    AnnealingSchedule,
    Objective,
    ObjectiveCost,
    acceptance_probability,
    anneal,
    default_objectives,
    initial_state,
    neighbour,
    parse_objective,
    parse_objectives,
    restrict_by_half,
)
from alp.rng import RandomStream

from conftest import make_trace

DOMAIN_1_5 = ParameterDomain("a", (1.0, 2.0, 3.0, 4.0, 5.0))
DOMAIN_101 = ParameterDomain("x", tuple(float(v) for v in range(101)))


class TestObjectiveParsing:
    def test_grammar(self):
        objectives = parse_objectives("min:pois,min:distortion:scale=500")
        assert objectives == [Objective("pois", True, 1.0), Objective("distortion", True, 500.0)]

    def test_max_direction(self):
        assert parse_objective("max:coverage") == Objective("coverage", False, 1.0)

    @pytest.mark.parametrize("text", ["pois", "min:", "shrink:pois", "min:pois:scale=x", "min:pois:scale=1e999"])
    def test_rejects_bad_specs(self, text):
        with pytest.raises(ConfigurationError):
            parse_objective(text)

    @pytest.mark.parametrize("scale", [0.0, -1.0, math.inf, math.nan])
    def test_scale_must_be_positive_and_finite(self, scale):
        with pytest.raises(ConfigurationError, match="^objective scale must be positive and finite$"):
            Objective("pois", True, scale)

    def test_defaults_per_mechanism(self):
        assert default_objectives("geo-i") == parse_objectives("min:pois,min:distortion:scale=500")
        assert default_objectives("promesse") == parse_objectives("min:pois,max:coverage")


class TestCost:
    TRACE = make_trace([(45.0, 5.0), (45.0, 5.01)])
    STATE = LppmConfig("promesse", {"alpha": 100.0})

    def cost(self, objectives, values):
        """One ObjectiveCost call over fake bound evaluators with fixed values."""
        bound = {name: lambda protected, value=value: value for name, value in values.items()}
        return ObjectiveCost(objectives, self.TRACE, bound, robust_k=1)(self.STATE, RandomStream(0))

    def test_minimise_branch(self):
        value = self.cost([Objective("a", True, 1.0)], {"a": 0.2})
        assert value == pytest.approx(0.2)

    def test_maximise_branch(self):
        value = self.cost([Objective("a", False, 1.0)], {"a": 0.75})
        assert value == pytest.approx(0.25)

    def test_scale_clamps(self):
        value = self.cost([Objective("a", True, 500.0)], {"a": 700.0})
        assert value == 1.0

    def test_bounded_by_objective_count(self):
        objectives = [Objective("a", True, 1.0), Objective("a", False, 1.0)]
        value = self.cost(objectives, {"a": 1e9})
        assert 0.0 <= value <= len(objectives)

    def test_unregistered_evaluator(self):
        # the pipeline binds every objective's evaluator before building the cost
        with pytest.raises(ConfigurationError, match="unknown evaluator"):
            bind_evaluators(["missing-evaluator"], self.TRACE, PoiClusteringParams(), CellGrid())

    def test_requires_objectives(self):
        with pytest.raises(ConfigurationError):
            ObjectiveCost([], self.TRACE, {}, robust_k=1)

    def test_objectives_share_replicates(self, monkeypatch):
        import alp.metrics

        applied = []

        def counting_apply(config, raw, rng):
            applied.append(rng)
            return real_apply(config, raw, rng)

        real_apply = alp.metrics.apply_lppm
        monkeypatch.setattr(alp.metrics, "apply_lppm", counting_apply)
        seen = {"a": [], "b": []}
        bound = {name: lambda protected, log=log: log.append(protected) or 0.5
                 for name, log in seen.items()}
        objectives = [Objective("a", True), Objective("b", False)]
        state = LppmConfig("geo-i", {"epsilon": 0.01})
        ObjectiveCost(objectives, self.TRACE, bound, robust_k=3)(state, RandomStream(0))
        assert len(applied) == 3
        assert len(seen["a"]) == len(seen["b"]) == 3
        assert all(a is b for a, b in zip(seen["a"], seen["b"]))
        assert len({id(t) for t in seen["a"]}) == 3


class TestAcceptanceProbability:
    def test_improvement_always_accepted(self):
        assert acceptance_probability(0.5, 0.3, 1.0, 1) == 1.0
        assert acceptance_probability(0.5, 0.3, 1e-5, 3) == 1.0

    def test_equal_costs_give_half(self):
        for t in (1.0, 0.1, 1e-5):
            assert acceptance_probability(0.4, 0.4, t, 2) == 0.5

    def test_tabulated_value(self):
        assert acceptance_probability(0.0, 1.0, 1.0, 2) == \
            pytest.approx(1.0 / (1.0 + math.e), abs=1e-5)

    def test_monotone_in_cost_gap(self):
        probs = [acceptance_probability(0.0, c2, 0.5, 1) for c2 in np.linspace(0, 2, 30)]
        assert all(b <= a for a, b in zip(probs, probs[1:]))

    def test_monotone_in_temperature_for_worse_moves(self):
        probs = [acceptance_probability(0.0, 0.5, t, 1) for t in (1.0, 0.5, 0.1, 0.01, 1e-5)]
        assert all(b <= a for a, b in zip(probs, probs[1:]))
        assert probs[-1] == 0.0  # numerically frozen

    def test_validates_arguments(self):
        with pytest.raises(ValueError):
            acceptance_probability(0, 1, 0.0, 1)
        with pytest.raises(ValueError):
            acceptance_probability(0, 1, 1.0, 0)


class TestInitialState:
    def test_singleton_domains(self):
        domains = [ParameterDomain("a", (3.0,)), ParameterDomain("b", (7.0,))]
        state = initial_state("geo-i", domains, RandomStream(0).generator())
        assert state.assignment == {"a": 3.0, "b": 7.0}

    def test_seeded_regression(self):
        state = initial_state("geo-i", MECHANISMS["geo-i"].domains, RandomStream(123, "init").generator())
        assert state.assignment["epsilon"] == pytest.approx(0.0022908676527677724, rel=1e-15)

    def test_draws_stay_in_domains(self):
        domains = [DOMAIN_1_5, DOMAIN_101]
        for seed in range(1000):
            state = initial_state("geo-i", domains, RandomStream(seed).generator())
            assert state.assignment["a"] in DOMAIN_1_5.values
            assert state.assignment["x"] in DOMAIN_101.values

    def test_empty_domains_rejected(self):
        with pytest.raises(ConfigurationError):
            initial_state("geo-i", [], RandomStream(0).generator())


class TestRestrictByHalf:
    def test_worked_example(self):
        assert restrict_by_half(DOMAIN_1_5, 2.0) == [1.0, 3.0]

    def test_left_clip(self):
        assert restrict_by_half(DOMAIN_1_5, 1.0) == [2.0]

    def test_singleton_fallback(self):
        assert restrict_by_half(ParameterDomain("a", (7.0,)), 7.0) == [7.0]

    def test_value_must_be_in_domain(self):
        with pytest.raises(ValueError):
            restrict_by_half(DOMAIN_1_5, 2.5)

    def test_window_properties(self, gen):
        h = max(1, len(DOMAIN_101) // 4)
        for _ in range(200):
            current = float(gen.integers(0, 101))
            candidates = restrict_by_half(DOMAIN_101, current)
            assert current not in candidates
            assert 1 <= len(candidates) <= 2 * h
            assert set(candidates) <= set(DOMAIN_101.values)


class TestNeighbour:
    def test_single_parameter_window(self):
        state = LppmConfig("geo-i", {"a": 2.0})
        for seed in range(50):
            nxt = neighbour(state, [DOMAIN_1_5], RandomStream(seed).generator())
            assert nxt.assignment["a"] in (1.0, 3.0)

    def test_singleton_domain_keeps_state(self):
        domain = ParameterDomain("a", (7.0,))
        state = LppmConfig("geo-i", {"a": 7.0})
        assert neighbour(state, [domain], RandomStream(0).generator()) == state

    def test_changes_exactly_one_coordinate(self):
        domains = [DOMAIN_1_5, DOMAIN_101]
        state = LppmConfig("geo-i", {"a": 3.0, "x": 50.0})
        for seed in range(1000):
            nxt = neighbour(state, domains, RandomStream(seed).generator())
            changed = sum(nxt.assignment[k] != state.assignment[k] for k in ("a", "x"))
            assert changed == 1


def surrogate_cost(x_star):
    def cost_fn(state, rng):
        return abs(state.assignment["x"] - x_star) / len(DOMAIN_101)
    return cost_fn


class TestAnneal:
    def test_default_schedule_runs_110_iterations(self):
        schedule = AnnealingSchedule()
        assert schedule.n_iterations == 110
        result = anneal("geo-i", [DOMAIN_101], surrogate_cost(73.0), schedule, RandomStream(1))
        assert result.iterations == 110
        assert len(result.cost_trace) == 110

    def test_singleton_space(self):
        domain = ParameterDomain("x", (4.0,))
        result = anneal("geo-i", [domain], surrogate_cost(4.0), AnnealingSchedule(), RandomStream(0))
        assert result.best_state == result.final_state
        assert result.best_state.assignment == {"x": 4.0}

    def test_best_cost_bounds(self):
        result = anneal("geo-i", [DOMAIN_101], surrogate_cost(30.0),
                        AnnealingSchedule(), RandomStream(5))
        assert result.best_cost <= result.final_cost
        assert result.best_cost <= result.cost_trace[0][1]
        assert result.best_cost <= min(c for _, c in result.cost_trace)

    def test_finds_exact_optimum_in_most_seeded_runs(self):
        # Long-run exact-hit rate is ~0.88 per run on this surrogate; the
        # fixed block below lands 19/20.
        x_star = 73.0
        exhaustive = min(DOMAIN_101.values, key=lambda v: abs(v - x_star))
        assert exhaustive == x_star
        wins = 0
        for seed in range(20):
            result = anneal("geo-i", [DOMAIN_101], surrogate_cost(x_star),
                            AnnealingSchedule(), RandomStream(seed, "surrogate"))
            wins += result.best_state.assignment["x"] == x_star
        assert wins >= 18

    def test_pure_function_of_seed(self):
        a = anneal("geo-i", [DOMAIN_101], surrogate_cost(12.0), AnnealingSchedule(), RandomStream(9))
        b = anneal("geo-i", [DOMAIN_101], surrogate_cost(12.0), AnnealingSchedule(), RandomStream(9))
        assert a == b

    def test_schedule_validation(self):
        with pytest.raises(ConfigurationError):
            AnnealingSchedule(t0=1.0, t_min=2.0)
        with pytest.raises(ConfigurationError):
            AnnealingSchedule(delta_t=1.0)
        for t0 in (math.inf, math.nan):
            with pytest.raises(ConfigurationError, match="finite"):
                AnnealingSchedule(t0=t0)
