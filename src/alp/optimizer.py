"""Simulated-annealing search over discrete mechanism parameter domains.

The search minimizes a cost that sums one normalized contribution per
objective: each metric value is clamped to its scale, divided by it, and
either taken as-is (minimize) or flipped to 1 - n (maximize). Worse
neighbours are accepted with a logistic probability that tightens as the
temperature cools geometrically.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError
from .geo import Trace
from .lppm import LppmConfig, ParameterDomain, mechanism
from .metrics import median_of_k
from .rng import RandomStream


@dataclass(frozen=True)
class Objective:
    """A metric evaluator plus a direction and a normalization scale."""

    evaluator_name: str
    minimise: bool
    scale: float = 1.0

    def __post_init__(self):
        if not 0 < self.scale < math.inf:
            raise ConfigurationError("objective scale must be positive and finite")


_OBJECTIVE_RE = re.compile(r"^(min|max):([a-z_][a-z0-9_-]*)(?::scale=([0-9.eE+-]+))?$")


def parse_objective(text: str) -> Objective:
    """Parse ``<min|max>:<evaluator>[:scale=<real>]``."""
    m = _OBJECTIVE_RE.match(text.strip())
    if not m:
        raise ConfigurationError(f"bad objective spec {text!r} (want min|max:<evaluator>[:scale=<real>])")
    direction, name, scale = m.groups()
    return Objective(name, direction == "min", float(scale) if scale else 1.0)


def parse_objectives(text: str) -> list:
    return [parse_objective(part) for part in text.split(",") if part.strip()]


def default_objectives(lppm_name: str) -> list:
    """Per-mechanism defaults: hide POIs, then preserve the relevant utility."""
    return parse_objectives(mechanism(lppm_name).objectives)


@dataclass(frozen=True)
class AnnealingSchedule:
    """Geometric cooling from t0 down to (but excluding) t_min."""

    t0: float = 1.0
    t_min: float = 1e-5
    delta_t: float = 0.9

    def __post_init__(self):
        if not 0 < self.t_min < self.t0 < math.inf:
            raise ConfigurationError("need 0 < t_min < t0, both finite")
        if not 0.0 < self.delta_t < 1.0:
            raise ConfigurationError("cooling rate must lie in (0, 1)")

    def temperatures(self):
        t = self.t0
        while t >= self.t_min:
            yield t
            t *= self.delta_t

    @property
    def n_iterations(self) -> int:
        return sum(1 for _ in self.temperatures())


@dataclass(frozen=True)
class AnnealResult:
    """Outcome of one annealing run, keeping both final and best-seen states."""

    best_state: LppmConfig
    best_cost: float
    final_state: LppmConfig
    final_cost: float
    iterations: int
    cost_trace: tuple

    def chosen(self, use_best: bool = True) -> tuple:
        """(state, cost): the best-seen pair, or the final one."""
        return (self.best_state, self.best_cost) if use_best else (self.final_state, self.final_cost)


def acceptance_probability(c: float, c2: float, t: float, n_objectives: int) -> float:
    """Probability of moving from cost c to cost c2 at temperature t.

    Improvements are always accepted; otherwise a logistic in the cost gap,
    normalized by 0.5 * t * n_objectives so multi-objective costs cool on
    the same schedule.
    """
    if t <= 0:
        raise ValueError("temperature must be positive")
    if n_objectives < 1:
        raise ValueError("need at least one objective")
    if c2 < c:
        return 1.0
    exponent = (c2 - c) / (0.5 * t * n_objectives)
    if exponent > 700.0:  # exp would overflow; the probability is ~0
        return 0.0
    return 1.0 / (1.0 + math.exp(exponent))


def initial_state(lppm_name: str, domains: Sequence[ParameterDomain], gen: np.random.Generator) -> LppmConfig:
    """Independent uniform draw over each domain's indices."""
    if not domains:
        raise ConfigurationError("at least one parameter domain is required")
    assignment = {d.name: d.values[int(gen.integers(len(d)))] for d in domains}
    return LppmConfig(lppm_name, assignment)


def restrict_by_half(domain: ParameterDomain, current: float) -> list:
    """Candidate values around the current one, spanning half the domain.

    With i the index of the current value and h = max(1, |D| // 4), the
    candidates are the indices [i-h, i+h] clipped to the domain bounds and
    excluding i itself; a singleton domain falls back to the current value.
    """
    i = domain.index_of(current)
    h = max(1, len(domain) // 4)
    lo = max(0, i - h)
    hi = min(len(domain) - 1, i + h)
    candidates = [domain.values[j] for j in range(lo, hi + 1) if j != i]
    return candidates if candidates else [domain.values[i]]


def neighbour(state: LppmConfig, domains: Sequence[ParameterDomain], gen: np.random.Generator) -> LppmConfig:
    """Change exactly one uniformly chosen parameter within its halved window."""
    domain = domains[int(gen.integers(len(domains)))]
    candidates = restrict_by_half(domain, state.assignment[domain.name])
    assignment = dict(state.assignment)
    assignment[domain.name] = candidates[int(gen.integers(len(candidates)))]
    return LppmConfig(state.lppm_name, assignment)


CostFn = Callable[[LppmConfig, RandomStream], float]


def anneal(lppm_name: str, domains: Sequence[ParameterDomain], cost_fn: CostFn,
           schedule: AnnealingSchedule, rng: RandomStream, n_objectives: int = 1) -> AnnealResult:
    """Run the annealing loop and return final plus best-seen states.

    The chain (initial draw, neighbour picks, acceptance uniforms) is one
    generator from ``rng/chain``, shared by :func:`initial_state` and
    :func:`neighbour`; cost evaluation j gets the sub-stream ``rng/eval/j``,
    so results are independent of how the cost function uses randomness.
    """
    chain = rng.child("chain").generator()

    state = initial_state(lppm_name, domains, chain)
    cost = cost_fn(state, rng.child("eval", 0))
    best_state, best_cost = state, cost

    trace = []
    iterations = 0
    for t in schedule.temperatures():
        candidate = neighbour(state, domains, chain)
        candidate_cost = cost_fn(candidate, rng.child("eval", iterations + 1))
        if candidate_cost < best_cost:
            best_state, best_cost = candidate, candidate_cost
        if acceptance_probability(cost, candidate_cost, t, n_objectives) >= chain.uniform():
            state, cost = candidate, candidate_cost
        trace.append((t, cost))
        iterations += 1

    return AnnealResult(best_state, best_cost, state, cost, iterations, tuple(trace))


class ObjectiveCost:
    """Cost of a mechanism configuration against one reference trace.

    ``bound`` maps evaluator names to closures bound to the reference (see
    :func:`~alp.metrics.bind_evaluators`); it must cover every objective and
    may hold more. Each call takes the median-of-k value of every objective's
    evaluator over the same k replicates and sums the normalized
    contributions; repeated states are re-evaluated rather than cached.
    """

    def __init__(self, objectives: Sequence[Objective], ref: Trace, bound: dict, robust_k: int = 1):
        if not objectives:
            raise ConfigurationError("at least one objective is required")
        self.objectives = tuple(objectives)
        self.ref = ref
        self.robust_k = robust_k
        self._bound = {o.evaluator_name: bound[o.evaluator_name] for o in self.objectives}

    def __call__(self, state: LppmConfig, rng: RandomStream) -> float:
        medians = median_of_k(self._bound, state, self.ref, self.robust_k, rng)
        total = 0.0
        for o in self.objectives:
            n = min(medians[o.evaluator_name], o.scale) / o.scale
            total += n if o.minimise else (1.0 - n)
        return total
