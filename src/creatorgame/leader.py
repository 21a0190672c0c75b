"""Leader side: the platform's engagement objective and the weight search.

The platform's payoff is the share-weighted engagement value of the
population's responses; drama risk never enters it. The raw argmax over
weights is unbounded (the objective is linear in the weights), so the
search runs over a compact domain: by default the unit simplex
alpha + beta + gamma = 1, which is enough because best responses are
invariant to rescaling all of (alpha, beta, gamma, delta).
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass
from typing import Union

import numpy as np

from .core import (
    AlgorithmWeights,
    CreatorParams,
    GameTable,
    InvalidScenarioError,
    Strategy,
    UtilityModel,
    _checked,
    creator_utility,
    features,
)
from .population import Population, StrategyShares, _columns, _shares, population_shares
from .response import ResponseRule

# Later grid points must beat the incumbent by more than this to win.
LEADER_TIE_TOLERANCE = 1e-9

# Largest grid points x members one search may evaluate: about 2 s for a
# 41-member population, but up to about 80 s for a single creator, since
# each grid point has a fixed cost of about 8 us (2-vCPU Xeon, numpy 2.4).
MAX_GRID_EVALUATIONS = 10**7


@dataclass(frozen=True)
class SimplexDomain:
    """Weights with alpha + beta + gamma = total, subdivided `resolution`
    times per axis: all (i, j, k)*total/resolution with i + j + k = resolution."""

    total: float = 1.0
    resolution: int = 100

    def __post_init__(self) -> None:
        object.__setattr__(self, "total", _checked("total", self.total))
        if self.total <= 0.0:
            raise InvalidScenarioError(f"total must be > 0, got {self.total!r}")
        if not isinstance(self.resolution, int) or self.resolution < 1:
            raise InvalidScenarioError(f"resolution must be an integer >= 1, got {self.resolution!r}")


@dataclass(frozen=True)
class BoxDomain:
    """Independent axis ranges [0, *_max], each subdivided `resolution` times."""

    alpha_max: float
    beta_max: float
    gamma_max: float
    resolution: int = 100

    def __post_init__(self) -> None:
        for name in ("alpha_max", "beta_max", "gamma_max"):
            value = _checked(name, getattr(self, name))
            if value <= 0.0:
                raise InvalidScenarioError(f"{name} must be > 0, got {value!r}")
            object.__setattr__(self, name, value)
        if not isinstance(self.resolution, int) or self.resolution < 1:
            raise InvalidScenarioError(f"resolution must be an integer >= 1, got {self.resolution!r}")


WeightDomain = Union[SimplexDomain, BoxDomain]


@dataclass(frozen=True)
class EquilibriumResult:
    """Optimal weights with everything they induce.

    creator_utilities holds the population-mean utility of each strategy at
    the optimal weights (for a single creator, just that creator's
    utilities).
    """

    weights: AlgorithmWeights
    shares: StrategyShares
    leader_value: float
    creator_utilities: dict[Strategy, float]
    grid_points_evaluated: int


def algorithm_utility(weights: AlgorithmWeights, shares: StrategyShares, table: GameTable) -> float:
    """Share-weighted engagement value. Drama risk does not enter."""
    total = 0.0
    for s in Strategy:
        p = table.profiles[s]
        total += shares.share[s] * (
            weights.alpha * p.clicks + weights.beta * p.watch_time + weights.gamma * p.shares
        )
    if not math.isfinite(total):
        raise InvalidScenarioError(f"leader value is non-finite ({total!r})")
    return total


def grid_size(domain: WeightDomain) -> int:
    """The number of grid points of the domain, computed without enumerating:
    (n+1)(n+2)/2 for a simplex and (n+1)**3 for a box at resolution n."""
    n = domain.resolution
    if isinstance(domain, SimplexDomain):
        return (n + 1) * (n + 2) // 2
    if isinstance(domain, BoxDomain):
        return (n + 1) ** 3
    raise TypeError(f"unknown weight domain: {domain!r}")


def check_grid_budget(domain: WeightDomain, members: int) -> None:
    """Raise InvalidScenarioError when grid points x members exceeds
    MAX_GRID_EVALUATIONS; nothing is enumerated or allocated."""
    points = grid_size(domain)
    if points * members > MAX_GRID_EVALUATIONS:
        raise InvalidScenarioError(
            f"{points} grid points x {members} members = {points * members} evaluations "
            f"exceeds the limit of {MAX_GRID_EVALUATIONS}; lower the domain resolution"
        )


def _axes(domain: WeightDomain) -> tuple[list[float], list[float], list[float]]:
    """The values i * bound / n, i = 0..n, along alpha, beta and gamma."""
    n = domain.resolution
    if isinstance(domain, SimplexDomain):
        axis = [i * domain.total / n for i in range(n + 1)]
        return axis, axis, axis
    bounds = (domain.alpha_max, domain.beta_max, domain.gamma_max)
    return tuple([i * bound / n for i in range(n + 1)] for bound in bounds)


def _points(domain: WeightDomain) -> Iterator[tuple[float, float, float]]:
    """The grid points as plain (alpha, beta, gamma) triples, in lexicographic
    (i, j, k) index order."""
    alphas, betas, gammas = _axes(domain)
    if isinstance(domain, SimplexDomain):
        n = domain.resolution
        for i in range(n + 1):
            for j in range(n - i + 1):
                yield alphas[i], betas[j], gammas[n - i - j]
    else:
        yield from itertools.product(alphas, betas, gammas)


def enumerate_domain(domain: WeightDomain) -> list[AlgorithmWeights]:
    """All grid points of the domain in lexicographic (i, j, k) index order,
    with (i, j, k) indexing (alpha, beta, gamma)."""
    check_grid_budget(domain, 1)
    return [AlgorithmWeights(*point) for point in _points(domain)]


def stackelberg_solve(
    domain: WeightDomain,
    pop: Population,
    rule: ResponseRule,
    table: GameTable,
    tie_tol: float = LEADER_TIE_TOLERANCE,
) -> EquilibriumResult:
    """Exhaustive grid search anticipating the population's response.

    At every grid point the population's shares are computed and scored
    with algorithm_utility; the best point wins. Ties in leader value
    (within tie_tol) keep the earliest point in enumeration order, so the
    result is independent of evaluation parallelism.

    The members are evaluated together, as arrays, at each point, with
    population_shares' semantics; weights, shares and the result are built
    for the returned optimum only. Errors are those of the point-by-point
    search: an over-budget grid, then any invalid grid point, then the
    first failing member at the first failing point, or a non-finite
    leader value there.
    """
    tie_tol = _checked("tie_tol", tie_tol)
    check_grid_budget(domain, len(pop))
    if not all(math.isfinite(v) for axis in _axes(domain) for v in axis):
        enumerate_domain(domain)  # raises the first invalid point's error
    # engagement value is the linear model's (clicks, watch_time, shares)
    c1, c2, c3, _ = features(table.profiles[Strategy.COLLABORATION], UtilityModel.LINEAR)
    b1, b2, b3, _ = features(table.profiles[Strategy.BEEFING], UtilityModel.LINEAR)

    best = None
    best_value = -math.inf
    with np.errstate(all="ignore"):  # failures are found by _shares and below
        columns = _columns(pop, table)
        for alpha, beta, gamma in _points(domain):
            s_collab, s_beef = _shares(columns, rule, alpha, beta, gamma)
            # algorithm_utility's sum, in its order of operations
            value = s_collab * ((alpha * c1 + beta * c2) + gamma * c3) + s_beef * (
                (alpha * b1 + beta * b2) + gamma * b3
            )
            if not math.isfinite(value):
                raise InvalidScenarioError(f"leader value is non-finite ({value!r})")
            if best is None or value > best_value + tie_tol:
                best, best_value = (alpha, beta, gamma), value

    best_weights = AlgorithmWeights(*best)
    utilities = {
        s: sum(creator_utility(best_weights, m, table.profiles[s]) for m in pop.members)
        / len(pop.members)
        for s in Strategy
    }
    return EquilibriumResult(
        weights=best_weights,
        shares=population_shares(pop, rule, best_weights, table),
        leader_value=best_value,
        creator_utilities=utilities,
        grid_points_evaluated=grid_size(domain),
    )


def delta_sensitivity(
    domain: WeightDomain,
    deltas: list[float],
    model: UtilityModel,
    rule: ResponseRule,
    table: GameTable,
) -> list[tuple[float, EquilibriumResult]]:
    """stackelberg_solve for a single creator at each delta, in input order."""
    if not deltas:
        raise InvalidScenarioError("deltas must be non-empty")
    results: list[tuple[float, EquilibriumResult]] = []
    for delta in deltas:
        try:
            pop = Population((CreatorParams(delta=delta, model=model),))
            result = stackelberg_solve(domain, pop, rule, table)
        except InvalidScenarioError as exc:
            raise InvalidScenarioError(f"delta={delta!r}: {exc}") from exc
        results.append((float(delta), result))
    return results
