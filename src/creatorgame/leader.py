"""Leader side: the platform's engagement objective and the weight search.

The platform's payoff is the share-weighted engagement value of the
population's responses; drama risk never enters it. The raw argmax over
weights is unbounded (the objective is linear in the weights), so the
search runs over a compact domain: by default the unit simplex
alpha + beta + gamma = 1, which is enough because best responses are
invariant to rescaling all of (alpha, beta, gamma, delta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .core import (
    AlgorithmWeights,
    CreatorParams,
    EngagementProfile,
    GameTable,
    InvalidScenarioError,
    Strategy,
    UtilityModel,
    _checked,
    creator_utility,
    features,
)
from .population import (
    MAX_GRID_EVALUATIONS,
    Population,
    StrategyShares,
    _chunk_shares,
    _columns,
    _raise_member_error,
    population_shares,
)
from .response import ResponseRule

# Later grid points must beat the incumbent by more than this to win.
LEADER_TIE_TOLERANCE = 1e-9

# Largest points x members one chunk of the search evaluates at once; it
# bounds the search's working memory, whatever the grid size.
_CHUNK_EVALUATIONS = 4096


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
        f1, f2, f3, _ = features(table.profiles[s], UtilityModel.LINEAR)
        total += shares.share[s] * (weights.alpha * f1 + weights.beta * f2 + weights.gamma * f3)
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


def _grid_indices(domain: WeightDomain, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (i, j, k) axis indices of the grid points with flat positions
    lo..hi-1 in lexicographic (i, j, k) order, as int arrays."""
    flat = np.arange(lo, hi)
    n = domain.resolution
    if isinstance(domain, SimplexDomain):
        rows = np.arange(n + 1)
        starts = rows * (n + 1) - rows * (rows - 1) // 2  # flat position of (i, 0, n - i)
        i = np.searchsorted(starts, flat, side="right") - 1
        j = flat - starts[i]
        return i, j, n - i - j
    i, rest = np.divmod(flat, (n + 1) ** 2)
    j, k = np.divmod(rest, n + 1)
    return i, j, k


def enumerate_domain(domain: WeightDomain) -> list[AlgorithmWeights]:
    """All grid points of the domain in lexicographic (i, j, k) index order,
    with (i, j, k) indexing (alpha, beta, gamma)."""
    check_grid_budget(domain, 1)
    axes = [np.array(axis) for axis in _axes(domain)]
    indices = _grid_indices(domain, 0, grid_size(domain))
    return [AlgorithmWeights(*point) for point in zip(*(axis[idx].tolist() for axis, idx in zip(axes, indices)))]


def _values_stay_finite(top: tuple[float, float, float], pop: Population, table: GameTable) -> bool:
    """Whether no utility, gap, choice probability or leader value can be
    non-finite anywhere on a grid whose weights are at most `top` on each axis.

    Weights, features and deltas are >= 0 and rounding is monotone, so every
    engagement sum on the grid is at most its value at `top`, and every risk
    cost at most the largest delta times the largest r. A utility is then at
    most their sum in size, a gap or a shifted quantal exponent at most twice
    that, and a leader value at most the largest leader engagement sum times
    (1 + a few ulps): a factor 4 keeps them all finite.
    """
    a, b, g = top

    def extremes(model: UtilityModel) -> tuple[float, float]:
        """The largest engagement sum at `top` and the largest r of either strategy."""
        phis = [features(table.profiles[s], model) for s in Strategy]
        return max((a * f1 + b * f2) + g * f3 for f1, f2, f3, _ in phis), max(phi[3] for phi in phis)

    creators = [extremes(model) for model in {m.model for m in pop.members}]
    utility = max(e for e, _ in creators) + max(m.delta for m in pop.members) * max(r for _, r in creators)
    return math.isfinite(4.0 * utility) and math.isfinite(4.0 * extremes(UtilityModel.LINEAR)[0])


def _member_utility(weights: AlgorithmWeights, idx: int, member: CreatorParams, profile: EngagementProfile) -> float:
    """creator_utility of member idx, whose error is tagged with the index."""
    try:
        return creator_utility(weights, member, profile)
    except InvalidScenarioError as exc:
        raise InvalidScenarioError(f"member {idx}: {exc}") from exc


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

    The grid is evaluated in chunks of at most _CHUNK_EVALUATIONS points x
    members (but at least one point), as arrays, with population_shares'
    semantics, and the tie rule runs over each chunk's values; weights, shares
    and the result are built for the returned optimum only. From the second
    chunk on, when _values_stay_finite holds, the shares are computed only
    at the points whose leader value could beat the incumbent. Errors are
    those of the point-by-point search: an over-budget grid, then any
    invalid grid point, then the first failing member at the first failing
    point, or a non-finite leader value there, then a member whose utility
    at the optimum is non-finite, then a non-finite population-mean utility.
    """
    tie_tol = _checked("tie_tol", tie_tol)
    check_grid_budget(domain, len(pop))
    axis_values = _axes(domain)
    axes = [np.array(axis) for axis in axis_values]
    if not all(np.isfinite(axis).all() for axis in axes):
        enumerate_domain(domain)  # raises the first invalid point's error
    # engagement value is the linear model's (clicks, watch_time, shares)
    c1, c2, c3, _ = features(table.profiles[Strategy.COLLABORATION], UtilityModel.LINEAR)
    b1, b2, b3, _ = features(table.profiles[Strategy.BEEFING], UtilityModel.LINEAR)

    points = grid_size(domain)
    step = max(1, _CHUNK_EVALUATIONS // len(pop))
    # A leader value s_c*E_c + s_b*E_b, with shares and engagement values
    # >= 0, is at most max(E_c, E_b) * (s_c + s_b). Each rounding to nearest
    # scales a result by at most 1 + u, u = 2**-53, or adds at most 2**-1075
    # below the normal range. The shares sum to at most (1 + u)**(n + 1) /
    # (1 - u) for n members (quantal: each member's two probabilities are
    # normalised by a rounded sum, n of them are summed in any order, then
    # divided by n; head counts: two rounded quotients), and the value's two
    # products and its sum add (1 + u)**2. All of it is below 1 + (n + 5)*u,
    # so the exact factor 1 + (n + 8)*2**-52, with the rounding of the
    # widened bound, covers it, and adding 2**-1022 covers every underflow.
    # A point whose widened bound is at most the incumbent's value cannot
    # beat it by more than tie_tol >= 0, nor the later incumbents, which
    # are larger.
    widen = 1.0 + (len(pop) + 8) * 2.0**-52
    best, best_value = None, -math.inf
    # a second chunk exists; skipping is sound only if no point can fail
    skip = points > step and _values_stay_finite(tuple(axis[-1] for axis in axis_values), pop, table)
    with np.errstate(all="ignore"):  # failures are found by _chunk_shares and below
        columns = _columns(pop, table)
        for lo in range(0, points, step):
            indices = _grid_indices(domain, lo, min(lo + step, points))
            alpha, beta, gamma = (axis[idx] for axis, idx in zip(axes, indices))
            e_collab = (alpha * c1 + beta * c2) + gamma * c3
            e_beef = (alpha * b1 + beta * b2) + gamma * b3
            if skip and lo:
                keep = np.flatnonzero(np.maximum(e_collab, e_beef) * widen + 2.0**-1022 > best_value)
                if not keep.size:
                    continue
                alpha, beta, gamma, e_collab, e_beef = (x[keep] for x in (alpha, beta, gamma, e_collab, e_beef))
            s_collab, s_beef, suspects = _chunk_shares(columns, rule, alpha, beta, gamma)
            # algorithm_utility's sum, in its order of operations
            values = s_collab * e_collab + s_beef * e_beef
            failed = ~np.isfinite(values)
            if suspects is not None:
                failed |= suspects.any(axis=1)
            for p in np.flatnonzero(failed).tolist():  # the first failure, in point order
                if suspects is not None:
                    point = (float(alpha[p]), float(beta[p]), float(gamma[p]))
                    _raise_member_error(columns, rule, point, suspects[p])
                if not math.isfinite(values[p]):
                    raise InvalidScenarioError(f"leader value is non-finite ({float(values[p])!r})")
            # With tie_tol >= 0 a point that wins beats every earlier value,
            # so only the strict records of the running maximum can win.
            ceiling = np.maximum.accumulate(np.concatenate(([best_value], values[:-1])))
            for p in np.flatnonzero(values > ceiling).tolist():
                value = float(values[p])
                if value > best_value + tie_tol:
                    best, best_value = (float(alpha[p]), float(beta[p]), float(gamma[p])), value

    best_weights = AlgorithmWeights(*best)
    utilities = {
        s: sum(_member_utility(best_weights, idx, m, table.profiles[s]) for idx, m in enumerate(pop.members))
        / len(pop.members)
        for s in Strategy
    }
    for s, value in utilities.items():  # the sum of finite member utilities can overflow
        if not math.isfinite(value):
            raise InvalidScenarioError(
                f"population-mean {s.value} utility is non-finite ({value!r}); inputs too extreme"
            )
    return EquilibriumResult(
        weights=best_weights,
        shares=population_shares(pop, rule, best_weights, table),
        leader_value=best_value,
        creator_utilities=utilities,
        grid_points_evaluated=points,
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
