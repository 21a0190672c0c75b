"""Leader side: the platform's engagement objective and the weight search.

The platform's payoff is the share-weighted engagement value of the
population's responses; drama risk never enters it. The raw argmax over
weights is unbounded (the objective is linear in the weights), so the
search runs over a compact domain: by default the unit simplex
alpha + beta + gamma = 1, which is enough because best responses are
invariant to rescaling all of (alpha, beta, gamma, delta), for gaps
outside the absolute tie band at both scales.
"""

from __future__ import annotations

import math
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
    _count,
    _engagement,
    creator_utility,
    features,
)
from .population import (
    MAX_GRID_EVALUATIONS,
    Population,
    StrategyShares,
    _Columns,
    _chunk_shares,
    _columns,
    _raise_member_error,
    population_shares,  # not called here; kept importable as leader.population_shares
)
from .response import ResponseRule

# Later grid points must beat the incumbent by more than this to win.
LEADER_TIE_TOLERANCE = 1e-9

# Largest points x members one chunk of the search evaluates at once; it
# bounds the search's working memory, whatever the grid size.
_CHUNK_EVALUATIONS = 4096

# Grid points whose weights, engagement values and leader-value bounds a
# search that skips points computes at once (rounded down to whole chunks,
# at least one); it bounds the rest of the search's working memory.
_BLOCK_POINTS = 8192


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
        _count("resolution", self.resolution)


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
        _count("resolution", self.resolution)


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
        phi = features(table.profiles[s], UtilityModel.LINEAR)
        total += shares.share[s] * _engagement(weights.alpha, weights.beta, weights.gamma, phi)
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


def _axes(domain: WeightDomain) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The values i * bound / n, i = 0..n, along alpha, beta and gamma, as
    float64 arrays: the same IEEE operations, so the same bits.

    Raises the error of the grid's first invalid point, in (i, j, k) order.
    Every axis starts at 0 and grows with i, so that point is 0 on every
    axis but the last one, in alpha, beta, gamma order, whose top value is
    non-finite: checking the top values of gamma, beta, then alpha gives
    that point's message.
    """
    n = domain.resolution
    if isinstance(domain, SimplexDomain):
        bounds = (domain.total,) * 3
    else:
        bounds = (domain.alpha_max, domain.beta_max, domain.gamma_max)
    for name, bound in zip(("gamma", "beta", "alpha"), reversed(bounds)):
        _checked(name, n * bound / n)
    return tuple(np.arange(n + 1) * bound / n for bound in bounds)


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
    i = flat // (n + 1) ** 2  # on int64, // by a scalar is several times faster than np.divmod
    rest = flat - i * (n + 1) ** 2
    j = rest // (n + 1)
    return i, j, rest - j * (n + 1)


def enumerate_domain(domain: WeightDomain) -> list[AlgorithmWeights]:
    """All grid points of the domain in lexicographic (i, j, k) index order,
    with (i, j, k) indexing (alpha, beta, gamma)."""
    check_grid_budget(domain, 1)
    axes, indices = _axes(domain), _grid_indices(domain, 0, grid_size(domain))
    return [AlgorithmWeights(*point) for point in zip(*(axis[idx].tolist() for axis, idx in zip(axes, indices)))]


def _values_stay_finite(columns: _Columns, top: tuple[float, float, float], leader_top: float) -> bool:
    """Whether no utility, gap, choice probability or leader value can be
    non-finite anywhere on a grid whose weights are at most `top` on each
    axis; leader_top is the larger leader engagement sum at `top`. By
    response._choose's bound, a utility is at most in size the engagement
    sum at `top` plus the largest delta * r, a gap or a shifted quantal
    exponent at most twice that, and a leader value at most leader_top
    times (1 + a few ulps): a factor 4 keeps them all finite."""
    utility = _engagement(*top, columns.feat).max() + columns.risk_cost.max()
    return math.isfinite(4.0 * utility) and math.isfinite(4.0 * leader_top)


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

    The grid is walked in blocks of about _BLOCK_POINTS points, in grid
    order; the weights, engagement values and leader-value bounds of a
    block are computed once. The member kernel evaluates the block in
    chunks of at most _CHUNK_EVALUATIONS points x members (but at least one
    point), as arrays with population_shares' semantics, and the tie rule
    runs over its values. Each chunk holds the block's next points whose
    bound still beats the incumbent, re-filtered after each chunk. Only
    when the grid has a second chunk and _values_stay_finite holds are the
    bounds finite; otherwise they are +inf, nothing is skipped and each
    chunk holds the grid's next points.
    Weights, shares (kept from the kernel's output) and the result are built
    for the returned optimum only. Errors are those of the point-by-point
    search: an over-budget grid, then the first invalid grid point (named by
    _axes from the axes' top values), then, at the first failed point, the
    first member whose response fails (the kernel flags exactly those) or
    else its non-finite leader value, then a member whose utility at the
    optimum is non-finite, then a non-finite population-mean utility. The
    mean sums member utilities left to right in member order.
    """
    tie_tol = _checked("tie_tol", tie_tol)
    check_grid_budget(domain, len(pop))
    axes = _axes(domain)
    # engagement value is the linear model's (clicks, watch_time, shares)
    phi_collab, phi_beef = (features(table.profiles[s], UtilityModel.LINEAR) for s in Strategy)

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
    top = tuple(float(axis[-1]) for axis in axes)
    leader_top = max(_engagement(*top, phi_collab), _engagement(*top, phi_beef))
    best, best_value, best_shares = None, -math.inf, None
    block = max(1, _BLOCK_POINTS // step) * step  # whole chunks
    with np.errstate(all="ignore"):  # failures are found by _chunk_shares and below
        columns = _columns(pop, table)
        # a second chunk exists; skipping is sound only if no point can fail
        skip = points > step and _values_stay_finite(columns, top, leader_top)
        for lo in range(0, points, block):
            indices = _grid_indices(domain, lo, min(lo + block, points))
            alpha, beta, gamma = (axis[idx] for axis, idx in zip(axes, indices))
            e_collab = _engagement(alpha, beta, gamma, phi_collab)
            e_beef = _engagement(alpha, beta, gamma, phi_beef)
            # Compacted candidates: the next step points whose bound beats the
            # incumbent, filtered again after each chunk. Every bound beats
            # -inf, so the first chunk holds the grid's first step points;
            # without skipping every bound is +inf, and each chunk holds the
            # grid's next step points.
            bound = np.maximum(e_collab, e_beef) * widen + 2.0**-1022 if skip else np.full(alpha.shape, math.inf)
            pending = np.flatnonzero(bound > best_value)
            while pending.size:
                take, pending = pending[:step], pending[step:]
                chunk = [x[take] for x in (alpha, beta, gamma)]
                s_collab, s_beef, members_failed = _chunk_shares(columns, rule, *chunk)
                # algorithm_utility's sum, in its order of operations
                values = s_collab * e_collab[take] + s_beef * e_beef[take]
                failed = ~np.isfinite(values)
                if members_failed is not None:
                    failed |= members_failed.any(axis=1)
                if failed.any():  # the first failed point raises: a member's error, else its leader value's
                    p = int(np.argmax(failed))
                    if members_failed is not None and members_failed[p].any():
                        _raise_member_error(pop, table, rule, tuple(float(x[p]) for x in chunk), members_failed[p])
                    raise InvalidScenarioError(f"leader value is non-finite ({float(values[p])!r})")
                # With tie_tol >= 0 a point that wins beats every earlier value,
                # so only the strict records of the running maximum can win.
                ceiling = np.maximum.accumulate(np.concatenate(([best_value], values[:-1])))
                winner = None
                for p in np.flatnonzero(values > ceiling).tolist():
                    value = float(values[p])
                    if value > best_value + tie_tol:
                        best_value, winner = value, p
                if winner is not None:
                    best = tuple(float(x[winner]) for x in chunk)
                    best_shares = (float(s_collab[winner]), float(s_beef[winner]))
                pending = pending[bound[pending] > best_value]

    best_weights = AlgorithmWeights(*best)
    utilities = {}
    for s in Strategy:
        profile = table.profiles[s]
        total = 0.0  # left to right: sum() compensates its rounding from Python 3.12 on
        for idx, m in enumerate(pop.members):
            try:
                total += creator_utility(best_weights, m, profile)
            except InvalidScenarioError as exc:
                raise InvalidScenarioError(f"member {idx}: {exc}") from exc
        utilities[s] = total / len(pop.members)
    for s, value in utilities.items():  # the sum of finite member utilities can overflow
        if not math.isfinite(value):
            raise InvalidScenarioError(
                f"population-mean {s.value} utility is non-finite ({value!r}); inputs too extreme"
            )
    return EquilibriumResult(
        weights=best_weights,
        shares=StrategyShares(dict(zip(Strategy, best_shares))),
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
