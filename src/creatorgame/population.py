"""A finite, heterogeneous creator population and its strategy shares.

Stochastic rules are aggregated by averaging per-member choice
probabilities rather than sampling, so the whole equilibrium path stays
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, NoReturn

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
    features,
)
from .response import ResponseRule, _choose, respond

# Largest grid points x members one search may evaluate. At the limit, a
# search that evaluates every point takes about 0.55 s for a single creator
# (simplex resolution 4470, 9,997,156 points) and 0.11 s for a 41-member
# population (resolution 690) (2-vCPU Xeon, Python 3.11, numpy 2.4.6). No
# search can take a larger population.
MAX_GRID_EVALUATIONS = 10**7


@dataclass(frozen=True)
class Population:
    """Ordered, non-empty list of creators."""

    members: tuple[CreatorParams, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", tuple(self.members))
        if not self.members:
            raise InvalidScenarioError("population must have at least one member")
        for idx, member in enumerate(self.members):
            if not isinstance(member, CreatorParams):
                raise InvalidScenarioError(f"member {idx} is not a CreatorParams")

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class StrategyShares:
    """Fraction of the population on each strategy; sums to 1 within 1e-12."""

    share: dict[Strategy, float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "share", dict(self.share))
        if set(self.share) != set(Strategy):
            raise InvalidScenarioError("shares must cover exactly both strategies")
        for strategy, value in self.share.items():
            if not (0.0 <= value <= 1.0):
                raise InvalidScenarioError(f"share({strategy.value}) = {value!r} outside [0, 1]")
        total = sum(self.share[s] for s in Strategy)
        if abs(total - 1.0) > 1e-12:
            raise InvalidScenarioError(f"shares sum to {total!r}, not 1")


class _Columns(NamedTuple):
    """A population's columns against one table, built once per solve. Axis 1
    of feat and axis 0 of risk_cost index the strategy: 0 for Collaboration,
    1 for Beefing.

    feat holds (f1, f2, f3) of each strategy for each model present, shape
    (3, 2, models); model maps each member to its model's index in feat, or
    is None when every member has the same model; risk_cost is delta * r,
    shape (2, members), and risk_finite says whether all of it is finite.
    """

    feat: np.ndarray
    model: np.ndarray | None
    risk_cost: np.ndarray
    risk_finite: bool


def _columns(pop: Population, table: GameTable) -> _Columns:
    members = pop.members
    nonlinear = [m.model is UtilityModel.NONLINEAR for m in members]
    if all(nonlinear) or not any(nonlinear):
        models, model = (members[0].model,), None
    else:
        models, model = (UtilityModel.LINEAR, UtilityModel.NONLINEAR), np.array(nonlinear, dtype=np.intp)
    phi = np.array([[features(table.profiles[s], m) for s in Strategy] for m in models]).T.copy()  # (4, 2, models)
    risk = phi[3] if model is None else phi[3].take(model, axis=1)
    risk_cost = np.array([m.delta for m in members]) * risk
    return _Columns(phi[:3], model, risk_cost, bool(np.isfinite(risk_cost).all()))


def _chunk_shares(
    columns: _Columns, rule: ResponseRule, alpha: np.ndarray, beta: np.ndarray, gamma: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The (Collaboration, Beefing) shares at a chunk of weight vectors, with
    respond's semantics, over all members at once.

    alpha, beta and gamma have shape (points,). The engagement sums
    e = w·φ are computed by core._engagement once per point, strategy and
    model, each utility is e - delta*r, as in creator_utility, and
    response._choose makes the choices, so exact and satisficing shares
    are the same head-count fractions as the per-member path, bit for bit.
    Quantal shares agree with it to 1e-12 only: np.exp may differ from
    math.exp by one ulp, and the probabilities are summed pairwise.

    Returns both shares as (points,) arrays and a (points, members) mask of
    the members whose respond raises at each point, or None exactly when no
    member fails: the caller raises the first one's error through
    _raise_member_error. Callers silence numpy's floating-point warnings.
    """
    e = _engagement(alpha[:, None, None], beta[:, None, None], gamma[:, None, None], columns.feat)
    finite = columns.risk_finite and bool(np.isfinite(e).all())  # see _choose
    if columns.model is not None:  # take keeps the (points, 2, members) gather C-ordered
        e = e.take(columns.model, axis=2)
    _, beef, collab, failed = _choose(rule, e[:, 0] - columns.risk_cost[0], e[:, 1] - columns.risk_cost[1], finite)
    n = columns.risk_cost.shape[1]
    if collab is None:  # head counts
        beefs = np.count_nonzero(beef, axis=1)
        s_collab, s_beef = (n - beefs) / n, beefs / n
    else:  # C-ordered rows are summed pairwise, as in population_shares' one-point call
        s_collab, s_beef = collab.sum(axis=1) / n, beef.sum(axis=1) / n
    return s_collab, s_beef, failed if failed is not None and failed.any() else None


def _raise_member_error(
    pop: Population, table: GameTable, rule: ResponseRule, weights: tuple[float, float, float], failed: np.ndarray
) -> NoReturn:
    """Raise the error of the first member flagged in `failed`, one point's
    row of _chunk_shares' mask, tagged with its index: respond raises it.
    A flagged member that respond accepts is a kernel fault, raised as an
    AssertionError."""
    idx = int(np.argmax(failed))
    try:
        respond(rule, AlgorithmWeights(*weights), pop.members[idx], table)
    except InvalidScenarioError as exc:
        raise InvalidScenarioError(f"member {idx}: {exc}") from exc
    raise AssertionError(f"member {idx} was flagged as failing at {weights} but responds")


def population_shares(
    pop: Population,
    rule: ResponseRule,
    weights: AlgorithmWeights,
    table: GameTable,
) -> StrategyShares:
    """Expected fraction of the population choosing each strategy.

    Under the exact rule this is a best-response head count; under
    stochastic rules it is the mean of per-member probabilities. Member
    errors are re-raised with the offending member index.
    """
    point = (weights.alpha, weights.beta, weights.gamma)
    with np.errstate(all="ignore"):
        columns = _columns(pop, table)
        collab, beef, failed = _chunk_shares(columns, rule, *(np.array([w]) for w in point))
    if failed is not None:
        _raise_member_error(pop, table, rule, point, failed[0])
    return StrategyShares({Strategy.COLLABORATION: float(collab[0]), Strategy.BEEFING: float(beef[0])})


def make_delta_grid_population(
    delta_min: float,
    delta_max: float,
    count: int,
    model: UtilityModel = UtilityModel.LINEAR,
) -> Population:
    """count creators with delta evenly spaced over [delta_min, delta_max].

    Both endpoints are included; count = 1 yields a single member at
    delta_min.
    """
    _count("count", count, MAX_GRID_EVALUATIONS)
    delta_min = _checked("delta_min", delta_min, minimum=None)  # an infinite bound makes linspace give nan
    delta_max = _checked("delta_max", delta_max, minimum=None)
    if not (0.0 <= delta_min <= delta_max):
        raise InvalidScenarioError(
            f"need 0 <= delta_min <= delta_max, got [{delta_min!r}, {delta_max!r}]"
        )
    deltas = np.linspace(delta_min, delta_max, count)
    return Population(tuple(CreatorParams(delta=float(d), model=model) for d in deltas))
