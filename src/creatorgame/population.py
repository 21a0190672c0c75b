"""A finite, heterogeneous creator population and its strategy shares.

Stochastic rules are aggregated by averaging per-member choice
probabilities rather than sampling, so the whole equilibrium path stays
deterministic.
"""

from __future__ import annotations

import math
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
    _engagement,
    features,
)
from .response import TIE_TOLERANCE, Exact, Quantal, ResponseRule, Satisficing, respond

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
    pop: Population
    table: GameTable


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
    return _Columns(phi[:3], model, risk_cost, bool(np.isfinite(risk_cost).all()), pop, table)


def _chunk_shares(
    columns: _Columns, rule: ResponseRule, alpha: np.ndarray, beta: np.ndarray, gamma: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The (Collaboration, Beefing) shares at a chunk of weight vectors, with
    respond's semantics, over all members at once.

    alpha, beta and gamma have shape (points,). The engagement sums
    e = w·φ are computed by core._engagement once per point, strategy and
    model, and each utility is e - delta*r, as in creator_utility, so exact
    and satisficing shares are the same head-count fractions as the
    per-member path, bit for bit. Quantal shares agree with it to
    1e-12 only: np.exp may differ from math.exp by one ulp, and the
    probabilities are summed pairwise.

    Returns both shares as (points,) arrays and a (points, members) mask of
    the members whose respond raises at each point, or None exactly when no
    member fails: the caller raises the first one's error through
    _raise_member_error. Callers silence numpy's floating-point warnings.
    """
    e = _engagement(alpha[:, None, None], beta[:, None, None], gamma[:, None, None], columns.feat)
    # e and delta*r are >= 0, so every utility is finite when both are
    finite = columns.risk_finite and bool(np.isfinite(e).all())
    if columns.model is not None:  # take keeps the (points, 2, members) gather C-ordered
        e = e.take(columns.model, axis=2)
    u_collab = e[:, 0] - columns.risk_cost[0]
    u_beef = e[:, 1] - columns.risk_cost[1]
    gap = u_beef - u_collab
    n = len(columns.pop)
    failed = None
    if isinstance(rule, Quantal):
        # The larger utility's shifted score is exp(0) = 1 and the other's
        # exp(-lam * |gap|), so one exp per member gives respond's scores.
        beefs = gap > 0.0
        other = np.exp(-rule.lam * np.abs(gap))
        norm = 1.0 + other
        top, rest = 1.0 / norm, other / norm
        p_collab, p_beef = np.where(beefs, rest, top), np.where(beefs, top, rest)
        if not finite:  # a +inf utility shifts to inf - inf: both probabilities are nan
            overflow = np.maximum(u_collab, u_beef) == np.inf
            p_collab[overflow] = p_beef[overflow] = np.nan
        # C-ordered rows are summed pairwise, as in population_shares' one-point call
        total_collab = p_collab.sum(axis=1)
        if not (finite and math.isfinite(total_collab.sum())):  # some member may have failed
            failed = ~(np.isfinite(u_collab) & np.isfinite(u_beef) & np.isfinite(p_collab))
        s_collab, s_beef = total_collab / n, p_beef.sum(axis=1) / n
    else:
        if isinstance(rule, Exact):
            beefing, reads_beef = gap > rule.tie_tol, True
        elif isinstance(rule, Satisficing):
            # respond reads Beefing's utility only when Collaboration's falls short
            reads_beef = u_collab < rule.aspiration
            beefing = reads_beef & ((u_beef >= rule.aspiration) | (gap > TIE_TOLERANCE))
        else:
            raise TypeError(f"unknown response rule: {rule!r}")
        if not finite:
            failed = ~np.isfinite(u_collab) | (reads_beef & ~np.isfinite(u_beef))
        beefs = np.count_nonzero(beefing, axis=1)
        s_collab, s_beef = (n - beefs) / n, beefs / n
    return s_collab, s_beef, failed if failed is not None and failed.any() else None


def _raise_member_error(
    columns: _Columns, rule: ResponseRule, weights: tuple[float, float, float], failed: np.ndarray
) -> NoReturn:
    """Raise the error of the first member flagged in `failed`, one point's
    row of _chunk_shares' mask, tagged with its index: respond raises it.
    A flagged member that respond accepts is a kernel fault, raised as an
    AssertionError."""
    idx = int(np.argmax(failed))
    try:
        respond(rule, AlgorithmWeights(*weights), columns.pop.members[idx], columns.table)
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
        _raise_member_error(columns, rule, point, failed[0])
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
    if count < 1:
        raise InvalidScenarioError(f"count must be >= 1, got {count}")
    if count > MAX_GRID_EVALUATIONS:  # refused before anything is allocated
        raise InvalidScenarioError(
            f"count must be <= {MAX_GRID_EVALUATIONS}, the limit of grid evaluations, got {count}"
        )
    delta_min = _checked("delta_min", delta_min, minimum=None)  # an infinite bound makes linspace give nan
    delta_max = _checked("delta_max", delta_max, minimum=None)
    if not (0.0 <= delta_min <= delta_max):
        raise InvalidScenarioError(
            f"need 0 <= delta_min <= delta_max, got [{delta_min!r}, {delta_max!r}]"
        )
    deltas = np.linspace(delta_min, delta_max, count)
    return Population(tuple(CreatorParams(delta=float(d), model=model) for d in deltas))
