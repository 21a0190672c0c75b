"""A finite, heterogeneous creator population and its strategy shares.

Stochastic rules are aggregated by averaging per-member choice
probabilities rather than sampling, so the whole equilibrium path stays
deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    AlgorithmWeights,
    CreatorParams,
    GameTable,
    InvalidScenarioError,
    Strategy,
    UtilityModel,
    features,
)
from .response import TIE_TOLERANCE, Exact, Quantal, ResponseRule, Satisficing, respond

# Largest grid points x members one search may evaluate. At the limit a
# single creator (simplex resolution 4470, 9,997,156 points) takes about
# 1.4 s and a 41-member population (resolution 690) about 0.35 s
# (2-vCPU Xeon, numpy 2.4). No search can take a larger population.
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
    """Per-member feature columns of a population against one table: f1, f2,
    f3 and risk_cost (delta * r) each have shape (2, members), row 0 for
    Collaboration and row 1 for Beefing."""

    f1: np.ndarray
    f2: np.ndarray
    f3: np.ndarray
    risk_cost: np.ndarray
    pop: Population
    table: GameTable


def _columns(pop: Population, table: GameTable) -> _Columns:
    models = {m.model for m in pop.members}
    phi = {model: [features(table.profiles[s], model) for s in Strategy] for model in models}
    f1, f2, f3, risk = np.array([phi[m.model] for m in pop.members]).transpose(2, 1, 0).copy()
    deltas = np.array([m.delta for m in pop.members])
    return _Columns(f1, f2, f3, deltas * risk, pop, table)


def _chunk_shares(
    columns: _Columns, rule: ResponseRule, alpha: np.ndarray, beta: np.ndarray, gamma: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The (Collaboration, Beefing) shares at a chunk of weight vectors, with
    respond's semantics, over all members at once.

    alpha, beta and gamma have shape (points,); the utilities have shape
    (points, 2, members) and are ((alpha*f1 + beta*f2) + gamma*f3) - delta*r,
    in creator_utility's order, so exact and satisficing shares are the same
    head-count fractions as the per-member path, bit for bit. Quantal shares
    agree with it to 1e-12 only: np.exp may differ from math.exp by one ulp,
    and the probabilities are summed pairwise.

    Returns both shares as (points,) arrays and a (points, members) mask of
    the members that may have failed at each point, or None when none may
    have: the caller re-runs them through _raise_member_error. Callers
    silence numpy's floating-point warnings.
    """
    a, b, g = alpha[:, None, None], beta[:, None, None], gamma[:, None, None]
    u = ((a * columns.f1 + b * columns.f2) + g * columns.f3) - columns.risk_cost
    u_collab, u_beef = u[:, 0], u[:, 1]
    n = len(columns.pop)
    if isinstance(rule, Quantal):
        scores = np.exp(rule.lam * (u - np.maximum(u_collab, u_beef)[:, None]))
        probs = scores / (scores[:, 0] + scores[:, 1])[:, None]
        totals = probs.sum(axis=2)
        suspects = None
        if not math.isfinite(u.sum() + totals[:, 0].sum()):  # some member may have failed
            suspects = ~(np.isfinite(u).all(axis=1) & np.isfinite(probs[:, 0]))
        return totals[:, 0] / n, totals[:, 1] / n, suspects
    if isinstance(rule, Exact):
        beefing = u_beef - u_collab > rule.tie_tol
    elif isinstance(rule, Satisficing):
        beefing = (u_collab < rule.aspiration) & (
            (u_beef >= rule.aspiration) | (u_beef - u_collab > TIE_TOLERANCE)
        )
    else:
        raise TypeError(f"unknown response rule: {rule!r}")
    suspects = None
    if not math.isfinite(u.sum()):  # some member may have failed
        suspects = ~np.isfinite(u).all(axis=1)
    beefs = np.count_nonzero(beefing, axis=1)
    return (n - beefs) / n, beefs / n, suspects


def _raise_member_error(
    columns: _Columns, rule: ResponseRule, weights: tuple[float, float, float], suspects: np.ndarray
) -> None:
    """Re-run the suspect members of one point through respond in order; the
    first whose response fails raises its error, tagged with its index.
    Suspects must include every member that fails."""
    for idx in np.flatnonzero(suspects).tolist():
        try:
            respond(rule, AlgorithmWeights(*weights), columns.pop.members[idx], columns.table)
        except InvalidScenarioError as exc:
            raise InvalidScenarioError(f"member {idx}: {exc}") from exc


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
        collab, beef, suspects = _chunk_shares(columns, rule, *(np.array([w]) for w in point))
    if suspects is not None:
        _raise_member_error(columns, rule, point, suspects[0])
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
    if not (0.0 <= delta_min <= delta_max):
        raise InvalidScenarioError(
            f"need 0 <= delta_min <= delta_max, got [{delta_min!r}, {delta_max!r}]"
        )
    deltas = np.linspace(delta_min, delta_max, count)
    return Population(tuple(CreatorParams(delta=float(d), model=model) for d in deltas))
