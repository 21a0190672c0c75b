"""Follower side of the game: best responses and bounded-rationality rules.

The exact rule picks the utility-maximizing strategy, with near-ties
(|gap| <= tie tolerance) resolved to collaboration, the brand-safe default.
Two behavioral alternatives share the same interface: a quantal (softmax)
rule whose rationality grows with lam, and a satisficing rule that accepts
the first strategy meeting an aspiration level.
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
    _engagement,
    creator_utility,
    features,
    utility_gap,
)

# Default half-width of the indifference band around gap = 0.
TIE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Exact:
    """Deterministic argmax; ties within tie_tol go to collaboration."""

    tie_tol: float = TIE_TOLERANCE

    def __post_init__(self) -> None:
        object.__setattr__(self, "tie_tol", _checked("tie_tol", self.tie_tol))


@dataclass(frozen=True)
class Quantal:
    """Softmax choice: prob(s) proportional to exp(lam * U(s)).

    lam = 0 ignores utilities entirely (uniform choice); large lam
    approaches the exact rule.
    """

    lam: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "lam", _checked("lam", self.lam))


@dataclass(frozen=True)
class Satisficing:
    """Accept the first strategy (collaboration first) whose utility meets
    the aspiration level; fall back to the exact best response if none does."""

    aspiration: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "aspiration", _checked("aspiration", self.aspiration, minimum=None))


ResponseRule = Union[Exact, Quantal, Satisficing]


@dataclass(frozen=True)
class ResponseDistribution:
    """Choice probabilities over both strategies; sums to 1 within 1e-12."""

    prob: dict[Strategy, float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "prob", dict(self.prob))
        if set(self.prob) != set(Strategy):
            raise InvalidScenarioError("response distribution must cover exactly both strategies")
        for strategy, p in self.prob.items():
            if not (0.0 <= p <= 1.0):
                raise InvalidScenarioError(f"prob({strategy.value}) = {p!r} outside [0, 1]")
        total = sum(self.prob[s] for s in Strategy)
        if abs(total - 1.0) > 1e-12:
            raise InvalidScenarioError(f"probabilities sum to {total!r}, not 1")


def _point_mass(strategy: Strategy) -> ResponseDistribution:
    return ResponseDistribution({s: (1.0 if s is strategy else 0.0) for s in Strategy})


def best_response(
    weights: AlgorithmWeights,
    params: CreatorParams,
    table: GameTable,
    tie_tol: float = TIE_TOLERANCE,
) -> Strategy:
    """The utility-maximizing strategy; |gap| <= tie_tol counts as a tie
    and goes to collaboration."""
    return Strategy.BEEFING if utility_gap(weights, params, table) > tie_tol else Strategy.COLLABORATION


def respond(
    rule: ResponseRule,
    weights: AlgorithmWeights,
    params: CreatorParams,
    table: GameTable,
) -> ResponseDistribution:
    """Apply a response rule, yielding a distribution over strategies.

    Exact and satisficing rules return point masses; the quantal rule
    returns softmax probabilities computed with a max-shift so large
    utilities cannot overflow.
    """
    if isinstance(rule, Exact):
        return _point_mass(best_response(weights, params, table, tie_tol=rule.tie_tol))
    if isinstance(rule, Quantal):
        utilities = {s: creator_utility(weights, params, table.profiles[s]) for s in Strategy}
        top = max(utilities.values())
        scores = {s: math.exp(rule.lam * (utilities[s] - top)) for s in Strategy}
        norm = sum(scores[s] for s in Strategy)
        return ResponseDistribution({s: scores[s] / norm for s in Strategy})
    if isinstance(rule, Satisficing):
        for s in Strategy:
            if creator_utility(weights, params, table.profiles[s]) >= rule.aspiration:
                return _point_mass(s)
        return _point_mass(best_response(weights, params, table))
    raise TypeError(f"unknown response rule: {rule!r}")


def _choose(
    rule: ResponseRule, u_collab: np.ndarray, u_beef: np.ndarray, finite: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, np.ndarray | None]:
    """respond's choices at arrays of utilities, entry by entry: the one array
    kernel of the response rules. Returns gap = u_beef - u_collab; beef, the
    Beefing mask (exact, satisficing: collab is None) or both probabilities
    (quantal); and failed, the mask of entries whose respond raises, or None
    when finite says every utility is finite and none can then fail (all
    rules but quantal at lam = 0). Finiteness shows in one value: weights,
    features and deltas are >= 0 and rounding is monotone, so on a grid each
    engagement sum w·φ is at most its value at the top weights and each risk
    cost delta*r at most the largest; a utility w·φ - delta*r is finite when
    those are. Callers silence numpy's floating-point warnings."""
    gap = u_beef - u_collab
    if isinstance(rule, Quantal):
        # The larger utility's shifted score is exp(0) = 1 and the other's
        # exp(-lam * |gap|), so one exp per entry gives respond's scores.
        beefs = gap > 0.0
        other = np.exp(-rule.lam * np.abs(gap))
        norm = 1.0 + other
        top, rest = 1.0 / norm, other / norm
        collab, beef = np.where(beefs, rest, top), np.where(beefs, top, rest)
        if not finite:  # a +inf utility shifts to inf - inf: both probabilities are nan
            overflow = np.maximum(u_collab, u_beef) == np.inf
            collab[overflow] = beef[overflow] = np.nan
        if finite and rule.lam > 0.0:  # with finite utilities only lam = 0 times an overflowed gap is nan
            return gap, beef, collab, None
        return gap, beef, collab, ~(np.isfinite(u_collab) & np.isfinite(u_beef) & np.isfinite(collab))
    if isinstance(rule, Exact):
        beef, reads_beef = gap > rule.tie_tol, True
    elif isinstance(rule, Satisficing):
        # respond reads Beefing's utility only when Collaboration's falls short
        reads_beef = u_collab < rule.aspiration
        beef = reads_beef & ((u_beef >= rule.aspiration) | (gap > TIE_TOLERANCE))
    else:
        raise TypeError(f"unknown response rule: {rule!r}")
    return gap, beef, None, None if finite else ~np.isfinite(u_collab) | (reads_beef & ~np.isfinite(u_beef))


def switching_delta(
    weights: AlgorithmWeights, model: UtilityModel, table: GameTable
) -> float | None:
    """The sponsor sensitivity at which the creator is exactly indifferent.

    Solves utility_gap = 0 for delta. In both models the gap is affine in
    delta: numerator minus delta times the risk difference (linear model)
    or the squared-risk difference (nonlinear model), so the root is the
    ratio of the two. Returns None when the gap does not depend on delta
    (equal risks). A negative result is returned as-is and means beefing
    is never preferred at any admissible delta >= 0.
    """
    beef = features(table.profiles[Strategy.BEEFING], model)
    collab = features(table.profiles[Strategy.COLLABORATION], model)
    diff = [b - c for b, c in zip(beef, collab)]
    if diff[3] == 0.0:
        return None
    return _engagement(weights.alpha, weights.beta, weights.gamma, diff) / diff[3]
