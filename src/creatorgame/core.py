"""Core data model for the platform/creator engagement game.

A platform ranking algorithm (the leader) publishes weights for clicks,
watch time, and shares. Each creator (a follower) then picks one of two
content strategies, collaboration or beefing, each with its own expected
engagement metrics and drama risk. Sponsors penalize drama through the
creator's sensitivity coefficient delta.

All quantities are 64-bit floats. Weights, metrics, and delta are validated
as finite and non-negative at construction; bad values raise
InvalidScenarioError instead of being clamped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Mapping


class InvalidScenarioError(ValueError):
    """A scenario quantity is non-finite, negative, or otherwise unusable."""


def _checked(name: str, value: float, minimum: float | None = 0.0) -> float:
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise InvalidScenarioError(f"{name} must be a real number, got {value!r}") from None
    if not math.isfinite(value):
        raise InvalidScenarioError(f"{name} must be finite, got {value!r}")
    if minimum is not None and value < minimum:
        raise InvalidScenarioError(f"{name} must be >= {minimum}, got {value!r}")
    return value


class Strategy(Enum):
    """The two creator strategies.

    COLLABORATION iterates first; that order is used everywhere a
    deterministic tie-break or iteration order is needed.
    """

    COLLABORATION = "Collaboration"
    BEEFING = "Beefing"


class UtilityModel(Enum):
    """Which creator utility function applies: linear or diminishing-returns."""

    LINEAR = "linear"
    NONLINEAR = "nonlinear"


@dataclass(frozen=True)
class EngagementProfile:
    """Expected engagement outcomes of one strategy.

    clicks, watch_time, and shares are expected counts in arbitrary units;
    drama_risk is a non-negative controversy level (0 = brand safe).
    """

    clicks: float
    watch_time: float
    shares: float
    drama_risk: float

    def __post_init__(self) -> None:
        for name in ("clicks", "watch_time", "shares", "drama_risk"):
            object.__setattr__(self, name, _checked(name, getattr(self, name)))


@dataclass(frozen=True)
class GameTable:
    """Per-strategy engagement profiles. Must cover exactly both strategies."""

    profiles: Mapping[Strategy, EngagementProfile]

    def __post_init__(self) -> None:
        object.__setattr__(self, "profiles", dict(self.profiles))
        if set(self.profiles) != set(Strategy):
            missing = [s.value for s in Strategy if s not in self.profiles]
            extra = [k for k in self.profiles if not isinstance(k, Strategy)]
            raise InvalidScenarioError(
                f"game table must map exactly both strategies (missing={missing}, extra={extra})"
            )
        for strategy, profile in self.profiles.items():
            if not isinstance(profile, EngagementProfile):
                raise InvalidScenarioError(
                    f"profile for {strategy.value} must be an EngagementProfile"
                )


@dataclass(frozen=True)
class AlgorithmWeights:
    """The leader's engagement weights: alpha (clicks), beta (watch time), gamma (shares)."""

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "gamma"):
            object.__setattr__(self, name, _checked(name, getattr(self, name)))


@dataclass(frozen=True)
class CreatorParams:
    """Sponsor sensitivity delta plus the utility model the creator maximizes."""

    delta: float
    model: UtilityModel = UtilityModel.LINEAR

    def __post_init__(self) -> None:
        object.__setattr__(self, "delta", _checked("delta", self.delta))
        if not isinstance(self.model, UtilityModel):
            raise InvalidScenarioError(f"model must be a UtilityModel, got {self.model!r}")


# Illustrative default metrics: collaboration trades clicks and shares for
# longer watch time and zero drama; beefing is the reverse.
DEFAULT_TABLE = GameTable(
    {
        Strategy.COLLABORATION: EngagementProfile(clicks=2.0, watch_time=5.0, shares=3.0, drama_risk=0.0),
        Strategy.BEEFING: EngagementProfile(clicks=5.0, watch_time=2.0, shares=4.0, drama_risk=3.0),
    }
)


def features(profile: EngagementProfile, model: UtilityModel) -> tuple[float, float, float, float]:
    """The feature map of one strategy's profile: (f1, f2, f3, r), so that the
    creator's utility is w·φ - delta*r, with w·φ summed by _engagement.

    Linear model: (clicks, watch_time, shares, drama_risk).
    Nonlinear model (diminishing returns, quadratic drama penalty):
    (ln(1 + clicks), sqrt(watch_time), shares, drama_risk**2), natural log.
    A drama_risk**2 too large for a float gives r = inf, so every utility
    that weighs it is non-finite and rejected.
    """
    if model is UtilityModel.LINEAR:
        return profile.clicks, profile.watch_time, profile.shares, profile.drama_risk
    try:
        r = profile.drama_risk**2
    except OverflowError:
        r = math.inf
    return math.log1p(profile.clicks), math.sqrt(profile.watch_time), profile.shares, r


def _engagement(alpha, beta, gamma, phi):
    """w·φ = (alpha*φ[0] + beta*φ[1]) + gamma*φ[2], for floats and broadcasting
    arrays alike: the one place that fixes the order of every engagement sum."""
    return (alpha * phi[0] + beta * phi[1]) + gamma * phi[2]


def creator_utility(
    weights: AlgorithmWeights, params: CreatorParams, profile: EngagementProfile
) -> float:
    """Creator payoff for one strategy's engagement profile:
    _engagement(w, φ) - delta*φ[3] over the model's features φ.

    Linear model:
        alpha*clicks + beta*watch_time + gamma*shares - delta*drama_risk

    Nonlinear model (diminishing returns, quadratic drama penalty):
        alpha*ln(1 + clicks) + beta*sqrt(watch_time) + gamma*shares - delta*drama_risk**2

    The logarithm is the natural log. Pure and deterministic; raises
    InvalidScenarioError if the result is non-finite (extreme inputs).
    """
    phi = features(profile, params.model)
    value = _engagement(weights.alpha, weights.beta, weights.gamma, phi) - params.delta * phi[3]
    if not math.isfinite(value):
        raise InvalidScenarioError(f"creator utility is non-finite ({value!r}); inputs too extreme")
    return value


def utility_gap(weights: AlgorithmWeights, params: CreatorParams, table: GameTable) -> float:
    """U(Beefing) - U(Collaboration). Positive means beefing is strictly preferred."""
    return creator_utility(weights, params, table.profiles[Strategy.BEEFING]) - creator_utility(
        weights, params, table.profiles[Strategy.COLLABORATION]
    )
