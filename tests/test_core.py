"""Utility models: golden values, algebraic properties, and validation."""

import math

import numpy as np
import pytest

import creatorgame
from creatorgame import (
    AlgorithmWeights,
    CreatorParams,
    DEFAULT_TABLE,
    EngagementProfile,
    GameTable,
    InvalidScenarioError,
    Strategy,
    StrategyShares,
    UtilityModel,
    algorithm_utility,
    creator_utility,
    switching_delta,
    utility_gap,
)

COLLAB = DEFAULT_TABLE.profiles[Strategy.COLLABORATION]
BEEF = DEFAULT_TABLE.profiles[Strategy.BEEFING]

W_BASE = AlgorithmWeights(1.0, 2.0, 1.5)
W_VIRAL = AlgorithmWeights(2.5, 0.5, 2.0)
LINEAR_1 = CreatorParams(1.0)


def test_linear_utilities_baseline_weights():
    assert creator_utility(W_BASE, LINEAR_1, COLLAB) == pytest.approx(16.5, abs=1e-12)
    assert creator_utility(W_BASE, LINEAR_1, BEEF) == pytest.approx(12.0, abs=1e-12)


def test_linear_utilities_clicks_shares_heavy():
    assert creator_utility(W_VIRAL, LINEAR_1, COLLAB) == pytest.approx(13.5, abs=1e-12)
    assert creator_utility(W_VIRAL, LINEAR_1, BEEF) == pytest.approx(18.5, abs=1e-12)


def test_linear_beefing_utility_under_higher_sponsor_pressure():
    assert creator_utility(W_BASE, CreatorParams(2.5), BEEF) == pytest.approx(7.5, abs=1e-12)
    # sponsor pressure never touches the zero-risk strategy
    assert creator_utility(W_BASE, CreatorParams(2.5), COLLAB) == pytest.approx(16.5, abs=1e-12)


def test_zero_weights_zero_utility_both_models():
    zero = AlgorithmWeights(0.0, 0.0, 0.0)
    for model in UtilityModel:
        params = CreatorParams(0.0, model)
        for profile in (COLLAB, BEEF):
            assert creator_utility(zero, params, profile) == 0.0


def test_nonlinear_beefing_value():
    # oracle: direct evaluation of ln(1+5) + sqrt(2) + 4 - 1*3**2
    expected = math.log(6.0) + math.sqrt(2.0) + 4.0 - 9.0
    unit = AlgorithmWeights(1.0, 1.0, 1.0)
    actual = creator_utility(unit, CreatorParams(1.0, UtilityModel.NONLINEAR), BEEF)
    assert actual == pytest.approx(expected, abs=1e-12)
    assert actual == pytest.approx(-1.7940269683988497, abs=1e-12)


def test_utility_gap_examples():
    assert utility_gap(W_BASE, LINEAR_1, DEFAULT_TABLE) == pytest.approx(-4.5, abs=1e-12)
    assert utility_gap(W_VIRAL, LINEAR_1, DEFAULT_TABLE) == pytest.approx(5.0, abs=1e-12)
    # gap = 3a - 3b + g - 3d vanishes at (1, 1, 3, 1)
    tie = AlgorithmWeights(1.0, 1.0, 3.0)
    assert utility_gap(tie, LINEAR_1, DEFAULT_TABLE) == 0.0


def test_linear_positive_homogeneity():
    rng = np.random.default_rng(7)
    for _ in range(200):
        a, b, g, d = rng.uniform(0.0, 10.0, size=4)
        c = rng.uniform(0.01, 10.0)
        base_w, base_p = AlgorithmWeights(a, b, g), CreatorParams(d)
        scaled_w, scaled_p = AlgorithmWeights(c * a, c * b, c * g), CreatorParams(c * d)
        for profile in (COLLAB, BEEF):
            u = creator_utility(base_w, base_p, profile)
            cu = creator_utility(scaled_w, scaled_p, profile)
            assert cu == pytest.approx(c * u, rel=1e-12, abs=1e-12)
        gap = utility_gap(base_w, base_p, DEFAULT_TABLE)
        cgap = utility_gap(scaled_w, scaled_p, DEFAULT_TABLE)
        assert cgap == pytest.approx(c * gap, rel=1e-12, abs=1e-12)


def test_linear_additivity_over_profiles():
    rng = np.random.default_rng(11)
    for _ in range(100):
        a, b, g, d = rng.uniform(0.0, 5.0, size=4)
        weights, params = AlgorithmWeights(a, b, g), CreatorParams(d)
        p1 = EngagementProfile(*rng.uniform(0.0, 10.0, size=4))
        p2 = EngagementProfile(*rng.uniform(0.0, 10.0, size=4))
        combined = EngagementProfile(
            p1.clicks + p2.clicks,
            p1.watch_time + p2.watch_time,
            p1.shares + p2.shares,
            p1.drama_risk + p2.drama_risk,
        )
        lhs = creator_utility(weights, params, combined)
        rhs = creator_utility(weights, params, p1) + creator_utility(weights, params, p2)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_nonlinear_concavity_in_metrics():
    weights = AlgorithmWeights(2.0, 3.0, 1.0)
    params = CreatorParams(1.5, UtilityModel.NONLINEAR)

    def u(clicks=5.0, watch=2.0, risk=3.0):
        return creator_utility(weights, params, EngagementProfile(clicks, watch, 4.0, risk))

    grid = np.linspace(0.0, 20.0, 41)
    for field in ("clicks", "watch"):
        values = [u(**{field: x}) for x in grid]
        diffs = np.diff(values)
        assert all(diffs[i + 1] <= diffs[i] + 1e-12 for i in range(len(diffs) - 1))

    risk_values = [u(risk=x) for x in grid]
    risk_diffs = np.diff(risk_values)
    assert all(d <= 0.0 for d in risk_diffs)  # non-increasing in drama risk
    assert all(risk_diffs[i + 1] <= risk_diffs[i] + 1e-12 for i in range(len(risk_diffs) - 1))


def test_engagement_sums_in_one_written_out_order():
    # Every utility, gap, switching delta and leader value shares one sum in
    # the package, so comparing those paths with each other cannot catch a
    # changed order of operations: these formulas are written out instead.
    rng = np.random.default_rng(20251019)
    regrouped = 0
    for _ in range(200):
        a, b, g, d, share = rng.uniform(0.1, 10.0, size=5).tolist()
        share /= 10.0
        c1, c2, c3, cr, b1, b2, b3, br = rng.uniform(0.1, 10.0, size=8).tolist()
        collab, beef = EngagementProfile(c1, c2, c3, cr), EngagementProfile(b1, b2, b3, br)
        table = GameTable({Strategy.COLLABORATION: collab, Strategy.BEEFING: beef})
        weights = AlgorithmWeights(a, b, g)
        for x1, x2, x3, r, profile in ((c1, c2, c3, cr, collab), (b1, b2, b3, br, beef)):
            linear = creator_utility(weights, CreatorParams(d), profile)
            assert linear == ((a * x1 + b * x2) + g * x3) - d * r
            nonlinear = creator_utility(weights, CreatorParams(d, UtilityModel.NONLINEAR), profile)
            assert nonlinear == ((a * math.log1p(x1) + b * math.sqrt(x2)) + g * x3) - d * r**2
            regrouped += (a * x1 + b * x2) + g * x3 != a * x1 + (b * x2 + g * x3)
        numer = (a * (b1 - c1) + b * (b2 - c2)) + g * (b3 - c3)
        assert switching_delta(weights, UtilityModel.LINEAR, table) == numer / (br - cr)
        numer = (a * (math.log1p(b1) - math.log1p(c1)) + b * (math.sqrt(b2) - math.sqrt(c2))) + g * (b3 - c3)
        assert switching_delta(weights, UtilityModel.NONLINEAR, table) == numer / (br**2 - cr**2)
        shares = StrategyShares({Strategy.COLLABORATION: share, Strategy.BEEFING: 1.0 - share})
        value = share * ((a * c1 + b * c2) + g * c3) + (1.0 - share) * ((a * b1 + b * b2) + g * b3)
        assert algorithm_utility(weights, shares, table) == value
    assert regrouped > 50  # the draws tell the two groupings apart


def test_utilities_are_pure():
    for model in UtilityModel:
        params = CreatorParams(1.3, model)
        first = creator_utility(W_BASE, params, BEEF)
        for _ in range(5):
            assert creator_utility(W_BASE, params, BEEF) == first


def test_negative_and_nonfinite_inputs_rejected():
    with pytest.raises(InvalidScenarioError):
        AlgorithmWeights(-0.1, 1.0, 1.0)
    with pytest.raises(InvalidScenarioError):
        AlgorithmWeights(1.0, math.nan, 1.0)
    with pytest.raises(InvalidScenarioError):
        AlgorithmWeights(1.0, 1.0, math.inf)
    with pytest.raises(InvalidScenarioError):
        CreatorParams(-1.0)
    with pytest.raises(InvalidScenarioError):
        EngagementProfile(1.0, -2.0, 3.0, 0.0)
    with pytest.raises(InvalidScenarioError):
        CreatorParams(1.0, model="linear")  # must be the enum, not a string


def test_game_table_requires_both_strategies():
    with pytest.raises(InvalidScenarioError):
        GameTable({Strategy.COLLABORATION: COLLAB})


def test_overflowing_utility_signals_invalid_scenario():
    huge = AlgorithmWeights(1e308, 1e308, 0.0)
    with pytest.raises(InvalidScenarioError):
        creator_utility(huge, CreatorParams(0.0), EngagementProfile(1e308, 1.0, 0.0, 0.0))


def test_strategy_ordering_collaboration_first():
    assert list(Strategy) == [Strategy.COLLABORATION, Strategy.BEEFING]
    # the order is the Enum's iteration order; strategies do not compare
    with pytest.raises(TypeError):
        Strategy.COLLABORATION < Strategy.BEEFING
    with pytest.raises(TypeError):
        sorted([Strategy.BEEFING, Strategy.COLLABORATION])


def test_public_api_names_are_sorted_unique_and_resolve():
    names = creatorgame.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(creatorgame, name)] == []
    assert "point_mass_shares" not in names
    assert not hasattr(creatorgame, "point_mass_shares")
