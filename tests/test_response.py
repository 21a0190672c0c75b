"""Response rules: best responses, thresholds, and bounded rationality."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from creatorgame import (
    AlgorithmWeights,
    CreatorParams,
    DEFAULT_TABLE,
    EngagementProfile,
    Exact,
    GameTable,
    InvalidScenarioError,
    Quantal,
    Satisficing,
    Strategy,
    TIE_TOLERANCE,
    UtilityModel,
    best_response,
    creator_utility,
    respond,
    switching_delta,
    utility_gap,
)

W_BASE = AlgorithmWeights(1.0, 2.0, 1.5)
W_VIRAL = AlgorithmWeights(2.5, 0.5, 2.0)
LINEAR_1 = CreatorParams(1.0)


def _random_table(rng):
    return GameTable(
        {
            Strategy.COLLABORATION: EngagementProfile(*rng.uniform(0.0, 10.0, size=4)),
            Strategy.BEEFING: EngagementProfile(*rng.uniform(0.0, 10.0, size=4)),
        }
    )


def test_best_response_examples():
    assert best_response(W_BASE, LINEAR_1, DEFAULT_TABLE) is Strategy.COLLABORATION
    assert best_response(W_VIRAL, LINEAR_1, DEFAULT_TABLE) is Strategy.BEEFING


def test_exact_tie_goes_to_collaboration():
    tie = AlgorithmWeights(1.0, 1.0, 3.0)
    assert utility_gap(tie, LINEAR_1, DEFAULT_TABLE) == 0.0
    assert best_response(tie, LINEAR_1, DEFAULT_TABLE) is Strategy.COLLABORATION


def test_tie_tolerance_band():
    # gap = 3a - 3b + g - 3d: nudge gamma to place the gap just inside or
    # outside the default 1e-9 band
    inside = AlgorithmWeights(1.0, 1.0, 3.0 + 5e-10)
    outside = AlgorithmWeights(1.0, 1.0, 3.0 + 1e-8)
    assert 0.0 < utility_gap(inside, LINEAR_1, DEFAULT_TABLE) <= 1e-9
    assert best_response(inside, LINEAR_1, DEFAULT_TABLE) is Strategy.COLLABORATION
    assert utility_gap(outside, LINEAR_1, DEFAULT_TABLE) > 1e-9
    assert best_response(outside, LINEAR_1, DEFAULT_TABLE) is Strategy.BEEFING


def test_respond_exact_is_point_mass():
    dist = respond(Exact(), W_VIRAL, LINEAR_1, DEFAULT_TABLE)
    assert dist.prob[Strategy.BEEFING] == 1.0
    assert dist.prob[Strategy.COLLABORATION] == 0.0


def test_quantal_zero_lambda_is_exactly_uniform():
    for weights in (W_BASE, W_VIRAL, AlgorithmWeights(0.0, 0.0, 0.0)):
        dist = respond(Quantal(0.0), weights, LINEAR_1, DEFAULT_TABLE)
        assert dist.prob[Strategy.COLLABORATION] == 0.5
        assert dist.prob[Strategy.BEEFING] == 0.5


def test_quantal_unit_lambda_baseline_scenario():
    # oracle: softmax over the two known utilities 16.5 and 12
    expected_beef = math.exp(12.0) / (math.exp(16.5) + math.exp(12.0))
    assert expected_beef == pytest.approx(0.010986942630593188, abs=1e-15)
    dist = respond(Quantal(1.0), W_BASE, LINEAR_1, DEFAULT_TABLE)
    assert dist.prob[Strategy.BEEFING] == pytest.approx(expected_beef, abs=1e-12)
    assert dist.prob[Strategy.COLLABORATION] == pytest.approx(1.0 - expected_beef, abs=1e-12)


def test_quantal_survives_huge_utilities():
    # max-shift keeps the softmax finite even when exp(lam*U) would overflow
    big = AlgorithmWeights(100.0, 100.0, 100.0)
    dist = respond(Quantal(50.0), big, LINEAR_1, DEFAULT_TABLE)
    assert math.isfinite(dist.prob[Strategy.BEEFING])
    assert abs(sum(dist.prob.values()) - 1.0) <= 1e-12


def test_satisficing_scans_collaboration_first():
    # baseline scenario: U(collab) = 16.5, U(beef) = 12
    dist = respond(Satisficing(13.0), W_BASE, LINEAR_1, DEFAULT_TABLE)
    assert dist.prob[Strategy.COLLABORATION] == 1.0
    # viral scenario: U(collab) = 13.5, U(beef) = 18.5; an aspiration the
    # first strategy meets stops the scan even though beefing scores higher
    dist = respond(Satisficing(13.0), W_VIRAL, LINEAR_1, DEFAULT_TABLE)
    assert dist.prob[Strategy.COLLABORATION] == 1.0
    dist = respond(Satisficing(14.0), W_VIRAL, LINEAR_1, DEFAULT_TABLE)
    assert dist.prob[Strategy.BEEFING] == 1.0


def test_satisficing_falls_back_to_best_response():
    dist = respond(Satisficing(100.0), W_VIRAL, LINEAR_1, DEFAULT_TABLE)
    assert dist.prob[Strategy.BEEFING] == 1.0
    dist = respond(Satisficing(100.0), W_BASE, LINEAR_1, DEFAULT_TABLE)
    assert dist.prob[Strategy.COLLABORATION] == 1.0


def test_switching_delta_examples():
    # gap numerators: 3a - 3b + g over risk difference 3
    assert switching_delta(W_BASE, UtilityModel.LINEAR, DEFAULT_TABLE) == pytest.approx(
        -0.5, abs=1e-12
    )
    assert switching_delta(W_VIRAL, UtilityModel.LINEAR, DEFAULT_TABLE) == pytest.approx(
        8.0 / 3.0, abs=1e-12
    )
    zero = AlgorithmWeights(0.0, 0.0, 0.0)
    assert switching_delta(zero, UtilityModel.LINEAR, DEFAULT_TABLE) == 0.0


def test_switching_delta_negative_means_no_sign_change():
    # brute-force sign scan over delta in [0, 10] never finds beefing preferred
    for d in np.linspace(0.0, 10.0, 1001):
        assert utility_gap(W_BASE, CreatorParams(float(d)), DEFAULT_TABLE) < 0.0


def test_switching_delta_none_when_risks_equal():
    flat = GameTable(
        {
            Strategy.COLLABORATION: EngagementProfile(2.0, 5.0, 3.0, 1.0),
            Strategy.BEEFING: EngagementProfile(5.0, 2.0, 4.0, 1.0),
        }
    )
    for model in UtilityModel:
        assert switching_delta(W_BASE, model, flat) is None


def test_switching_delta_matches_bisection_both_models():
    rng = np.random.default_rng(23)
    for model in UtilityModel:
        for _ in range(100):
            weights = AlgorithmWeights(*rng.uniform(0.0, 5.0, size=3))
            root = switching_delta(weights, model, DEFAULT_TABLE)
            assert root is not None
            if root < 0.0:
                # no admissible root: gap already negative at delta = 0
                assert utility_gap(weights, CreatorParams(0.0, model), DEFAULT_TABLE) < 0.0
                continue
            lo, hi = 0.0, root + 1.0
            assert utility_gap(weights, CreatorParams(hi, model), DEFAULT_TABLE) < 0.0
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if utility_gap(weights, CreatorParams(mid, model), DEFAULT_TABLE) > 0.0:
                    lo = mid
                else:
                    hi = mid
            assert abs(0.5 * (lo + hi) - root) <= 1e-9


def test_gap_strictly_decreasing_in_delta():
    rng = np.random.default_rng(31)
    deltas = np.linspace(0.0, 10.0, 101)
    for _ in range(50):
        weights = AlgorithmWeights(*rng.uniform(0.0, 5.0, size=3))
        gaps = [utility_gap(weights, CreatorParams(float(d)), DEFAULT_TABLE) for d in deltas]
        assert all(gaps[i + 1] < gaps[i] for i in range(len(gaps) - 1))
        chosen = [best_response(weights, CreatorParams(float(d)), DEFAULT_TABLE) for d in deltas]
        switches = [
            (a, b) for a, b in zip(chosen, chosen[1:]) if a is not b
        ]
        assert len(switches) <= 1
        if switches:
            assert switches[0] == (Strategy.BEEFING, Strategy.COLLABORATION)


def test_scale_invariance_preserves_exact_ties():
    tie = AlgorithmWeights(1.0, 1.0, 3.0)
    for c in (0.5, 2.0, 4.0, 8.0):  # power-of-two scaling is float-exact
        scaled_w = AlgorithmWeights(c * 1.0, c * 1.0, c * 3.0)
        scaled_p = CreatorParams(c * 1.0)
        assert utility_gap(scaled_w, scaled_p, DEFAULT_TABLE) == 0.0
        assert best_response(scaled_w, scaled_p, DEFAULT_TABLE) is Strategy.COLLABORATION


def test_absolute_tie_band_limits_scale_invariance():
    # |gap| <= 1e-9 is a tie at any scale, so scaling can carry a gap out of the band
    table = GameTable(
        {
            Strategy.COLLABORATION: EngagementProfile(1.0, 0.0, 0.0, 0.0),
            Strategy.BEEFING: EngagementProfile(1.0 + 6e-10, 0.0, 0.0, 0.0),
        }
    )
    creator = CreatorParams(0.0)
    assert 0.0 < utility_gap(AlgorithmWeights(1.0, 0.0, 0.0), creator, table) <= TIE_TOLERANCE
    assert best_response(AlgorithmWeights(1.0, 0.0, 0.0), creator, table) is Strategy.COLLABORATION
    assert utility_gap(AlgorithmWeights(10.0, 0.0, 0.0), creator, table) > TIE_TOLERANCE
    assert best_response(AlgorithmWeights(10.0, 0.0, 0.0), creator, table) is Strategy.BEEFING


# tie_tol 0 is left out: rounding can flip the sign of a gap within a few ulps
# of 0, while power-of-two scaling, which is exact, is pinned above.
@settings(max_examples=300, deadline=None)
@given(
    metrics=st.lists(st.floats(0.0, 10.0), min_size=8, max_size=8),
    knobs=st.lists(st.floats(0.0, 10.0), min_size=4, max_size=4),
    model=st.sampled_from(UtilityModel),
    tie_tol=st.sampled_from([TIE_TOLERANCE, 1e-6, 0.5]),
    scale=st.floats(1e-3, 1e3),
)
def test_property_exact_responses_are_scale_invariant_outside_the_tie_band(metrics, knobs, model, tie_tol, scale):
    table = GameTable(
        {
            Strategy.COLLABORATION: EngagementProfile(*metrics[:4]),
            Strategy.BEEFING: EngagementProfile(*metrics[4:]),
        }
    )
    a, b, g, d = knobs
    base = (AlgorithmWeights(a, b, g), CreatorParams(d, model))
    scaled = (AlgorithmWeights(scale * a, scale * b, scale * g), CreatorParams(scale * d, model))
    assume(all(abs(utility_gap(w, p, table)) > tie_tol for w, p in (base, scaled)))
    assert respond(Exact(tie_tol), *scaled, table).prob == respond(Exact(tie_tol), *base, table).prob


def test_quantal_probability_increases_with_lambda():
    params = LINEAR_1
    best = best_response(W_VIRAL, params, DEFAULT_TABLE)
    previous = 0.5
    for lam in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
        p = respond(Quantal(lam), W_VIRAL, params, DEFAULT_TABLE).prob[best]
        assert p > previous
        previous = p
    gap = abs(utility_gap(W_VIRAL, params, DEFAULT_TABLE))
    p = respond(Quantal(50.0 / gap), W_VIRAL, params, DEFAULT_TABLE).prob[best]
    assert p >= 1.0 - 1e-9


def test_exact_rule_equals_brute_force_on_random_scenarios():
    rng = np.random.default_rng(101)
    for _ in range(10_000):
        weights = AlgorithmWeights(*rng.uniform(0.0, 10.0, size=3))
        model = UtilityModel.LINEAR if rng.random() < 0.5 else UtilityModel.NONLINEAR
        params = CreatorParams(rng.uniform(0.0, 10.0), model)
        table = _random_table(rng)
        # oracle: enumerate both strategies and compare utilities directly
        by_hand = {s: creator_utility(weights, params, table.profiles[s]) for s in Strategy}
        if by_hand[Strategy.BEEFING] - by_hand[Strategy.COLLABORATION] > 1e-9:
            expected = Strategy.BEEFING
        else:
            expected = Strategy.COLLABORATION
        assert best_response(weights, params, table) is expected


def test_rule_parameter_validation():
    with pytest.raises(InvalidScenarioError):
        Quantal(-1.0)
    with pytest.raises(InvalidScenarioError):
        Quantal(math.inf)
    with pytest.raises(InvalidScenarioError):
        Satisficing(math.nan)
    with pytest.raises(InvalidScenarioError):
        Exact(tie_tol=-1e-9)
