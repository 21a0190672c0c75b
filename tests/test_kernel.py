"""The member-axis kernel behind population_shares and stackelberg_solve,
checked against a scalar reference: respond member by member,
algorithm_utility, and the sequential leader tie rule."""

import math
import tracemalloc

import numpy as np
import pytest

from creatorgame import (
    AlgorithmWeights,
    BoxDomain,
    CreatorParams,
    DEFAULT_TABLE,
    EngagementProfile,
    Exact,
    GameTable,
    InvalidScenarioError,
    LEADER_TIE_TOLERANCE,
    MAX_GRID_EVALUATIONS,
    Population,
    Quantal,
    Satisficing,
    SimplexDomain,
    Strategy,
    StrategyShares,
    UtilityModel,
    algorithm_utility,
    check_grid_budget,
    creator_utility,
    enumerate_domain,
    grid_size,
    population_shares,
    respond,
    stackelberg_solve,
    switching_delta,
)

LINEAR, NONLINEAR = UtilityModel.LINEAR, UtilityModel.NONLINEAR


def _reference_shares(pop, rule, weights, table):
    totals = {s: 0.0 for s in Strategy}
    for idx, member in enumerate(pop.members):
        try:
            dist = respond(rule, weights, member, table)
        except InvalidScenarioError as exc:
            raise InvalidScenarioError(f"member {idx}: {exc}") from exc
        for s in Strategy:
            totals[s] += dist.prob[s]
    return StrategyShares({s: totals[s] / len(pop.members) for s in Strategy})


def _reference_solve(domain, pop, rule, table, tie_tol=LEADER_TIE_TOLERANCE):
    """(weights, shares, value) of the point-by-point search."""
    best = None
    for weights in enumerate_domain(domain):
        shares = _reference_shares(pop, rule, weights, table)
        value = algorithm_utility(weights, shares, table)
        if best is None or value > best[2] + tie_tol:
            best = (weights, shares, value)
    return best


def _reference_error(fn):
    with pytest.raises(InvalidScenarioError) as info:
        fn()
    return str(info.value)


def _random_table(rng, integral=False):
    values = rng.uniform(0.0, 10.0, size=8)
    if integral:  # whole-number metrics make exact utility ties and leader plateaus common
        values = np.round(values)
    return GameTable(
        {
            Strategy.COLLABORATION: EngagementProfile(*values[:4]),
            Strategy.BEEFING: EngagementProfile(*values[4:]),
        }
    )


def _random_population(rng, models):
    size = int(rng.integers(1, 9))
    return Population(
        tuple(CreatorParams(float(rng.uniform(0.0, 5.0)), models[int(rng.integers(len(models)))]) for _ in range(size))
    )


def _random_domain(rng):
    if rng.random() < 0.5:
        return SimplexDomain(float(rng.uniform(0.5, 3.0)), int(rng.integers(1, 13)))
    return BoxDomain(*rng.uniform(0.5, 3.0, size=3).tolist(), resolution=int(rng.integers(1, 6)))


RULES = {
    "exact": lambda rng: Exact(float(rng.choice([0.0, 1e-9, rng.uniform(0.0, 0.5)]))),
    "satisficing": lambda rng: Satisficing(float(rng.uniform(-2.0, 15.0))),
    "quantal": lambda rng: Quantal(float(rng.uniform(0.0, 5.0))),
}
MODEL_MIXES = {"linear": (LINEAR,), "nonlinear": (NONLINEAR,), "mixed": (LINEAR, NONLINEAR)}


def _assert_shares_match(actual, expected, quantal):
    for s in Strategy:
        if quantal:
            assert actual.share[s] == pytest.approx(expected.share[s], abs=1e-12)
        else:
            assert actual.share[s] == expected.share[s]


@pytest.mark.parametrize("mix", sorted(MODEL_MIXES))
@pytest.mark.parametrize("rule_name", sorted(RULES))
def test_solver_matches_the_scalar_reference(rule_name, mix):
    rng = np.random.default_rng([7, sorted(RULES).index(rule_name), sorted(MODEL_MIXES).index(mix)])
    quantal = rule_name == "quantal"
    for case in range(25):
        table = DEFAULT_TABLE if case % 5 == 0 else _random_table(rng, integral=case % 5 == 1)
        pop = _random_population(rng, MODEL_MIXES[mix])
        rule = RULES[rule_name](rng)
        domain = _random_domain(rng)
        result = stackelberg_solve(domain, pop, rule, table)
        weights, shares, value = _reference_solve(domain, pop, rule, table)
        assert result.weights == weights
        _assert_shares_match(result.shares, shares, quantal)
        if quantal:
            assert result.leader_value == pytest.approx(value, abs=1e-12)
        else:
            assert result.leader_value == value
        assert result.grid_points_evaluated == len(enumerate_domain(domain))

        probe = AlgorithmWeights(*rng.uniform(0.0, 3.0, size=3).tolist())
        _assert_shares_match(
            population_shares(pop, rule, probe, table), _reference_shares(pop, rule, probe, table), quantal
        )


@pytest.mark.parametrize("rule", [Exact(), Exact(0.0), Satisficing(4.0), Quantal(2.0)])
def test_default_table_plateaus_keep_the_earliest_point(rule):
    # On DEFAULT_TABLE the optimum is a plateau: several grid points reach
    # the best value, and the earliest in enumeration order must win.
    for deltas in ((0.5,), (0.0, 1.0, 2.0, 3.0), tuple(np.linspace(0.0, 5.0, 21).tolist())):
        pop = Population(tuple(CreatorParams(d) for d in deltas))
        for domain in (SimplexDomain(1.0, 10), BoxDomain(1.0, 1.0, 1.0, resolution=4)):
            result = stackelberg_solve(domain, pop, rule, DEFAULT_TABLE)
            weights, shares, value = _reference_solve(domain, pop, rule, DEFAULT_TABLE)
            assert result.weights == weights
            _assert_shares_match(result.shares, shares, isinstance(rule, Quantal))
            if isinstance(rule, Quantal):
                assert result.leader_value == pytest.approx(value, abs=1e-12)
            else:
                assert result.leader_value == value


@pytest.mark.parametrize("model", [LINEAR, NONLINEAR])
def test_near_ties_match_the_reference_bit_for_bit(model):
    # Members sit within a few ulps of their switching delta, and the
    # aspirations equal a member's utility, so a single rounding
    # difference in a utility or a gap flips a choice.
    rng = np.random.default_rng(23 + (model is NONLINEAR))
    checked = 0
    while checked < 40:
        table = _random_table(rng)
        weights = AlgorithmWeights(*rng.uniform(0.0, 3.0, size=3).tolist())
        boundary = switching_delta(weights, model, table)
        if boundary is None or not 0.0 < boundary < 1e6:
            continue
        checked += 1
        deltas, below, above = [boundary], boundary, boundary
        for _ in range(4):
            below, above = float(np.nextafter(below, 0.0)), float(np.nextafter(above, np.inf))
            deltas += [below, above]
        pop = Population(tuple(CreatorParams(d, model) for d in deltas))
        at = {s: creator_utility(weights, pop.members[0], table.profiles[s]) for s in Strategy}
        rules = [Exact(0.0), Exact(), Satisficing(at[Strategy.COLLABORATION]), Satisficing(at[Strategy.BEEFING])]
        for rule in rules:
            assert population_shares(pop, rule, weights, table) == _reference_shares(pop, rule, weights, table)


def test_leader_tie_boundary_is_strict():
    # Points in order: (0, 0, 1) scores 3, (0, 1, 0) scores 5, (1, 0, 0) scores 5.
    pop = Population((CreatorParams(0.5),))
    domain = SimplexDomain(1.0, 1)
    at_boundary = stackelberg_solve(domain, pop, Exact(), DEFAULT_TABLE, tie_tol=2.0)
    assert (at_boundary.weights, at_boundary.leader_value) == (AlgorithmWeights(0.0, 0.0, 1.0), 3.0)
    inside = stackelberg_solve(domain, pop, Exact(), DEFAULT_TABLE, tie_tol=1.5)
    assert (inside.weights, inside.leader_value) == (AlgorithmWeights(0.0, 1.0, 0.0), 5.0)
    for result, tie_tol in ((at_boundary, 2.0), (inside, 1.5)):
        weights, _, value = _reference_solve(domain, pop, Exact(), DEFAULT_TABLE, tie_tol=tie_tol)
        assert (result.weights, result.leader_value) == (weights, value)


def test_custom_leader_tie_tolerance_matches_the_reference():
    rng = np.random.default_rng(11)
    for _ in range(20):
        table = _random_table(rng, integral=True)
        pop = _random_population(rng, (LINEAR, NONLINEAR))
        domain = _random_domain(rng)
        tie_tol = float(rng.uniform(0.0, 2.0))
        result = stackelberg_solve(domain, pop, Exact(), table, tie_tol=tie_tol)
        weights, _, value = _reference_solve(domain, pop, Exact(), table, tie_tol=tie_tol)
        assert (result.weights, result.leader_value) == (weights, value)


@pytest.mark.parametrize("tie_tol", [math.nan, -1e-9, -1.0, math.inf])
def test_leader_tie_tolerance_is_validated(tie_tol):
    pop = Population((CreatorParams(0.5),))
    with pytest.raises(InvalidScenarioError, match="tie_tol"):
        stackelberg_solve(SimplexDomain(1.0, 10), pop, Exact(), DEFAULT_TABLE, tie_tol=tie_tol)


# Satisficing(1e9): no utility meets the aspiration, so both are evaluated
RULE_CASES = [Exact(), Quantal(1.0), Quantal(0.0), Satisficing(1e9)]


@pytest.mark.parametrize("rule", RULE_CASES)
def test_member_failing_at_a_later_point_raises_the_reference_error(rule):
    # Beefing's clicks overflow the linear member 1 only once alpha >= 2;
    # the nonlinear member 0 takes log1p of them and stays finite.
    table = GameTable(
        {
            Strategy.COLLABORATION: EngagementProfile(1.0, 1.0, 1.0, 0.0),
            Strategy.BEEFING: EngagementProfile(1e308, 1.0, 1.0, 1.0),
        }
    )
    pop = Population((CreatorParams(1.0, NONLINEAR), CreatorParams(2.0, LINEAR), CreatorParams(3.0, LINEAR)))
    domain = BoxDomain(3.0, 1.0, 1.0, resolution=3)
    expected = _reference_error(lambda: _reference_solve(domain, pop, rule, table))
    assert expected.startswith("member 1: ")  # member 2 fails there too
    with pytest.raises(InvalidScenarioError) as info:
        stackelberg_solve(domain, pop, rule, table)
    assert str(info.value) == expected


@pytest.mark.parametrize("rule", RULE_CASES)
def test_huge_domain_bound_raises_the_weight_error_first(rule):
    # every grid point would also fail member 1; the weight error comes first
    pop = Population((CreatorParams(1.0), CreatorParams(1.7e308, NONLINEAR)))
    for domain in (
        BoxDomain(1e308, 1.0, 1.0, resolution=10),
        BoxDomain(1.0, 1.0, 1e308, resolution=10),
        SimplexDomain(1e308, 3),
    ):
        expected = _reference_error(lambda: _reference_solve(domain, pop, rule, DEFAULT_TABLE))
        assert "must be finite" in expected
        with pytest.raises(InvalidScenarioError) as info:
            stackelberg_solve(domain, pop, rule, DEFAULT_TABLE)
        assert str(info.value) == expected


@pytest.mark.parametrize("rule", RULE_CASES)
def test_leader_overflow_raises_the_reference_error(rule):
    # nonlinear creators see log1p(clicks); the leader values raw clicks
    table = GameTable(
        {
            Strategy.COLLABORATION: EngagementProfile(1.0, 1.0, 1.0, 0.0),
            Strategy.BEEFING: EngagementProfile(1e308, 1.0, 1.0, 1.0),
        }
    )
    pop = Population((CreatorParams(0.5, NONLINEAR), CreatorParams(3.0, NONLINEAR)))
    domain = BoxDomain(3.0, 1.0, 1.0, resolution=3)
    expected = _reference_error(lambda: _reference_solve(domain, pop, rule, table))
    assert expected.startswith("leader value is non-finite")
    with pytest.raises(InvalidScenarioError) as info:
        stackelberg_solve(domain, pop, rule, table)
    assert str(info.value) == expected


@pytest.mark.parametrize("rule", RULE_CASES)
def test_population_shares_raise_the_reference_error(rule):
    table = GameTable(
        {
            Strategy.COLLABORATION: EngagementProfile(1.0, 1.0, 1.0, 0.0),
            Strategy.BEEFING: EngagementProfile(1.0, 1.0, 1.0, 1e300),
        }
    )
    pop = Population((CreatorParams(0.0), CreatorParams(1.0), CreatorParams(1e10)))
    weights = AlgorithmWeights(1.0, 1.0, 1.0)
    expected = _reference_error(lambda: _reference_shares(pop, rule, weights, table))
    with pytest.raises(InvalidScenarioError) as info:
        population_shares(pop, rule, weights, table)
    assert str(info.value) == expected


def test_satisficing_members_above_aspiration_never_fail_on_beefing():
    # Collaboration meets the aspiration, so Beefing's overflowing utility
    # is never evaluated and no member fails, at any point.
    table = GameTable(
        {
            Strategy.COLLABORATION: EngagementProfile(1.0, 1.0, 1.0, 0.0),
            Strategy.BEEFING: EngagementProfile(1e308, 1.0, 1.0, 1.0),
        }
    )
    pop = Population((CreatorParams(1.0, NONLINEAR), CreatorParams(2.0, LINEAR)))
    rule = Satisficing(0.0)
    weights = AlgorithmWeights(3.0, 1.0, 1.0)
    assert population_shares(pop, rule, weights, table) == _reference_shares(pop, rule, weights, table)
    domain = SimplexDomain(1.0, 4)
    result = stackelberg_solve(domain, pop, rule, table)
    assert (result.weights, result.shares, result.leader_value) == _reference_solve(domain, pop, rule, table)


def test_grid_size_counts_the_enumerated_points():
    for n in (1, 2, 7, 30):
        assert grid_size(SimplexDomain(1.0, n)) == len(enumerate_domain(SimplexDomain(1.0, n)))
    for n in (1, 2, 5):
        box = BoxDomain(1.0, 2.0, 3.0, resolution=n)
        assert grid_size(box) == len(enumerate_domain(box))


def test_grid_budget_boundary():
    box1 = BoxDomain(1.0, 1.0, 1.0, resolution=1)  # 8 points
    check_grid_budget(box1, MAX_GRID_EVALUATIONS // 8)
    with pytest.raises(InvalidScenarioError, match="exceeds the limit"):
        check_grid_budget(box1, MAX_GRID_EVALUATIONS // 8 + 1)
    # the largest benchmark request and box20 x 101 members fit
    check_grid_budget(BoxDomain(1.0, 1.0, 1.0, resolution=12), 61)
    check_grid_budget(BoxDomain(1.0, 1.0, 1.0, resolution=20), 101)


@pytest.mark.parametrize(
    "domain", [SimplexDomain(1.0, 10**6), BoxDomain(1.0, 1.0, 1.0, resolution=10**6)]
)
def test_over_budget_grids_are_rejected_before_allocating(domain):
    pop = Population((CreatorParams(1.0),))
    tracemalloc.start()
    try:
        with pytest.raises(InvalidScenarioError, match="exceeds the limit"):
            stackelberg_solve(domain, pop, Exact(), DEFAULT_TABLE)
        with pytest.raises(InvalidScenarioError, match="exceeds the limit"):
            enumerate_domain(domain)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
