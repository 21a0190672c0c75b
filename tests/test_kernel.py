"""The (points x members) kernel behind population_shares and
stackelberg_solve, checked against a scalar reference: respond member by member,
algorithm_utility, and the sequential leader tie rule."""

import contextlib
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from creatorgame import leader, population
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
    features,
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


def _sum_left_to_right(values):
    """The float sum in iteration order; sum() compensates its rounding from Python 3.12 on."""
    total = 0.0
    for value in values:
        total += value
    return total


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
        assert result.creator_utilities == {
            s: _sum_left_to_right(creator_utility(weights, m, table.profiles[s]) for m in pop.members)
            / len(pop.members)
            for s in Strategy
        }

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


@pytest.mark.parametrize(
    ("domain", "message"),
    [
        # 215**3 = 9,938,375 points, within the budget
        (BoxDomain(1e308, 1.0, 1.0, resolution=214), "alpha must be finite, got inf"),
        # the first invalid point, (0, j, 0), is finite on alpha
        (BoxDomain(1e308, 1e308, 1.0, resolution=214), "beta must be finite, got inf"),
        # 9,997,156 points; the first one, (0, 0, total), fails on gamma
        (SimplexDomain(1e308, 4470), "gamma must be finite, got inf"),
    ],
)
def test_overflowing_domain_bound_raises_before_building_the_grid(domain, message):
    pop = Population((CreatorParams(1.0),))
    for fn in (lambda: stackelberg_solve(domain, pop, Exact(), DEFAULT_TABLE), lambda: enumerate_domain(domain)):
        tracemalloc.start()
        try:
            with pytest.raises(InvalidScenarioError) as info:
                fn()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert str(info.value) == message
        assert peak < 1 << 20


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
def test_leader_failure_before_a_member_failure_in_one_chunk(rule):
    # At (0, 1e300, 0) the nonlinear member sees sqrt(watch_time) and stays
    # finite while the leader's raw watch time overflows; at (1e306, 0, 0)
    # the member's log1p(clicks) utility overflows too, later in the chunk.
    table = GameTable(
        {
            Strategy.COLLABORATION: EngagementProfile(1.0, 1.0, 1.0, 0.0),
            Strategy.BEEFING: EngagementProfile(1e308, 1e10, 1.0, 1.0),
        }
    )
    pop = Population((CreatorParams(0.0, NONLINEAR),))
    domain = BoxDomain(1e306, 1e300, 1.0, resolution=1)
    expected = _reference_error(lambda: _reference_solve(domain, pop, rule, table))
    assert expected.startswith("leader value is non-finite")
    with pytest.raises(InvalidScenarioError) as info:
        stackelberg_solve(domain, pop, rule, table)
    assert str(info.value) == expected


def test_a_flagged_member_that_responds_is_a_kernel_fault():
    pop = Population((CreatorParams(1.0), CreatorParams(2.0)))
    columns = population._columns(pop, DEFAULT_TABLE)
    with pytest.raises(AssertionError, match="member 1 "):
        population._raise_member_error(columns, Exact(), (1.0, 0.0, 0.0), np.array([False, True]))


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


@pytest.mark.parametrize("resolution", [10, 1000])
def test_satisficing_cliff_raises_without_re_running_members(resolution):
    # Collaboration meets the aspiration at every point, so no response
    # fails and the search calls respond for no member; Beefing's -inf
    # utility fails only the population-mean step at the optimum.
    table = GameTable(
        {
            Strategy.COLLABORATION: DEFAULT_TABLE.profiles[Strategy.COLLABORATION],
            Strategy.BEEFING: EngagementProfile(5.0, 2.0, 4.0, 1e10),
        }
    )
    pop = Population((CreatorParams(1e300),))
    with mock.patch.object(population, "respond", wraps=respond) as calls:
        with pytest.raises(InvalidScenarioError) as info:
            stackelberg_solve(SimplexDomain(1.0, resolution), pop, Satisficing(0.0), table)
    assert str(info.value) == "member 0: creator utility is non-finite (-inf); inputs too extreme"
    assert calls.call_count <= 1


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


# --- the grid axis: chunks of points x members -------------------------------

CHUNKS = [1, 2, 3, 7, 4096]  # 4096, the default, holds each grid of these tests in one chunk


@pytest.fixture(params=CHUNKS, ids=lambda chunk: f"chunk{chunk}")
def chunk_size(request, monkeypatch):
    monkeypatch.setattr(leader, "_CHUNK_EVALUATIONS", request.param)
    return request.param


def _assert_solve_matches(domain, pop, rule, table, tie_tol=LEADER_TIE_TOLERANCE):
    result = stackelberg_solve(domain, pop, rule, table, tie_tol=tie_tol)
    weights, shares, value = _reference_solve(domain, pop, rule, table, tie_tol=tie_tol)
    quantal = isinstance(rule, Quantal)
    assert result.weights == weights
    _assert_shares_match(result.shares, shares, quantal)
    if quantal:
        assert result.leader_value == pytest.approx(value, abs=1e-12)
    else:
        assert result.leader_value == value


def _nested_loop_points(domain):
    n = domain.resolution
    if isinstance(domain, SimplexDomain):
        axis = [i * domain.total / n for i in range(n + 1)]
        return [(axis[i], axis[j], axis[n - i - j]) for i in range(n + 1) for j in range(n - i + 1)]
    bounds = (domain.alpha_max, domain.beta_max, domain.gamma_max)
    a, b, g = ([i * bound / n for i in range(n + 1)] for bound in bounds)
    return [(x, y, z) for x in a for y in b for z in g]


def test_enumeration_is_lexicographic_in_the_axis_indices():
    for n in (1, 2, 3, 10, 57):
        for domain in (SimplexDomain(0.7, n), BoxDomain(0.3, 1.1, 2.9, resolution=min(n, 12))):
            points = [(w.alpha, w.beta, w.gamma) for w in enumerate_domain(domain)]
            assert points == _nested_loop_points(domain)


def test_chunked_solve_matches_the_reference(chunk_size):
    rng = np.random.default_rng([31, chunk_size])
    for case in range(24):
        rule = RULES[sorted(RULES)[case % 3]](rng)
        table = DEFAULT_TABLE if case % 4 == 0 else _random_table(rng, integral=case % 2 == 1)
        pop = _random_population(rng, (LINEAR, NONLINEAR))
        _assert_solve_matches(_random_domain(rng), pop, rule, table)


@pytest.mark.parametrize("rule", [Exact(), Exact(0.0), Satisficing(4.0), Quantal(2.0)])
def test_chunked_plateaus_keep_the_earliest_point(chunk_size, rule):
    # DEFAULT_TABLE's optimum is a plateau spread over many chunks
    for deltas in ((0.5,), (0.0, 1.0, 2.0), tuple(np.linspace(0.0, 5.0, 11).tolist())):
        pop = Population(tuple(CreatorParams(d) for d in deltas))
        for domain in (SimplexDomain(1.0, 6), BoxDomain(1.0, 1.0, 1.0, resolution=3)):
            _assert_solve_matches(domain, pop, rule, DEFAULT_TABLE)


def test_chunked_tie_boundary_is_strict(chunk_size):
    # (0, 0, 1) scores 3, (0, 1, 0) scores 5 and (1, 0, 0) scores 5: with
    # chunks of one or two points the scores straddle chunk boundaries
    pop = Population((CreatorParams(0.5),))
    domain = SimplexDomain(1.0, 1)
    at_boundary = stackelberg_solve(domain, pop, Exact(), DEFAULT_TABLE, tie_tol=2.0)
    assert (at_boundary.weights, at_boundary.leader_value) == (AlgorithmWeights(0.0, 0.0, 1.0), 3.0)
    inside = stackelberg_solve(domain, pop, Exact(), DEFAULT_TABLE, tie_tol=1.5)
    assert (inside.weights, inside.leader_value) == (AlgorithmWeights(0.0, 1.0, 0.0), 5.0)
    rng = np.random.default_rng([37, chunk_size])
    for _ in range(12):
        table = _random_table(rng, integral=True)
        pop = _random_population(rng, (LINEAR,))
        domain = _random_domain(rng)
        # whole-number tie tolerances make values exactly at incumbent + tie_tol common
        for tie_tol in (0.0, 1.0, float(rng.integers(2, 6))):
            _assert_solve_matches(domain, pop, Exact(), table, tie_tol=tie_tol)


def _rising_table(n):
    # Collaboration is always chosen (Beefing carries drama risk and no more
    # engagement), and its value rises strictly along enumeration order:
    # clicks outweigh any watch time, watch time any shares.
    collab = EngagementProfile((n + 1) ** 2, n + 1, 1.0, 0.0)
    return GameTable({Strategy.COLLABORATION: collab, Strategy.BEEFING: EngagementProfile(0.0, 0.0, 0.0, 1.0)})


@pytest.mark.parametrize("tie_tol", [0.0, LEADER_TIE_TOLERANCE, 0.3, 1.0, 2.5])
def test_every_point_a_record(chunk_size, tie_tol):
    n = 4
    table = _rising_table(n)
    pop = Population((CreatorParams(1.0), CreatorParams(2.0, NONLINEAR)))
    point_mass = StrategyShares({Strategy.COLLABORATION: 1.0, Strategy.BEEFING: 0.0})
    for domain in (SimplexDomain(1.0, n), BoxDomain(1.0, 1.0, 1.0, resolution=n)):
        values = [algorithm_utility(w, point_mass, table) for w in enumerate_domain(domain)]
        assert all(later > earlier for earlier, later in zip(values, values[1:]))
        for rule in (Exact(), Satisficing(0.5)):
            _assert_solve_matches(domain, pop, rule, table, tie_tol=tie_tol)
    top = stackelberg_solve(BoxDomain(1.0, 1.0, 1.0, resolution=n), pop, Exact(), table, tie_tol=0.0)
    assert top.weights == AlgorithmWeights(1.0, 1.0, 1.0)


OVERFLOW_TABLE = GameTable(
    {
        Strategy.COLLABORATION: EngagementProfile(1.0, 1.0, 1.0, 0.0),
        Strategy.BEEFING: EngagementProfile(1e308, 1.0, 1.0, 1.0),
    }
)


# A nonlinear creator's Beefing utility overflows at (alpha, beta) =
# (1.75e308, 1.7e308) while the leader's engagement value stays finite:
# 1.75e308*ln(1.75) + 1.7e308*sqrt(0.25) > max float > 1.75e308*0.75 + 1.7e308*0.25.
SQUEEZE_TABLE = GameTable(
    {
        Strategy.COLLABORATION: EngagementProfile(0.0, 0.0, 0.0, 0.0),
        Strategy.BEEFING: EngagementProfile(0.75, 0.25, 0.0, 0.0),
    }
)
LATE_FAILURES = {
    # Member 1 (linear) overflows only once alpha >= 2, far into the grid,
    # and member 2 with it; earlier chunks hold no failure.
    "member": (
        OVERFLOW_TABLE,
        BoxDomain(3.0, 1.0, 1.0, resolution=3),
        ((1.0, NONLINEAR), (2.0, LINEAR), (3.0, LINEAR)),
    ),
    # Nonlinear members stay finite; the leader value overflows from alpha = 2.
    "leader": (OVERFLOW_TABLE, BoxDomain(3.0, 1.0, 1.0, resolution=3), ((1.0, NONLINEAR), (2.0, NONLINEAR))),
    # The member collaborates at alpha = 2, a zero share of infinite
    # engagement (nan), and beefs at alpha = 3 (inf): the first one counts.
    "leader-nan-first": (OVERFLOW_TABLE, BoxDomain(3.0, 1.0, 1.0, resolution=3), ((1800.0, NONLINEAR),)),
    # Only the last points fail, and only the member does.
    "member-only": (SQUEEZE_TABLE, BoxDomain(1.75e308, 1.7e308, 1.0, resolution=1), ((1.0, NONLINEAR),)),
}


@pytest.mark.parametrize("case", sorted(LATE_FAILURES))
@pytest.mark.parametrize("rule", RULE_CASES)
def test_chunked_errors_in_a_later_chunk_are_the_reference_errors(chunk_size, rule, case):
    table, domain, members = LATE_FAILURES[case]
    pop = Population(tuple(CreatorParams(delta, model) for delta, model in members))
    expected = _reference_error(lambda: _reference_solve(domain, pop, rule, table))
    assert expected.startswith("member" if case.startswith("member") else "leader value")
    with pytest.raises(InvalidScenarioError) as info:
        stackelberg_solve(domain, pop, rule, table)
    assert str(info.value) == expected


def test_chunked_satisficing_suspects_that_never_fail(chunk_size):
    # Collaboration meets the aspiration, so member 1's overflowing Beefing
    # utility, from alpha >= 2 on, flags it without failing it; the leader
    # value there (a zero share of infinite engagement) fails instead.
    pop = Population((CreatorParams(1.0, NONLINEAR), CreatorParams(2.0, LINEAR)))
    domain = BoxDomain(3.0, 1.0, 1.0, resolution=3)
    expected = _reference_error(lambda: _reference_solve(domain, pop, Satisficing(0.0), OVERFLOW_TABLE))
    assert expected == "leader value is non-finite (nan)"
    with pytest.raises(InvalidScenarioError) as info:
        stackelberg_solve(domain, pop, Satisficing(0.0), OVERFLOW_TABLE)
    assert str(info.value) == expected


@st.composite
def _solver_cases(draw):
    metric = st.integers(0, 6).map(float)
    table = GameTable(
        {s: EngagementProfile(*(draw(metric) for _ in range(4))) for s in (Strategy.COLLABORATION, Strategy.BEEFING)}
    )
    members = draw(
        st.lists(st.tuples(st.integers(0, 8), st.sampled_from([LINEAR, NONLINEAR])), min_size=1, max_size=6)
    )
    pop = Population(tuple(CreatorParams(d / 2, model) for d, model in members))
    rule = draw(
        st.one_of(
            st.integers(0, 2).map(lambda t: Exact(t / 2)),
            st.integers(-2, 20).map(lambda a: Satisficing(a / 2)),
            st.integers(0, 8).map(lambda lam: Quantal(lam / 2)),
        )
    )
    n = draw(st.integers(1, 6))
    total = float(draw(st.integers(1, 3)))
    domain = draw(
        st.sampled_from([SimplexDomain(total, n), BoxDomain(total, 1.0, 2.0, resolution=min(n, 4))])
    )
    tie_tol = draw(st.sampled_from([0.0, LEADER_TIE_TOLERANCE, 0.5, 1.0]))
    return domain, pop, rule, table, tie_tol


@settings(max_examples=150, deadline=None)
@given(
    case=_solver_cases(),
    chunk=st.sampled_from([1, 2, 3, 5, 7, 16, 4096]),
    block=st.sampled_from([1, 2, 3, 7, 16, leader._BLOCK_POINTS]),
    skip=st.booleans(),
)
def test_property_chunked_solve_equals_the_reference(case, chunk, block, skip):
    # skip=False evaluates every point, as when _values_stay_finite fails
    predicate = leader._values_stay_finite if skip else (lambda *args: False)
    with mock.patch.object(leader, "_CHUNK_EVALUATIONS", chunk), mock.patch.object(
        leader, "_BLOCK_POINTS", block
    ), mock.patch.object(leader, "_values_stay_finite", predicate), _counting_kernel() as counted:
        _assert_solve_matches(*case[:4], tie_tol=case[4])
    if not skip:  # each point once, and none again at the optimum
        assert sum(counted) == grid_size(case[0])


def _assert_search_memory_is_bounded():
    pop = Population((CreatorParams(1.0),))
    peaks = {}
    for resolution in (200, 1000):
        tracemalloc.start()
        try:
            stackelberg_solve(SimplexDomain(1.0, resolution), pop, Exact(), DEFAULT_TABLE)
            peaks[resolution] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert grid_size(SimplexDomain(1.0, 1000)) == 501_501
    assert peaks[1000] < 2 << 20
    assert peaks[1000] - peaks[200] < 1 << 18


def test_search_memory_is_bounded_by_the_chunk():
    _assert_search_memory_is_bounded()


def test_unskipped_search_memory_is_bounded_by_the_chunk(monkeypatch):
    # every point is evaluated, a block of candidates at a time
    monkeypatch.setattr(leader, "_values_stay_finite", lambda *args: False)
    with _counting_kernel() as counted:
        _assert_search_memory_is_bounded()
    assert sum(counted) == grid_size(SimplexDomain(1.0, 200)) + grid_size(SimplexDomain(1.0, 1000))


# --- skipping points whose leader-value bound cannot beat the incumbent -------


@contextlib.contextmanager
def _counting_kernel():
    """Record how many points each of the solve's kernel calls evaluates."""
    counted = []
    kernel = leader._chunk_shares

    def counting(columns, rule, alpha, beta, gamma):
        counted.append(len(alpha))
        return kernel(columns, rule, alpha, beta, gamma)

    with mock.patch.object(leader, "_chunk_shares", counting):
        yield counted


def _stays_finite(domain, pop, table):
    """_values_stay_finite with the arguments the solve passes it."""
    a, b, g = top = tuple(axis[-1] for axis in leader._axes(domain))
    engagement = [features(table.profiles[s], LINEAR)[:3] for s in Strategy]
    leader_top = max((a * f1 + b * f2) + g * f3 for f1, f2, f3 in engagement)
    with np.errstate(all="ignore"):
        return leader._values_stay_finite(leader._columns(pop, table), top, leader_top)


@pytest.mark.parametrize("chunk, block", [(4096, 8192), (4096, 1), (21, 50), (7, 1), (1, 5)])
def test_unskipped_search_walks_the_grid_in_order_in_whole_chunks(chunk, block, monkeypatch):
    # without the finiteness check every point is a candidate: the chunks
    # are the grid's consecutive step points, whatever the block size
    monkeypatch.setattr(leader, "_CHUNK_EVALUATIONS", chunk)
    monkeypatch.setattr(leader, "_BLOCK_POINTS", block)
    monkeypatch.setattr(leader, "_values_stay_finite", lambda *args: False)
    kernel = leader._chunk_shares
    calls = []

    def recording(columns, rule, alpha, beta, gamma):
        calls.append(list(zip(alpha.tolist(), beta.tolist(), gamma.tolist())))
        return kernel(columns, rule, alpha, beta, gamma)

    monkeypatch.setattr(leader, "_chunk_shares", recording)
    pop = Population((CreatorParams(0.5), CreatorParams(2.0, NONLINEAR), CreatorParams(4.0)))
    step = max(1, chunk // len(pop))
    for domain in (SimplexDomain(1.0, 130 if chunk == 4096 else 12), BoxDomain(1.0, 2.0, 3.0, resolution=5)):
        calls.clear()
        stackelberg_solve(domain, pop, Exact(), DEFAULT_TABLE)
        points = [(w.alpha, w.beta, w.gamma) for w in enumerate_domain(domain)]
        assert [p for call in calls for p in call] == points
        assert all(len(call) == step for call in calls[:-1]) and 0 < len(calls[-1]) <= step


@pytest.mark.parametrize("rule", [Exact(), Quantal(2.0), Satisficing(4.0)])
def test_skip_evaluates_fewer_points_and_keeps_the_reference_answer(rule):
    pop = Population(tuple(CreatorParams(d) for d in np.linspace(0.0, 5.0, 41).tolist()))
    domain = SimplexDomain(1.0, 60)
    with _counting_kernel() as counted:
        result = stackelberg_solve(domain, pop, rule, DEFAULT_TABLE)
    assert len(counted) > 1 and sum(counted) < grid_size(domain) == result.grid_points_evaluated
    weights, shares, value = _reference_solve(domain, pop, rule, DEFAULT_TABLE)
    assert result.weights == weights
    _assert_shares_match(result.shares, shares, isinstance(rule, Quantal))
    assert result.leader_value == (pytest.approx(value, abs=1e-12) if isinstance(rule, Quantal) else value)


@pytest.mark.parametrize("rule", [Exact(), Quantal(2.0), Satisficing(4.0)])
def test_mixed_models_skip_when_no_single_risk_cost_overflows(rule):
    # The largest delta (the linear member's) times the largest r (the
    # nonlinear member's drama_risk**2) overflows, but each member's own
    # delta * r is finite, so no value on the grid can be non-finite.
    table = GameTable({**DEFAULT_TABLE.profiles, Strategy.BEEFING: EngagementProfile(5.0, 2.0, 4.0, 1e100)})
    pop = Population((CreatorParams(1e150, LINEAR), CreatorParams(1.0, NONLINEAR)))
    domain = SimplexDomain(1.0, 70)
    risks = [features(table.profiles[Strategy.BEEFING], model)[3] for model in (LINEAR, NONLINEAR)]
    assert math.isinf(1e150 * max(risks)) and _stays_finite(domain, pop, table)
    assert grid_size(domain) > leader._CHUNK_EVALUATIONS // len(pop)  # a second chunk exists
    with _counting_kernel() as counted:
        result = stackelberg_solve(domain, pop, rule, table)
    assert sum(counted) < grid_size(domain)
    weights, shares, value = _reference_solve(domain, pop, rule, table)
    assert result.weights == weights
    _assert_shares_match(result.shares, shares, isinstance(rule, Quantal))
    assert result.leader_value == (pytest.approx(value, abs=1e-12) if isinstance(rule, Quantal) else value)


@pytest.mark.parametrize("block", [1, 3, 100, 1000, None])
@pytest.mark.parametrize("rule", [Exact(), Quantal(2.0), Satisficing(4.0)])
def test_blocks_of_compacted_candidates_keep_the_reference_answer(rule, block, monkeypatch):
    # None keeps the default block; every other size splits the grid into several blocks
    if block is not None:
        monkeypatch.setattr(leader, "_BLOCK_POINTS", block)
    pop = Population(tuple(CreatorParams(d) for d in np.linspace(0.0, 5.0, 41).tolist()))
    domain = SimplexDomain(1.0, 60)
    with _counting_kernel() as counted:
        result = stackelberg_solve(domain, pop, rule, DEFAULT_TABLE)
    step = leader._CHUNK_EVALUATIONS // len(pop)
    assert sum(counted) < grid_size(domain) and all(0 < n <= step for n in counted)
    weights, shares, value = _reference_solve(domain, pop, rule, DEFAULT_TABLE)
    assert result.weights == weights
    _assert_shares_match(result.shares, shares, isinstance(rule, Quantal))
    assert result.leader_value == (pytest.approx(value, abs=1e-12) if isinstance(rule, Quantal) else value)


@pytest.mark.parametrize("rule_name", sorted(RULES))
def test_kept_shares_equal_population_shares_at_the_optimum(rule_name, monkeypatch):
    # the optimum's shares are a row of a multi-point kernel call, never recomputed
    monkeypatch.setattr(leader, "population_shares", None)
    rng = np.random.default_rng([11, sorted(RULES).index(rule_name)])
    for members in range(1, 62):
        table = DEFAULT_TABLE if members % 4 == 0 else _random_table(rng, integral=members % 4 == 1)
        models = [(LINEAR, NONLINEAR)[int(rng.integers(2))] for _ in range(members)]
        pop = Population(tuple(CreatorParams(float(rng.uniform(0.0, 5.0)), model) for model in models))
        rule = RULES[rule_name](rng)
        domain = SimplexDomain(float(rng.uniform(0.5, 3.0)), int(rng.integers(8, 16)))
        result = stackelberg_solve(domain, pop, rule, table)
        assert result.shares == population_shares(pop, rule, result.weights, table)


@pytest.mark.parametrize("deltas, domain", [((1.0,), SimplexDomain(1.0, 10)), ((0.5,) * 41, SimplexDomain(1.0, 12))])
def test_one_chunk_grids_evaluate_every_point(deltas, domain):
    pop = Population(tuple(CreatorParams(d) for d in deltas))
    assert grid_size(domain) * len(pop) <= leader._CHUNK_EVALUATIONS
    with _counting_kernel() as counted:
        stackelberg_solve(domain, pop, Exact(), DEFAULT_TABLE)
    assert counted == [grid_size(domain)]


def _bound_gaps(domain, pop, rule, table):
    """For each point after the first, max(E_c, E_b) minus the incumbent's
    value before it, in ulps of the incumbent, along the scalar reference."""
    point_mass = {s: StrategyShares({t: float(t is s) for t in Strategy}) for s in Strategy}
    gaps, incumbent = [], None
    for weights in enumerate_domain(domain):
        bound = max(algorithm_utility(weights, point_mass[s], table) for s in Strategy)
        if incumbent is not None:
            gaps.append(round((bound - incumbent) / math.ulp(incumbent)))
        value = algorithm_utility(weights, _reference_shares(pop, rule, weights, table), table)
        if incumbent is None or value > incumbent:
            incumbent = value
    return gaps


# Both strategies carry the same engagement, so a point's bound is its
# leader value when every member collaborates, and the head-count shares of
# five collaborators and one beefer round that value up by an ulp at some
# points: the second point of SimplexDomain(0.7, 3) has a bound equal to the
# incumbent's value, and beats it.
SAME_ENGAGEMENT = GameTable(
    {
        Strategy.COLLABORATION: EngagementProfile(1.0, 1.0, 1.0, 1.0),
        Strategy.BEEFING: EngagementProfile(1.0, 1.0, 1.0, 0.0),
    }
)
TIGHT_BOUNDS = {
    "equal-and-wins": (SimplexDomain(0.7, 3), (0.0,) * 5 + (1.0,)),
    "ulps-above": (SimplexDomain(3.0, 9), (0.0, 0.0)),
}


def test_tight_bound_cases_hold_tight_bounds():
    for case, (domain, deltas) in TIGHT_BOUNDS.items():
        pop = Population(tuple(CreatorParams(d) for d in deltas))
        gaps = _bound_gaps(domain, pop, Exact(), SAME_ENGAGEMENT)
        assert 0 in gaps  # a bound equal to the incumbent's value
        if case == "equal-and-wins":
            winner = stackelberg_solve(domain, pop, Exact(), SAME_ENGAGEMENT, tie_tol=0.0).weights
            assert winner == enumerate_domain(domain)[1]
        else:
            assert any(0 < gap <= 4 for gap in gaps)  # and bounds a few ulps above it


@pytest.mark.parametrize("case", sorted(TIGHT_BOUNDS))
def test_bounds_at_and_just_above_the_incumbent(chunk_size, case):
    domain, deltas = TIGHT_BOUNDS[case]
    pop = Population(tuple(CreatorParams(d) for d in deltas))
    for tie_tol in (0.0, LEADER_TIE_TOLERANCE, 1.0, 2.0):
        for rule in (Exact(), Exact(0.0), Quantal(0.0)):
            _assert_solve_matches(domain, pop, rule, SAME_ENGAGEMENT, tie_tol=tie_tol)


def _found_table(collab_watch=1.0):
    # A linear member with delta 1e10 (or any nonlinear member) has a Beefing
    # utility of -inf at every point: its risk cost overflows.
    return GameTable(
        {
            Strategy.COLLABORATION: EngagementProfile(0.0, collab_watch, 1.0, 0.0),
            Strategy.BEEFING: EngagementProfile(0.0, 0.0, 0.0, 1e300),
        }
    )


# Inputs under which _values_stay_finite fails, so every point is evaluated:
# (table, domain, (delta, model) of each member, rule).
EXTREME = {
    # engagement sums within a factor 4 of the largest float; every value stays finite
    "large-box": (
        DEFAULT_TABLE,
        BoxDomain(8e306, 8e306, 8e306, resolution=4),
        ((0.5, LINEAR), (2.0, NONLINEAR)),
        Exact(),
    ),
    # engagement sums near the largest float; the search succeeds, and each
    # member's utility is finite, but their mean Beefing utility overflows
    "huge-box": (
        DEFAULT_TABLE,
        BoxDomain(1e307, 1e307, 1e307, resolution=4),
        ((0.5, LINEAR), (2.0, NONLINEAR)),
        Exact(),
    ),
    # the search succeeds; the mean Beefing utility at the optimum fails
    "optimum-utility": (_found_table(), SimplexDomain(1.0, 4), ((1e10, LINEAR),), Satisficing(0.0)),
    # Member 1 (linear) falls below the aspiration, and so evaluates its
    # -inf Beefing utility, only where watch time dominates: far from the
    # incumbent (0, 0, 1), at points whose bounds are below its value.
    "late-member": (
        _found_table(0.25),
        SimplexDomain(1.0, 10),
        ((1.0, NONLINEAR), (1e10, LINEAR)),
        Satisficing(0.4),
    ),
}


def _fails(pop, rule, weights, table):
    try:
        _reference_shares(pop, rule, weights, table)
    except InvalidScenarioError:
        return True
    return False


@pytest.mark.parametrize("case", sorted(EXTREME))
def test_extreme_inputs_evaluate_every_point(chunk_size, case):
    table, domain, members, rule = EXTREME[case]
    pop = Population(tuple(CreatorParams(delta, model) for delta, model in members))
    assert not _stays_finite(domain, pop, table)
    points = enumerate_domain(domain)
    failing = [p for p, weights in enumerate(points) if _fails(pop, rule, weights, table)]
    with _counting_kernel() as counted:
        if case == "large-box":
            _assert_solve_matches(domain, pop, rule, table)
        else:
            with pytest.raises(InvalidScenarioError) as info:
                stackelberg_solve(domain, pop, rule, table)
    if case == "optimum-utility":
        assert not failing
        assert str(info.value) == "member 0: creator utility is non-finite (-inf); inputs too extreme"
    elif case == "huge-box":
        assert not failing
        assert str(info.value) == "population-mean Beefing utility is non-finite (inf); inputs too extreme"
    elif case == "late-member":
        expected = _reference_error(lambda: _reference_solve(domain, pop, rule, table))
        assert expected.startswith("member 1: ") and failing[0] > 0
        assert str(info.value) == expected
    # every point, or every point up to the end of the chunk holding the first failure
    step = max(1, chunk_size // len(pop))
    assert sum(counted) == (min(len(points), (failing[0] // step + 1) * step) if failing else len(points))
