"""Leader objective, domain enumeration, and the grid-search solver."""

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
    Population,
    SimplexDomain,
    Strategy,
    StrategyShares,
    UtilityModel,
    algorithm_utility,
    best_response,
    creator_utility,
    delta_sensitivity,
    enumerate_domain,
    population_shares,
    stackelberg_solve,
)

W_VIRAL = AlgorithmWeights(2.5, 0.5, 2.0)
ALL_COLLAB = StrategyShares({Strategy.COLLABORATION: 1.0, Strategy.BEEFING: 0.0})
ALL_BEEF = StrategyShares({Strategy.COLLABORATION: 0.0, Strategy.BEEFING: 1.0})


def _brute_force_single_creator(domain, creator, table, tie_tol=1e-9):
    """Independent reference solver for a single exact-rule creator.

    Re-derives the response by direct utility comparison and the leader
    value by direct arithmetic on the chosen profile, then scans the grid
    with the same documented tie rule (later points must beat the incumbent
    by more than tie_tol).
    """
    best = None
    for idx, w in enumerate(enumerate_domain(domain)):
        u = {s: creator_utility(w, creator, table.profiles[s]) for s in Strategy}
        if u[Strategy.BEEFING] - u[Strategy.COLLABORATION] > tie_tol:
            s_star = Strategy.BEEFING
        else:
            s_star = Strategy.COLLABORATION
        p = table.profiles[s_star]
        value = w.alpha * p.clicks + w.beta * p.watch_time + w.gamma * p.shares
        if best is None or value > best[0] + tie_tol:
            best = (value, idx, w, s_star)
    return best


def test_algorithm_utility_hand_values():
    assert algorithm_utility(W_VIRAL, ALL_BEEF, DEFAULT_TABLE) == pytest.approx(21.5, abs=1e-12)
    assert algorithm_utility(
        AlgorithmWeights(1.0, 2.0, 1.5), ALL_COLLAB, DEFAULT_TABLE
    ) == pytest.approx(16.5, abs=1e-12)
    zero = AlgorithmWeights(0.0, 0.0, 0.0)
    mixed = StrategyShares({Strategy.COLLABORATION: 0.25, Strategy.BEEFING: 0.75})
    assert algorithm_utility(zero, mixed, DEFAULT_TABLE) == 0.0


def test_drama_risk_never_enters_leader_value():
    risky = GameTable(
        {
            Strategy.COLLABORATION: EngagementProfile(2.0, 5.0, 3.0, 9.0),
            Strategy.BEEFING: EngagementProfile(5.0, 2.0, 4.0, 9.0),
        }
    )
    for shares in (ALL_COLLAB, ALL_BEEF):
        assert algorithm_utility(W_VIRAL, shares, risky) == algorithm_utility(W_VIRAL, shares, DEFAULT_TABLE)


def test_enumerate_simplex_n1_order():
    points = enumerate_domain(SimplexDomain(1.0, 1))
    assert [(w.alpha, w.beta, w.gamma) for w in points] == [
        (0.0, 0.0, 1.0),
        (0.0, 1.0, 0.0),
        (1.0, 0.0, 0.0),
    ]


def test_enumerate_simplex_counts_and_sum():
    for n in (1, 2, 5, 10, 20):
        points = enumerate_domain(SimplexDomain(2.0, n))
        assert len(points) == (n + 1) * (n + 2) // 2
        for w in points:
            assert w.alpha + w.beta + w.gamma == pytest.approx(2.0, abs=1e-12)
    # lexicographic (i, j, k) order: alpha ascending, then beta
    points = enumerate_domain(SimplexDomain(1.0, 2))
    triples = [(w.alpha, w.beta, w.gamma) for w in points]
    assert triples == sorted(triples)


def test_enumerate_box_corners():
    points = enumerate_domain(BoxDomain(1.0, 1.0, 1.0, resolution=1))
    triples = [(w.alpha, w.beta, w.gamma) for w in points]
    assert len(triples) == 8
    assert triples == sorted(triples)
    assert set(triples) == {(a, b, g) for a in (0.0, 1.0) for b in (0.0, 1.0) for g in (0.0, 1.0)}
    assert len(enumerate_domain(BoxDomain(1.0, 2.0, 3.0, resolution=2))) == 27


def test_solve_single_creator_high_delta():
    # on the unit simplex 3a + g never exceeds 7.5 + 3b, so the creator
    # always collaborates and the leader maxes 2a + 5b + 3g at pure beta
    pop = Population((CreatorParams(2.5),))
    result = stackelberg_solve(SimplexDomain(1.0, 10), pop, Exact(), DEFAULT_TABLE)
    assert (result.weights.alpha, result.weights.beta, result.weights.gamma) == (0.0, 1.0, 0.0)
    assert result.leader_value == pytest.approx(5.0, abs=1e-12)
    assert result.shares.share[Strategy.COLLABORATION] == 1.0
    assert result.grid_points_evaluated == 66


def test_solve_delta_zero_tie_resolves_to_enumeration_order():
    # pure-alpha (beefing) also scores 5.0 but (0, 1, 0) enumerates first
    pop = Population((CreatorParams(0.0),))
    result = stackelberg_solve(SimplexDomain(1.0, 10), pop, Exact(), DEFAULT_TABLE)
    assert (result.weights.alpha, result.weights.beta, result.weights.gamma) == (0.0, 1.0, 0.0)
    assert result.leader_value == pytest.approx(5.0, abs=1e-12)
    assert result.shares.share[Strategy.COLLABORATION] == 1.0


def test_solve_three_corner_domain():
    pop = Population((CreatorParams(10.0),))
    result = stackelberg_solve(SimplexDomain(1.0, 1), pop, Exact(), DEFAULT_TABLE)
    assert result.grid_points_evaluated == 3
    assert (result.weights.alpha, result.weights.beta, result.weights.gamma) == (0.0, 1.0, 0.0)
    assert result.leader_value == pytest.approx(5.0, abs=1e-12)


def test_delta_sensitivity_orders_and_values():
    domain = SimplexDomain(1.0, 10)
    results = delta_sensitivity(domain, [1.0, 2.5], UtilityModel.LINEAR, Exact(), DEFAULT_TABLE)
    assert [d for d, _ in results] == [1.0, 2.5]
    for _, result in results:
        assert result.leader_value == pytest.approx(5.0, abs=1e-12)
        assert result.shares.share[Strategy.COLLABORATION] == 1.0

    single = delta_sensitivity(domain, [0.0], UtilityModel.LINEAR, Exact(), DEFAULT_TABLE)
    direct = stackelberg_solve(domain, Population((CreatorParams(0.0),)), Exact(), DEFAULT_TABLE)
    assert single[0][1] == direct

    repeated = delta_sensitivity(domain, [5.0, 5.0, 5.0], UtilityModel.LINEAR, Exact(), DEFAULT_TABLE)
    assert repeated[0][1] == repeated[1][1] == repeated[2][1]


def test_delta_sensitivity_rejects_empty_and_tags_bad_delta():
    domain = SimplexDomain(1.0, 2)
    with pytest.raises(InvalidScenarioError):
        delta_sensitivity(domain, [], UtilityModel.LINEAR, Exact(), DEFAULT_TABLE)
    with pytest.raises(InvalidScenarioError, match="delta=-1.0"):
        delta_sensitivity(domain, [-1.0], UtilityModel.LINEAR, Exact(), DEFAULT_TABLE)


def test_solver_matches_brute_force_on_random_scenarios():
    rng = np.random.default_rng(41)
    points_cache = {n: enumerate_domain(SimplexDomain(1.0, n)) for n in (1, 5, 10)}
    for _ in range(60):
        creator = CreatorParams(rng.uniform(0.0, 5.0))
        table = GameTable(
            {
                Strategy.COLLABORATION: EngagementProfile(*rng.uniform(0.0, 10.0, size=4)),
                Strategy.BEEFING: EngagementProfile(*rng.uniform(0.0, 10.0, size=4)),
            }
        )
        for n, points in points_cache.items():
            domain = SimplexDomain(1.0, n)
            result = stackelberg_solve(domain, Population((creator,)), Exact(), table)
            value, idx, weights, _ = _brute_force_single_creator(domain, creator, table)
            assert result.weights == weights
            assert result.weights == points[idx]
            assert abs(result.leader_value - value) <= 1e-12


def test_returned_value_dominates_every_grid_point():
    rng = np.random.default_rng(43)
    pop = Population(tuple(CreatorParams(float(d)) for d in rng.uniform(0.0, 4.0, size=5)))
    for n in (1, 5, 20):
        domain = SimplexDomain(1.0, n)
        result = stackelberg_solve(domain, pop, Exact(), DEFAULT_TABLE)
        for w in enumerate_domain(domain):
            shares = population_shares(pop, Exact(), w, DEFAULT_TABLE)
            assert result.leader_value >= algorithm_utility(w, shares, DEFAULT_TABLE) - 1e-12


def test_leader_value_non_decreasing_in_nested_resolutions():
    rng = np.random.default_rng(47)
    for _ in range(10):
        creator = CreatorParams(rng.uniform(0.0, 4.0))
        pop = Population((creator,))
        values = [
            stackelberg_solve(SimplexDomain(1.0, n), pop, Exact(), DEFAULT_TABLE).leader_value
            for n in (5, 10, 20)  # each grid contains the previous one
        ]
        assert values[1] >= values[0] - 1e-9
        assert values[2] >= values[1] - 1e-9


def test_result_is_self_consistent():
    pop = Population(tuple(CreatorParams(d) for d in (0.5, 1.5, 3.0)))
    result = stackelberg_solve(SimplexDomain(1.0, 10), pop, Exact(), DEFAULT_TABLE)
    assert result.leader_value == pytest.approx(
        algorithm_utility(result.weights, result.shares, DEFAULT_TABLE), abs=1e-12
    )
    for s in Strategy:
        mean_u = sum(
            creator_utility(result.weights, m, DEFAULT_TABLE.profiles[s]) for m in pop.members
        ) / len(pop.members)
        assert result.creator_utilities[s] == pytest.approx(mean_u, abs=1e-12)


def test_single_creator_reduction_to_chosen_profile():
    # with one exact creator the leader value is exactly the weight dot
    # product with the chosen strategy's profile
    for delta in (0.0, 1.0, 2.5, 10.0):
        creator = CreatorParams(delta)
        result = stackelberg_solve(SimplexDomain(1.0, 10), Population((creator,)), Exact(), DEFAULT_TABLE)
        chosen = best_response(result.weights, creator, DEFAULT_TABLE)
        p = DEFAULT_TABLE.profiles[chosen]
        direct = (
            result.weights.alpha * p.clicks
            + result.weights.beta * p.watch_time
            + result.weights.gamma * p.shares
        )
        assert result.leader_value == direct


def test_domain_validation():
    with pytest.raises(InvalidScenarioError):
        SimplexDomain(0.0, 10)
    with pytest.raises(InvalidScenarioError):
        SimplexDomain(1.0, 0)
    with pytest.raises(InvalidScenarioError):
        BoxDomain(1.0, 0.0, 1.0, resolution=5)
    with pytest.raises(InvalidScenarioError):
        BoxDomain(1.0, 1.0, 1.0, resolution=-1)


def test_overflowing_population_mean_utility_names_the_strategy():
    # each member's Collaboration utility is finite (1e308), but their sum is not
    table = GameTable(
        {
            Strategy.COLLABORATION: EngagementProfile(1e308, 0.0, 0.0, 0.0),
            Strategy.BEEFING: EngagementProfile(0.0, 0.0, 0.0, 1.0),
        }
    )
    pop = Population((CreatorParams(1.0), CreatorParams(2.0)))
    with pytest.raises(InvalidScenarioError) as info:
        stackelberg_solve(SimplexDomain(1.0, 2), pop, Exact(), table)
    assert str(info.value) == "population-mean Collaboration utility is non-finite (inf); inputs too extreme"
