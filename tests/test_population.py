"""Population aggregation: shares, threshold partition, grid construction."""

import numpy as np
import pytest

from creatorgame import (
    AlgorithmWeights,
    CreatorParams,
    DEFAULT_TABLE,
    MAX_GRID_EVALUATIONS,
    Exact,
    InvalidScenarioError,
    Population,
    Quantal,
    Strategy,
    UtilityModel,
    best_response,
    make_delta_grid_population,
    population_shares,
    switching_delta,
)

W_VIRAL = AlgorithmWeights(2.5, 0.5, 2.0)


def test_single_creator_point_mass():
    pop = Population((CreatorParams(1.0),))
    shares = population_shares(pop, Exact(), W_VIRAL, DEFAULT_TABLE)
    assert shares.share[Strategy.BEEFING] == 1.0
    assert shares.share[Strategy.COLLABORATION] == 0.0


def test_threshold_partition_small_population():
    # switching delta for these weights is 8/3; members below it beef
    pop = Population(tuple(CreatorParams(d) for d in (0.5, 1.5, 3.0)))
    shares = population_shares(pop, Exact(), W_VIRAL, DEFAULT_TABLE)
    assert shares.share[Strategy.BEEFING] == 2.0 / 3.0
    assert shares.share[Strategy.COLLABORATION] == 1.0 / 3.0


def test_quantal_zero_lambda_any_population():
    pop = make_delta_grid_population(0.0, 5.0, 11)
    shares = population_shares(pop, Quantal(0.0), W_VIRAL, DEFAULT_TABLE)
    assert shares.share[Strategy.COLLABORATION] == 0.5
    assert shares.share[Strategy.BEEFING] == 0.5


def test_delta_grid_population_spacing():
    pop = make_delta_grid_population(0.0, 2.0, 3)
    assert [m.delta for m in pop.members] == [0.0, 1.0, 2.0]
    pop = make_delta_grid_population(1.0, 1.0, 5)
    assert [m.delta for m in pop.members] == [1.0] * 5
    pop = make_delta_grid_population(0.0, 4.0, 5)
    assert [m.delta for m in pop.members] == [0.0, 1.0, 2.0, 3.0, 4.0]
    pop = make_delta_grid_population(0.7, 9.0, 1)
    assert [m.delta for m in pop.members] == [0.7]


def test_delta_grid_population_rejects_bad_ranges():
    with pytest.raises(InvalidScenarioError):
        make_delta_grid_population(2.0, 1.0, 3)
    with pytest.raises(InvalidScenarioError):
        make_delta_grid_population(-1.0, 1.0, 3)
    with pytest.raises(InvalidScenarioError):
        make_delta_grid_population(0.0, 1.0, 0)


@pytest.mark.parametrize("count", [MAX_GRID_EVALUATIONS + 1, 10**13])
def test_delta_grid_population_refuses_counts_no_search_could_take(count):
    # refused before numpy is asked for the array, so nothing is allocated
    with pytest.raises(InvalidScenarioError, match=r"^count must be <= 10000000, the limit"):
        make_delta_grid_population(0.0, 1.0, count)


def test_shares_sum_to_one_under_every_rule():
    rng = np.random.default_rng(3)
    pop = make_delta_grid_population(0.0, 5.0, 17, UtilityModel.NONLINEAR)
    for rule in (Exact(), Quantal(0.7), Quantal(3.0)):
        for _ in range(20):
            weights = AlgorithmWeights(*rng.uniform(0.0, 5.0, size=3))
            shares = population_shares(pop, rule, weights, DEFAULT_TABLE)
            assert abs(sum(shares.share.values()) - 1.0) <= 1e-12


def test_homogeneous_population_collapses_to_single_member():
    clones = Population(tuple(CreatorParams(2.0) for _ in range(9)))
    single = Population((CreatorParams(2.0),))
    for rule in (Exact(), Quantal(1.5)):
        big = population_shares(clones, rule, W_VIRAL, DEFAULT_TABLE)
        small = population_shares(single, rule, W_VIRAL, DEFAULT_TABLE)
        for s in Strategy:
            assert big.share[s] == pytest.approx(small.share[s], abs=1e-12)
    # exact rule: point mass matching the single creator's best response
    chosen = best_response(W_VIRAL, CreatorParams(2.0), DEFAULT_TABLE)
    assert population_shares(clones, Exact(), W_VIRAL, DEFAULT_TABLE).share[chosen] == 1.0


def test_threshold_consistency_against_switching_delta():
    rng = np.random.default_rng(13)
    pop = make_delta_grid_population(0.0, 5.0, 101)
    for _ in range(50):
        weights = AlgorithmWeights(*rng.uniform(0.0, 5.0, size=3))
        boundary = switching_delta(weights, UtilityModel.LINEAR, DEFAULT_TABLE)
        expected = sum(1 for m in pop.members if m.delta < boundary) / 101
        shares = population_shares(pop, Exact(), weights, DEFAULT_TABLE)
        assert shares.share[Strategy.BEEFING] == expected


def test_order_independence():
    rng = np.random.default_rng(17)
    members = tuple(CreatorParams(float(d)) for d in rng.uniform(0.0, 5.0, size=40))
    shuffled = list(members)
    rng.shuffle(shuffled)
    for rule in (Exact(), Quantal(2.0)):
        a = population_shares(Population(members), rule, W_VIRAL, DEFAULT_TABLE)
        b = population_shares(Population(tuple(shuffled)), rule, W_VIRAL, DEFAULT_TABLE)
        for s in Strategy:
            assert a.share[s] == pytest.approx(b.share[s], abs=1e-12)


def test_member_errors_carry_the_offending_index():
    # member 1's quadratic drama penalty overflows the nonlinear model
    pop = Population(
        (CreatorParams(1.0), CreatorParams(1.7e308, UtilityModel.NONLINEAR))
    )
    with pytest.raises(InvalidScenarioError, match="member 1"):
        population_shares(pop, Exact(), W_VIRAL, DEFAULT_TABLE)


def test_population_must_be_non_empty():
    with pytest.raises(InvalidScenarioError):
        Population(())
