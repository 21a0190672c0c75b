"""The response rules' array kernel, response._choose, and the kernel-fault
path of the sweep, its second caller."""

import numpy as np
import pytest

from creatorgame import (
    AlgorithmWeights,
    CreatorParams,
    DEFAULT_TABLE,
    EngagementProfile,
    GameTable,
    InvalidScenarioError,
    Population,
    Quantal,
    Strategy,
    SweepAxis,
    SweepSpec,
    creator_utility,
    population_shares,
    respond,
    run_sweep,
)
from creatorgame import response, sweep

# Collaboration's risk cost and Beefing's engagement are finite at these
# weights and delta, -1.5e308 and 1.5e308, but their gap overflows to inf.
GAP_OVERFLOW_TABLE = GameTable(
    {
        Strategy.COLLABORATION: EngagementProfile(0.0, 0.0, 0.0, 1e308),
        Strategy.BEEFING: EngagementProfile(1e308, 0.0, 0.0, 0.0),
    }
)
WEIGHTS = AlgorithmWeights(1.5, 0.0, 0.0)
CREATOR = CreatorParams(1.5)


def _utilities():
    """The two utilities at WEIGHTS, CREATOR and GAP_OVERFLOW_TABLE, as one-entry arrays."""
    return (np.array([creator_utility(WEIGHTS, CREATOR, GAP_OVERFLOW_TABLE.profiles[s])]) for s in Strategy)


def test_a_flagged_cell_that_evaluates_is_a_kernel_fault():
    spec = SweepSpec(
        SweepAxis("alpha", 0.0, 1.0, 2), None, AlgorithmWeights(1.0, 1.0, 1.0), CreatorParams(1.0), DEFAULT_TABLE
    )
    cell = run_sweep(spec)[1]
    with pytest.raises(AssertionError, match="was flagged invalid but evaluates"):
        sweep._raise_cell_error(spec, cell)


def test_quantal_at_lam_0_fails_where_finite_utilities_overflow_their_gap():
    u_collab, u_beef = _utilities()
    with np.errstate(all="ignore"):
        gap, beef, collab, failed = response._choose(Quantal(0.0), u_collab, u_beef, True)
    assert gap.tolist() == [np.inf] and failed.tolist() == [True]  # 0 * inf is nan
    with pytest.raises(InvalidScenarioError) as expected:
        respond(Quantal(0.0), WEIGHTS, CREATOR, GAP_OVERFLOW_TABLE)
    with pytest.raises(InvalidScenarioError) as info:
        population_shares(Population((CREATOR,)), Quantal(0.0), WEIGHTS, GAP_OVERFLOW_TABLE)
    assert str(info.value) == f"member 0: {expected.value}"


def test_quantal_above_lam_0_takes_an_overflowing_gap_as_certainty():
    u_collab, u_beef = _utilities()
    with np.errstate(all="ignore"):
        _, beef, collab, failed = response._choose(Quantal(0.5), u_collab, u_beef, True)
    assert failed is None and (collab.tolist(), beef.tolist()) == ([0.0], [1.0])
    expected = {Strategy.COLLABORATION: 0.0, Strategy.BEEFING: 1.0}
    assert respond(Quantal(0.5), WEIGHTS, CREATOR, GAP_OVERFLOW_TABLE).prob == expected
    assert population_shares(Population((CREATOR,)), Quantal(0.5), WEIGHTS, GAP_OVERFLOW_TABLE).share == expected
