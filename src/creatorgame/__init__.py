"""Solver toolkit for the platform/creator engagement game.

A ranking algorithm leads by committing to engagement weights (clicks,
watch time, shares); creators follow by choosing collaboration or beefing
to maximize their own utility under sponsor pressure. The package computes
follower best responses (exact, quantal, satisficing), aggregates them over
heterogeneous populations, grid-searches the leader's optimal weights, and
maps strategy regions across parameter space.
"""

from .core import (
    AlgorithmWeights,
    CreatorParams,
    DEFAULT_TABLE,
    EngagementProfile,
    GameTable,
    InvalidScenarioError,
    Strategy,
    UtilityModel,
    creator_utility,
    features,
    utility_gap,
)
from .response import (
    Exact,
    Quantal,
    ResponseDistribution,
    ResponseRule,
    Satisficing,
    TIE_TOLERANCE,
    best_response,
    respond,
    switching_delta,
)
from .population import (
    Population,
    StrategyShares,
    make_delta_grid_population,
    population_shares,
)
from .leader import (
    BoxDomain,
    EquilibriumResult,
    LEADER_TIE_TOLERANCE,
    MAX_GRID_EVALUATIONS,
    SimplexDomain,
    WeightDomain,
    algorithm_utility,
    check_grid_budget,
    delta_sensitivity,
    enumerate_domain,
    grid_size,
    stackelberg_solve,
)
from .scenario import (
    PRESETS,
    Scenario,
    ScenarioError,
    load_scenario,
    parse_scenario,
    preset_scenario,
)

__version__ = "0.1.0"

# the sweep names load on first use (PEP 562), so a solve never imports the sweep module
def __getattr__(name: str):
    if name not in _SWEEP_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import sweep

    return getattr(sweep, name)

__all__ = [
    "AlgorithmWeights",
    "BoxDomain",
    "CreatorParams",
    "DEFAULT_TABLE",
    "EngagementProfile",
    "EquilibriumResult",
    "Exact",
    "GameTable",
    "InvalidScenarioError",
    "LEADER_TIE_TOLERANCE",
    "MAX_GRID_EVALUATIONS",
    "MalformedLatticeError",
    "PRESETS",
    "Population",
    "Quantal",
    "ResponseDistribution",
    "ResponseRule",
    "Satisficing",
    "Scenario",
    "ScenarioError",
    "SimplexDomain",
    "Strategy",
    "StrategyShares",
    "SweepAxis",
    "SweepCell",
    "SweepResult",
    "SweepSpec",
    "TIE_TOLERANCE",
    "UtilityModel",
    "WeightDomain",
    "algorithm_utility",
    "best_response",
    "check_grid_budget",
    "creator_utility",
    "delta_sensitivity",
    "emit_csv",
    "emit_region_svg",
    "enumerate_domain",
    "features",
    "grid_size",
    "load_scenario",
    "make_delta_grid_population",
    "parse_scenario",
    "population_shares",
    "preset_scenario",
    "region_boundary",
    "respond",
    "run_sweep",
    "stackelberg_solve",
    "switching_delta",
    "utility_gap",
    "write_sweep",
]

# every public name not imported above is the sweep module's
_SWEEP_NAMES = frozenset(__all__).difference(globals())
