"""Planning toolkit for moving energy over road networks with EVs as carriers.

The library models a road network whose vehicle routes can ferry small
energy packets between junctions equipped for wireless charge and
discharge. It enumerates the energy paths connecting a source junction to a
target, prices each path's deliverable energy and conversion loss, and
plans each pair for one of two objectives: maximize delivered energy under
a loss budget, or meet a delivery floor at minimum loss. Both are
fractional knapsacks, which one greedy fill solves exactly. A scenario
format, a seeded generator, and a sweep harness support repeatable
experiments.
"""

from ._version import __version__
from .errors import (
    ScenarioFormatError,
    ValidationError,
    VenplanError,
)
from .network import (
    Arc,
    RoadNetwork,
    SubRoute,
    VehicularRoute,
    build_network,
)
from .paths import (
    FULL_ROUTE,
    PER_HOP,
    EnergyPath,
    EnumerationConfig,
    PathTable,
    RouteIndex,
    enumerate_paths,
)
from .energetics import (
    EnergyParams,
    path_economics,
)
from .planner import (
    GREEDY,
    INFEASIBLE,
    MAX_ENERGY,
    MIN_LOSS,
    OPTIMAL,
    PairPlan,
    ScenarioSolution,
    TransferPlan,
    knapsack_assign,
    solve,
    solve_scenario,
)
from .scenario import (
    GeneratorConfig,
    Scenario,
    generate_scenario,
    parse_scenario,
    scenario_hash,
    serialize_scenario,
)
from .sweep import (
    SWEEP_PARAMETERS,
    SweepPoint,
    SweepResult,
    SweepSpec,
    find_crossover,
    run_sweep,
    sweep_metadata,
    sweep_to_csv,
)

__all__ = [
    "__version__",
    "VenplanError",
    "ValidationError",
    "ScenarioFormatError",
    "Arc",
    "RoadNetwork",
    "SubRoute",
    "VehicularRoute",
    "build_network",
    "FULL_ROUTE",
    "PER_HOP",
    "EnergyPath",
    "EnumerationConfig",
    "PathTable",
    "RouteIndex",
    "enumerate_paths",
    "EnergyParams",
    "path_economics",
    "OPTIMAL",
    "INFEASIBLE",
    "GREEDY",
    "MAX_ENERGY",
    "MIN_LOSS",
    "PairPlan",
    "ScenarioSolution",
    "TransferPlan",
    "knapsack_assign",
    "solve",
    "solve_scenario",
    "GeneratorConfig",
    "Scenario",
    "generate_scenario",
    "parse_scenario",
    "scenario_hash",
    "serialize_scenario",
    "SWEEP_PARAMETERS",
    "SweepPoint",
    "SweepResult",
    "SweepSpec",
    "find_crossover",
    "run_sweep",
    "sweep_metadata",
    "sweep_to_csv",
]
