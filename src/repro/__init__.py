"""repro — a reproduction of LAACAD (ICDCS 2012).

LAACAD (Load bAlancing k-Area Coverage through Autonomous Deployment)
moves mobile sensor nodes so that every point of a target area is covered
by at least ``k`` nodes while the largest sensing range any node needs is
minimised.  This package implements the algorithm, every substrate it
relies on (computational geometry, k-order Voronoi diagrams, a WSN and
message-passing simulator), the baselines it is compared against, and
runners regenerating every figure and table of the paper's evaluation.

Quickstart (see :mod:`repro.api`)::

    from repro import LaacadConfig, SensorNetwork, Simulation, unit_square

    region = unit_square()
    network = SensorNetwork.from_corner_cluster(region, 60)
    sim = Simulation(network=network, config=LaacadConfig(k=2))
    sim.add_observer(lambda e: print(e.round_index, e.stats.max_circumradius))
    result = sim.run()
    print(result.max_sensing_range, result.converged)

The 1.x runner entry points were removed in 2.0; DESIGN.md "2.0
migration" maps each one to its replacement.
"""

from repro.api import (
    Deployer,
    RoundEvent,
    SessionState,
    Simulation,
    SimulationCheckpoint,
    SimulationResult,
    deploy,
)
from repro.api.results import RoundStats
from repro.core.config import LaacadConfig
from repro.core.dominating import localized_dominating_region
from repro.core.minnode import MinNodeSizer
from repro.engine import (
    BatchedRoundEngine,
    LegacyRoundEngine,
    NodeArrayState,
    RoundEngine,
    available_engines,
    make_engine,
)
from repro.network.network import SensorNetwork
from repro.scenarios import (
    ScenarioFamily,
    ScenarioSpec,
    SweepRunner,
    available_families,
    expand_grid,
    make_scenario,
    register_family,
    run_scenarios,
)
from repro.network.energy import EnergyModel
from repro.regions.region import Region
from repro.regions.shapes import (
    cross_region,
    l_shaped_region,
    rectangle_region,
    square_region,
    unit_square,
)
from repro.voronoi.dominating import DominatingRegion, compute_dominating_region
from repro.voronoi.korder import KOrderVoronoiDiagram
from repro.analysis.coverage import evaluate_coverage, is_k_covered

__version__ = "2.0.0"

__all__ = [
    "Deployer",
    "RoundEvent",
    "SessionState",
    "Simulation",
    "SimulationCheckpoint",
    "SimulationResult",
    "deploy",
    "LaacadConfig",
    "RoundStats",
    "localized_dominating_region",
    "MinNodeSizer",
    "BatchedRoundEngine",
    "LegacyRoundEngine",
    "NodeArrayState",
    "RoundEngine",
    "available_engines",
    "make_engine",
    "SensorNetwork",
    "ScenarioFamily",
    "ScenarioSpec",
    "SweepRunner",
    "available_families",
    "expand_grid",
    "make_scenario",
    "register_family",
    "run_scenarios",
    "EnergyModel",
    "Region",
    "square_region",
    "rectangle_region",
    "unit_square",
    "l_shaped_region",
    "cross_region",
    "DominatingRegion",
    "compute_dominating_region",
    "KOrderVoronoiDiagram",
    "evaluate_coverage",
    "is_k_covered",
    "__version__",
]
