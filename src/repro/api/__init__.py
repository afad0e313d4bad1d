"""``repro.api`` — the stable facade for running deployments.

Every way of creating, driving, observing and persisting a deployment
run goes through this package (see DESIGN.md, "The API layer"):

* :class:`Simulation` — the session object: steppable (``step()``,
  ``events()``), observable (``add_observer``), resumable
  (``checkpoint()`` / ``Simulation.restore``), constructed from a
  :class:`~repro.scenarios.spec.ScenarioSpec`, live objects, or kwargs;
* :class:`Deployer` and its implementations — the unified protocol the
  centralized, distributed and static execution paths share;
* :class:`SimulationResult` — the lossless, versioned result type
  (``to_dict``/``from_dict`` round-trip everything, history included);
* :class:`RoundEvent` — the typed per-round event observers receive;
* :class:`SimulationCheckpoint` — full mid-run state, JSON-persistable,
  restoring bitwise-identically;
* probes in :mod:`repro.api.observers` — coverage/energy/convergence
  measured live instead of recomputed from final state.

It is the only entry point: the 1.x runners (``run_laacad``,
``LaacadRunner``, ``DistributedLaacadRunner``) were removed in 2.0
(DESIGN.md "2.0 migration").
"""

from repro.api.checkpoint import (
    CHECKPOINT_DIR_ENV,
    CHECKPOINT_EVERY_ENV,
    CHECKPOINT_VERSION,
    SimulationCheckpoint,
    checkpoint_path_for,
    resolve_checkpoint_dir,
    resolve_checkpoint_every,
)
from repro.api.events import RoundEvent
from repro.api.results import (
    RESULT_FORMAT_VERSION,
    CommunicationSummary,
    DistributedRoundStats,
    RoundStats,
    SimulationResult,
)
from repro.api.deployers import (
    DEPLOYERS,
    CentralizedDeployer,
    Deployer,
    DistributedDeployer,
    SessionState,
    StaticDeployer,
)
from repro.api.session import Simulation, deploy
from repro.api.observers import ConvergenceProbe, CoverageProbe, EnergyProbe

__all__ = [
    "CHECKPOINT_DIR_ENV",
    "CHECKPOINT_EVERY_ENV",
    "CHECKPOINT_VERSION",
    "CentralizedDeployer",
    "CommunicationSummary",
    "ConvergenceProbe",
    "CoverageProbe",
    "DEPLOYERS",
    "Deployer",
    "DistributedDeployer",
    "DistributedRoundStats",
    "EnergyProbe",
    "RESULT_FORMAT_VERSION",
    "RoundEvent",
    "RoundStats",
    "SessionState",
    "SimulationCheckpoint",
    "SimulationResult",
    "StaticDeployer",
    "Simulation",
    "checkpoint_path_for",
    "deploy",
    "resolve_checkpoint_dir",
    "resolve_checkpoint_every",
]
