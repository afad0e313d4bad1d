"""Pluggable round-execution backends for the *distributed* protocol.

The message-passing protocol (Algorithm 1+2 as executed by
:class:`repro.api.deployers.DistributedDeployer`) has two backends:

* :class:`LegacyDistributedEngine` — one :class:`LaacadAgent` per node,
  every expanding-ring exchange accounted message by message through
  the scheduler (the original, message-level execution and the scalar
  oracle);
* :class:`~repro.runtime.sparse.SparseDistributedEngine` — the same
  protocol simulated at the *round* level over grid-bucketed candidate
  pairs, with the circle checks counted by angular intervals and every
  node's region clipped in one cross-node pass.

Both are selected by ``LaacadConfig.engine`` (the same knob the
centralized deployer uses).  The sparse backend is held to the
tolerance contract against ``legacy`` — identical communication
counters, rounds and RNG state, geometry within 1e-9 —
which ``tests/test_engine_sparse_equivalence.py`` enforces across loss
rates, seeds, failure schedules and regions.

The RNG draw-order contract
---------------------------
With a lossy channel, *which* reply is dropped is decided by one
``Generator.random()`` draw per transmission, so equivalence requires
the sparse backend to consume the scheduler RNG draw-for-draw in the
legacy order.  That order is:

1. nodes step in ascending node-id order (dead nodes draw nothing);
2. per node, rings expand by ``gamma * ring_granularity`` per step and
   a ring's members are visited in the spatial grid's scan order —
   ascending ``(cell_x, cell_y, node_id)`` with ``cell =
   floor(coordinate / cell_size)`` — restricted to alive non-self nodes
   within ``dist_sq <= rho^2 + 1e-15`` (the grid's inclusion test);
3. per not-yet-known member: one draw for the flooded query, one for
   the reply (a dropped reply leaves the member unknown, so it is
   re-attempted — two more draws — in every later ring).

The sparse backend reproduces (2) with grid queries whose per-center
lists are the scan order and (3) by drawing all of a ring's samples
with a single ``Generator.random(2 * attempts)`` call, which produces
the identical stream as that many scalar calls.
"""

from __future__ import annotations

import abc
import dataclasses
from typing import TYPE_CHECKING, Dict, List, Optional, Type

from repro.geometry.primitives import Point, distance
from repro.voronoi.dominating import DominatingRegion

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.config import LaacadConfig
    from repro.network.network import SensorNetwork
    from repro.runtime.scheduler import SynchronousScheduler

__all__ = [
    "DistributedEngineRound",
    "DistributedRoundEngine",
    "LegacyDistributedEngine",
    "available_distributed_engines",
    "make_distributed_engine",
    "register_distributed_engine",
    "summarize_protocol_round",
]


@dataclasses.dataclass
class DistributedEngineRound:
    """Everything one protocol round produces, before moves are applied.

    Attributes:
        regions: dominating region of every alive node, keyed by node id
            in ascending order.
        centers: Chebyshev center per region (same keys/order).
        circumradii: Chebyshev radius per region, in key order.
        ranges_from_position: distance from each node's current position
            to the farthest point of its region, in key order.
        displacements: node-to-Chebyshev-center distance, in key order
            (the stopping-rule quantity).
        proposed_targets: the ``alpha``-step towards the center each
            node proposes, keyed by node id; only nodes whose
            displacement exceeds ``epsilon`` appear.
    """

    regions: Dict[int, DominatingRegion]
    centers: Dict[int, Point]
    circumradii: List[float]
    ranges_from_position: List[float]
    displacements: List[float]
    proposed_targets: Dict[int, Point]


def summarize_protocol_round(
    network: "SensorNetwork",
    config: "LaacadConfig",
    regions: Dict[int, DominatingRegion],
) -> DistributedEngineRound:
    """Derive centers, statistics and move proposals from the regions.

    The legacy backend's summary (the sparse backend uses it only for a
    round with no alive node).  The arithmetic matches the legacy agent
    exactly — ``chebyshev_center()`` is deterministic (seeded Welzl),
    and the proposed target is the agent's ``pos + alpha * (center -
    pos)`` grouping.
    """
    centers: Dict[int, Point] = {}
    circumradii: List[float] = []
    ranges_from_position: List[float] = []
    displacements: List[float] = []
    proposed_targets: Dict[int, Point] = {}
    alpha = config.alpha
    for node_id, region in regions.items():
        node = network.node(node_id)
        center, radius = region.chebyshev_center()
        centers[node_id] = center
        circumradii.append(radius)
        ranges_from_position.append(region.circumradius(node.position))
        displacement = distance(node.position, center)
        displacements.append(displacement)
        if displacement > config.epsilon:
            proposed_targets[node_id] = (
                node.position[0] + alpha * (center[0] - node.position[0]),
                node.position[1] + alpha * (center[1] - node.position[1]),
            )
    return DistributedEngineRound(
        regions=regions,
        centers=centers,
        circumradii=circumradii,
        ranges_from_position=ranges_from_position,
        displacements=displacements,
        proposed_targets=proposed_targets,
    )


class DistributedRoundEngine(abc.ABC):
    """Executes the gather/compute phase of one protocol round.

    Engines are constructed once per deployment session by
    :class:`repro.api.deployers.DistributedDeployer`, which keeps
    failure injection, statistics, convergence tracking and the
    synchronous move application for itself.  ``run_round`` performs
    every node's expanding-ring information gathering (accounting all
    transmissions — and consuming all loss draws — through the shared
    scheduler) and the per-node region computation; the engine retains
    the last computed regions so the deployer can finalize sensing
    ranges.
    """

    #: Short name used by ``LaacadConfig.engine``.
    name: str = "abstract"

    def __init__(
        self,
        network: "SensorNetwork",
        config: "LaacadConfig",
        scheduler: "SynchronousScheduler",
    ) -> None:
        self.network = network
        self.config = config
        self.scheduler = scheduler
        #: Regions measured by the most recent ``run_round`` call,
        #: keyed by node id; empty until the first round (or after a
        #: checkpoint restore, which triggers a refresh round).
        self.last_regions: Dict[int, DominatingRegion] = {}
        #: Full summary of the most recent round (regions, centers,
        #: displacements, move proposals); ``None`` until the first
        #: round.  Lets callers inspect a round without re-running it.
        self.last_round: Optional[DistributedEngineRound] = None

    @abc.abstractmethod
    def run_round(self, round_index: int) -> DistributedEngineRound:
        """Gather, compute and summarise one round for every alive node."""


_REGISTRY: Dict[str, Type[DistributedRoundEngine]] = {}


def register_distributed_engine(
    cls: Type[DistributedRoundEngine],
) -> Type[DistributedRoundEngine]:
    """Class decorator adding a backend to the distributed-engine registry."""
    if not getattr(cls, "name", None) or cls.name == "abstract":
        raise ValueError("distributed engine classes must define a unique 'name'")
    _REGISTRY[cls.name] = cls
    return cls


def available_distributed_engines() -> List[str]:
    """Names of all registered distributed-engine backends."""
    return sorted(_REGISTRY)


def make_distributed_engine(
    name: str,
    network: "SensorNetwork",
    config: "LaacadConfig",
    scheduler: "SynchronousScheduler",
) -> DistributedRoundEngine:
    """Instantiate a registered distributed backend by name."""
    # "batched" has no distributed engine; sparse is faster.
    if name == "batched":
        name = "sparse"
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown distributed round engine {name!r}; "
            f"available: {', '.join(available_distributed_engines())}"
        ) from None
    return cls(network, config, scheduler)


@register_distributed_engine
class LegacyDistributedEngine(DistributedRoundEngine):
    """Message-level reference backend: one scalar agent per node."""

    name = "legacy"

    def __init__(
        self,
        network: "SensorNetwork",
        config: "LaacadConfig",
        scheduler: "SynchronousScheduler",
    ) -> None:
        from repro.runtime.protocol import LaacadAgent

        super().__init__(network, config, scheduler)
        self.agents: Dict[int, LaacadAgent] = {
            node.node_id: LaacadAgent(node.node_id, network, scheduler, config)
            for node in network.nodes
        }

    def run_round(self, round_index: int) -> DistributedEngineRound:
        regions: Dict[int, DominatingRegion] = {}
        for agent in self.agents.values():
            agent.step(round_index)
            if not agent.alive or agent.last_region is None:
                continue
            regions[agent.node_id] = agent.last_region
        self.last_regions = regions
        self.last_round = summarize_protocol_round(self.network, self.config, regions)
        return self.last_round
