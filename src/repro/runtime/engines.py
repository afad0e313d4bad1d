"""Pluggable round-execution backends for the *distributed* protocol.

PR 1 split the centralized Algorithm-1 hot path into a ``RoundEngine``
registry with a scalar ``legacy`` reference and an array-native
``batched`` backend.  This module applies the same treatment to the
message-passing protocol (Algorithm 1+2 as executed by
:class:`repro.api.deployers.DistributedDeployer`):

* :class:`LegacyDistributedEngine` — one :class:`LaacadAgent` per node,
  every expanding-ring exchange accounted message by message through
  the scheduler (the original, message-level execution);
* :class:`BatchedDistributedEngine` — the same protocol simulated at
  the *round* level: one pairwise distance matrix per round, every
  node's ring memberships derived from it by thresholding instead of
  repeated :class:`~repro.network.neighbors.SpatialGrid` queries, loss
  sampling vectorised per ring, and the surviving neighbour sets fed
  through the batched :func:`~repro.engine.kernels.dominating_pieces_batch`
  clipping sweep.

Both backends are selected by ``LaacadConfig.engine`` (the same knob
the centralized deployer uses) and must be **bitwise identical** —
``tests/test_distributed_engine_equivalence.py`` enforces equality of
trajectories, sensing ranges and every communication counter across
loss rates, seeds and failure schedules.

The RNG draw-order contract
---------------------------
With a lossy channel, *which* reply is dropped is decided by one
``Generator.random()`` draw per transmission, so equivalence requires
the batched backend to consume the scheduler RNG draw-for-draw in the
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

The batched backend reproduces (2) by sorting candidates once per node
with ``np.lexsort`` over the same cell keys and (3) by drawing all of a
ring's samples with a single ``Generator.random(2 * attempts)`` call,
which produces the identical stream as that many scalar calls.
"""

from __future__ import annotations

import abc
import dataclasses
import math
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Type

import numpy as np

from repro.engine.kernels import (
    BatchedRegionContainment,
    dominating_pieces_batch,
    pairwise_distance_and_sq,
)
from repro.geometry.primitives import Point, distance
from repro.runtime.messages import POSITION_REPORT_BYTES, RING_QUERY_BYTES
from repro.voronoi.dominating import DominatingRegion

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.config import LaacadConfig
    from repro.network.network import SensorNetwork
    from repro.runtime.scheduler import SynchronousScheduler

__all__ = [
    "BatchedDistributedEngine",
    "DistributedEngineRound",
    "DistributedRoundEngine",
    "LegacyDistributedEngine",
    "available_distributed_engines",
    "make_distributed_engine",
    "register_distributed_engine",
    "summarize_protocol_round",
]

#: Above this many nodes the distance matrices are built in row blocks.
_DISTANCE_CHUNK_THRESHOLD = 2048


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

    Shared by both backends so every derived float (Chebyshev center,
    displacement, proposed target) comes from one code path: once two
    backends produce identical region polygons, everything downstream
    is bitwise identical by construction.  The arithmetic matches the
    legacy agent exactly — ``chebyshev_center()`` is deterministic
    (seeded Welzl), and the proposed target is the agent's
    ``pos + alpha * (center - pos)`` grouping.
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
        #: round.  Backs the deployer's deprecated per-agent surface.
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


@register_distributed_engine
class BatchedDistributedEngine(DistributedRoundEngine):
    """Round-level backend: one distance matrix, vectorised rings.

    Per round the engine computes the pairwise hypot and squared
    distance matrices once (chunked above
    ``_DISTANCE_CHUNK_THRESHOLD`` nodes), the hop-count matrix
    (``max(1, ceil(d / gamma - 1e-9))``) and the spatial-grid scan
    order (``lexsort`` over cell keys), then walks every node's
    expanding-ring schedule over those arrays: ring membership is a
    threshold mask, the per-ring transmissions are accounted — and
    their loss draws consumed — through
    :meth:`~repro.runtime.scheduler.SynchronousScheduler.record_many`,
    the Algorithm-2 half-radius termination check counts closer
    neighbours in one broadcast comparison, and the known neighbour
    set (in delivery order) feeds the batched clipping sweep.  See the
    module docstring for why every step is draw- and decision-exact
    against the legacy agents.
    """

    name = "batched"

    def __init__(
        self,
        network: "SensorNetwork",
        config: "LaacadConfig",
        scheduler: "SynchronousScheduler",
    ) -> None:
        super().__init__(network, config, scheduler)
        # Sample directions of the Algorithm-2 half-radius circle check,
        # computed with math.cos/math.sin so the sample points are
        # bitwise the legacy agent's.
        samples = config.circle_check_samples
        self._circle_cos = np.asarray(
            [math.cos(2.0 * math.pi * i / samples) for i in range(samples)]
        )
        self._circle_sin = np.asarray(
            [math.sin(2.0 * math.pi * i / samples) for i in range(samples)]
        )
        # Interleaved (query, reply) sizes, tiled per ring batch.
        self._exchange_sizes = np.asarray(
            [RING_QUERY_BYTES, POSITION_REPORT_BYTES], dtype=np.int64
        )
        # Vectorised free-area containment for the circle samples,
        # decision-exact against region.contains.
        self._containment = BatchedRegionContainment(network.region)

    # ------------------------------------------------------------------
    def run_round(self, round_index: int) -> DistributedEngineRound:
        network = self.network
        config = self.config
        region = network.region
        area_pieces = region.convex_pieces()
        gamma = network.comm_range
        step = gamma * config.ring_granularity
        max_radius = 2.0 * region.diameter + step

        positions = np.asarray(network.positions(), dtype=float)
        alive = network.alive_mask()
        count = positions.shape[0]

        # Spatial-grid scan order: ascending (cell_x, cell_y, node_id)
        # with the grid's cell size; restricting to alive nodes keeps
        # the relative order nodes_within() would report.
        cell_size = max(gamma, 1e-6)
        cell_x = np.floor(positions[:, 0] / cell_size).astype(np.int64)
        cell_y = np.floor(positions[:, 1] / cell_size).astype(np.int64)
        scan = np.lexsort((np.arange(count), cell_y, cell_x))
        scan_alive = scan[alive[scan]]

        chunk = _DISTANCE_CHUNK_THRESHOLD if count > _DISTANCE_CHUNK_THRESHOLD else None
        dist, dist_sq = pairwise_distance_and_sq(positions, chunk_size=chunk)
        hops = np.maximum(1, np.ceil(dist / gamma - 1e-9)).astype(np.int64)

        regions: Dict[int, DominatingRegion] = {}
        for node_index in np.nonzero(alive)[0]:
            node_id = int(node_index)
            site = network.nodes[node_id].position
            cand = scan_alive[scan_alive != node_index]
            known_order, rho = self._expanding_rings(
                site,
                positions[cand],
                dist_sq[node_index, cand],
                hops[node_index, cand],
                step,
                max_radius,
            )
            competitors = positions[cand[known_order]] if known_order else positions[:0]
            pieces = dominating_pieces_batch(site, competitors, area_pieces, config.k)
            regions[node_id] = DominatingRegion(
                site=site,
                k=config.k,
                pieces=pieces,
                competitors_used=len(known_order),
                search_radius=rho,
            )
        self.last_regions = regions
        self.last_round = summarize_protocol_round(network, config, regions)
        return self.last_round

    # ------------------------------------------------------------------
    def _expanding_rings(
        self,
        site: Point,
        cand_positions: np.ndarray,
        cand_dist_sq: np.ndarray,
        cand_hops: np.ndarray,
        step: float,
        max_radius: float,
        extend=None,
        circle_inside: Optional[np.ndarray] = None,
    ) -> Tuple[List[int], float]:
        """Algorithm 2's information gathering over precomputed arrays.

        Returns the candidate indices whose replies were delivered, in
        delivery order (ring by ring, scan order within a ring — the
        legacy ``known_positions`` dict insertion order), and the final
        ring radius.

        ``extend``, when given, lets a caller grow the candidate arrays
        lazily as the ring expands (the sparse backend fetches them from
        the spatial grid instead of a dense matrix).  It is called with
        the new ring radius and returns either ``None`` (current arrays
        still cover the ring) or ``(positions, dist_sq, hops, remap)``
        where ``remap`` maps old candidate rows to rows of the new
        arrays — the new arrays must contain the old candidates in scan
        order so the RNG draw-order contract is preserved.

        ``circle_inside``, when given, is a ``(levels, samples)`` boolean
        array: row ``i`` is the free-area containment of the circle
        samples of ring level ``i + 1`` (radius accumulated by
        ``rho += step`` like this loop's), computed in batch by the
        caller.  Levels past its last row compute containment here.
        """
        scheduler = self.scheduler
        sizes = self._exchange_sizes
        known_mask = np.zeros(cand_dist_sq.shape[0], dtype=bool)
        known_order: List[int] = []
        known_dirty = True
        known_positions = cand_positions[:0]
        precomputed = 0 if circle_inside is None else circle_inside.shape[0]
        level = 0
        rho = 0.0
        while True:
            rho += step
            level += 1
            if extend is not None:
                grown = extend(rho)
                if grown is not None:
                    cand_positions, cand_dist_sq, cand_hops, remap = grown
                    new_mask = np.zeros(cand_dist_sq.shape[0], dtype=bool)
                    new_mask[remap[known_mask]] = True
                    known_mask = new_mask
                    known_order = [int(remap[i]) for i in known_order]
                    known_dirty = True
            # The grid's inclusion test: dist_sq <= radius^2 + 1e-15.
            attempts = np.nonzero(
                (cand_dist_sq <= rho * rho + 1e-15) & ~known_mask
            )[0]
            if attempts.size:
                delivered = scheduler.record_many(
                    np.repeat(cand_hops[attempts], 2),
                    np.tile(sizes, attempts.size),
                )
                got = attempts[delivered[1::2]]
                if got.size:
                    known_mask[got] = True
                    known_order.extend(got.tolist())
                    known_dirty = True
            if known_dirty:
                known_positions = cand_positions[known_order]
                known_dirty = False
            inside = circle_inside[level - 1] if level <= precomputed else None
            if self._circle_dominated(site, rho / 2.0, known_positions, inside):
                break
            if rho >= max_radius:
                break
        return known_order, rho

    def _circle_dominated(
        self,
        site: Point,
        radius: float,
        neighbor_positions: np.ndarray,
        inside: Optional[np.ndarray] = None,
    ) -> bool:
        """Vectorised Algorithm-2 half-radius check, decision-exact.

        Sample points are ``site + radius * (cos, sin)`` from the
        math-library tables; containment runs through the batched
        free-area kernel (decision-exact against ``region.contains``);
        the closer-than-me counting compares ``np.hypot`` distances
        against ``own_distance - 1e-12`` exactly like the scalar loop
        (rule 2 of the kernels' numerical contract covers the 1-ulp
        hypot latitude — the 1e-12 tolerance dwarfs it).

        ``inside``, when given, is the samples' containment mask
        computed in batch by the caller (elementwise the same kernel).
        """
        sample_x = site[0] + radius * self._circle_cos
        sample_y = site[1] + radius * self._circle_sin
        if inside is None:
            inside = self._containment.contains(sample_x, sample_y)
        if not inside.any():
            return True
        if neighbor_positions.shape[0] == 0:
            return False
        vx = sample_x[inside]
        vy = sample_y[inside]
        own_distance = np.hypot(site[0] - vx, site[1] - vy)
        closer = (
            np.hypot(
                neighbor_positions[:, 0][None, :] - vx[:, None],
                neighbor_positions[:, 1][None, :] - vy[:, None],
            )
            < (own_distance - 1e-12)[:, None]
        ).sum(axis=1)
        return bool(np.all(closer >= self.config.k))
