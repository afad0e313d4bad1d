"""The distributed LAACAD protocol (message-level execution of Algorithm 1+2).

Every round (one period ``tau``) each alive node:

1. runs the Algorithm 2 expanding-ring search; the query flood and the
   position replies are accounted through the scheduler, one query
   transmission per ring member and one multi-hop reply each (via the
   counting fast path — the loss model and every counter behave exactly
   as if the messages were materialised),
2. computes its dominating region *only* from the replies it actually
   received (a dropped reply means the corresponding neighbour is simply
   unknown this round),
3. proposes a move of ``alpha`` towards the Chebyshev center.

Moves are applied simultaneously at the end of the round, exactly like
the centralized driver, so with a loss-free channel the two drivers
produce identical trajectories (covered by an integration test).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from repro.api.results import DistributedRoundStats
from repro.core.config import LaacadConfig
from repro.geometry.primitives import Point, distance
from repro.network.network import SensorNetwork
from repro.runtime.agent import NodeAgent
from repro.runtime.messages import POSITION_REPORT_BYTES, RING_QUERY_BYTES
from repro.runtime.scheduler import SynchronousScheduler
from repro.voronoi.dominating import DominatingRegion, dominating_pieces

__all__ = [
    "DistributedRoundStats",
    "LaacadAgent",
]


class LaacadAgent(NodeAgent):
    """Protocol agent executing LAACAD at a single node."""

    def __init__(
        self,
        node_id: int,
        network: SensorNetwork,
        scheduler: SynchronousScheduler,
        config: LaacadConfig,
    ) -> None:
        super().__init__(node_id, network, scheduler)
        self.config = config
        self.last_region: Optional[DominatingRegion] = None
        self.proposed_target: Optional[Point] = None
        self.displacement: float = 0.0

    # ------------------------------------------------------------------
    def _expanding_ring_positions(self) -> Tuple[List[Point], float, int]:
        """Algorithm 2's information gathering, accounted per message.

        Every query/reply exchange goes through the scheduler's
        counting fast path (:meth:`SynchronousScheduler.record`): the
        accounting and the loss draws are exactly those of sending one
        ``ring_query`` and one ``position_report``, but no ``Message``
        is allocated — nothing ever inspects these payloads (the reply's
        information content is consumed right here, at the delivery
        decision), so a loss-free broadcast round is pure counting.

        Returns the neighbour positions learned this round, the final
        ring radius and the hop depth used.
        """
        gamma = self.network.comm_range
        step = gamma * self.config.ring_granularity
        max_radius = 2.0 * self.network.region.diameter + step
        own = self.node.position

        rho = 0.0
        known_positions: Dict[int, Point] = {}
        while True:
            rho += step
            hops = int(math.ceil(rho / gamma - 1e-9))
            ring_members = self.network.nodes_within(self.node_id, rho)
            for member in ring_members:
                if member in known_positions:
                    continue
                member_node = self.network.node(member)
                if not member_node.alive:
                    continue
                member_hops = max(
                    1, int(math.ceil(distance(own, member_node.position) / gamma - 1e-9))
                )
                # Query reaches the member (flooded), reply comes back.
                self.scheduler.record(member_hops, RING_QUERY_BYTES)
                delivered = self.scheduler.record(member_hops, POSITION_REPORT_BYTES)
                if delivered:
                    known_positions[member] = member_node.position
            if self._circle_dominated(rho / 2.0, list(known_positions.values())):
                break
            if rho >= max_radius:
                break
        hops = int(math.ceil(rho / gamma - 1e-9))
        return list(known_positions.values()), rho, hops

    def _circle_dominated(self, radius: float, neighbor_positions: List[Point]) -> bool:
        """The Algorithm 2 half-radius circle check restricted to the area."""
        own = self.node.position
        k = self.config.k
        samples = self.config.circle_check_samples
        for i in range(samples):
            angle = 2.0 * math.pi * i / samples
            v = (own[0] + radius * math.cos(angle), own[1] + radius * math.sin(angle))
            if not self.network.region.contains(v):
                continue
            own_distance = distance(own, v)
            closer = 0
            for pos in neighbor_positions:
                if distance(pos, v) < own_distance - 1e-12:
                    closer += 1
                    if closer >= k:
                        break
            if closer < k:
                return False
        return True

    # ------------------------------------------------------------------
    def step(self, round_index: int) -> None:
        """One protocol round: gather, compute, propose a move."""
        if not self.alive:
            self.last_region = None
            self.proposed_target = None
            self.displacement = 0.0
            return
        positions, rho, _ = self._expanding_ring_positions()
        pieces = dominating_pieces(
            self.node.position, positions, self.network.region.convex_pieces(), self.config.k
        )
        region = DominatingRegion(
            site=self.node.position,
            k=self.config.k,
            pieces=pieces,
            competitors_used=len(positions),
            search_radius=rho,
        )
        self.last_region = region
        center, _ = region.chebyshev_center()
        self.displacement = distance(self.node.position, center)
        if self.displacement > self.config.epsilon:
            alpha = self.config.alpha
            self.proposed_target = (
                self.node.position[0] + alpha * (center[0] - self.node.position[0]),
                self.node.position[1] + alpha * (center[1] - self.node.position[1]),
            )
        else:
            self.proposed_target = None

