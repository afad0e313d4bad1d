"""The original per-node round computation behind the engine protocol.

Every alive node independently runs the exact global computation (with
the Lemma-1 pre-filter) in scalar Python.  It is kept as the reference
backend: the equivalence suite asserts the batched engine reproduces
its results bitwise.
"""

from __future__ import annotations

from typing import Dict

from repro.engine.base import RoundEngine, register_engine
from repro.voronoi.dominating import DominatingRegion, compute_dominating_region


@register_engine
class LegacyRoundEngine(RoundEngine):
    """Scalar per-node reference backend."""

    name = "legacy"

    def compute_regions(self) -> Dict[int, DominatingRegion]:
        regions: Dict[int, DominatingRegion] = {}
        network = self.network
        config = self.config
        alive = network.alive_nodes()
        positions = {n.node_id: n.position for n in alive}
        for node in alive:
            others = [p for j, p in positions.items() if j != node.node_id]
            regions[node.node_id] = compute_dominating_region(
                node.position,
                others,
                network.region,
                config.k,
                prefilter=config.prefilter,
            )
        return regions
