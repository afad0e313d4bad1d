"""The array-native batched round engine.

Where the legacy backend recomputes distances, competitor orders and
half-plane values node by node in scalar Python, this engine:

* snapshots the network once per round into a :class:`NodeArrayState`,
* computes one shared pairwise distance matrix (and its row-wise sorted
  form) for every alive node at once,
* selects each node's Lemma-1 competitor candidates by boolean masking
  that matrix instead of re-measuring distances per pre-filter pass, and
* runs the budgeted clipping sweep through the array kernels in
  :mod:`repro.engine.kernels`, which evaluate all remaining competitors
  against all live piece vertices in single vectorized operations.

The results are bitwise identical to the legacy backend (see the
numerical contract in ``kernels.py``); the equivalence suite in
``tests/test_engine_equivalence.py`` enforces it.
"""

from __future__ import annotations

import math
from typing import Dict, List

import numpy as np

from repro.engine.arrays import NodeArrayState
from repro.engine.base import RoundEngine, register_engine
from repro.engine.kernels import (
    ClippingSweep,
    dominating_pieces_batch,
    pairwise_distance_matrix,
    select_competitors,
)
from repro.geometry.primitives import EPS
from repro.voronoi.dominating import DominatingRegion, initial_prefilter_radius

#: Above this many alive nodes the distance matrix is built in row blocks.
_DISTANCE_CHUNK_THRESHOLD = 2048


@register_engine
class BatchedRoundEngine(RoundEngine):
    """Vectorized whole-network round computation."""

    name = "batched"

    def compute_regions(self) -> Dict[int, DominatingRegion]:
        network = self.network
        config = self.config
        k = config.k
        region = network.region
        area_pieces = region.convex_pieces()
        diameter = region.diameter

        state = NodeArrayState.from_network(network)
        alive_ids = state.alive_node_ids()
        positions = state.alive_positions()
        count = positions.shape[0]

        chunk = _DISTANCE_CHUNK_THRESHOLD if count > _DISTANCE_CHUNK_THRESHOLD else None
        dist = pairwise_distance_matrix(positions, chunk_size=chunk)
        if count > 1 and config.prefilter:
            # Distance to the k-th nearest *other* node per row: index
            # ``min(k, count - 1)`` of the row including the self-zero.
            kth = min(k, count - 1)
            kth_distances = np.partition(dist, kth, axis=1)[:, kth]
        else:
            kth_distances = None

        regions: Dict[int, DominatingRegion] = {}
        alive_nodes = network.alive_nodes()
        for row, node in enumerate(alive_nodes):
            site = node.position
            if count <= 1 or not config.prefilter:
                competitors = np.delete(positions, row, axis=0)
                pieces = dominating_pieces_batch(site, competitors, area_pieces, k)
                regions[int(alive_ids[row])] = DominatingRegion(
                    site=site,
                    k=k,
                    pieces=pieces,
                    competitors_used=count - 1,
                    search_radius=math.inf,
                )
                continue
            regions[int(alive_ids[row])] = self._prefiltered_region(
                site,
                positions,
                dist[row],
                float(kth_distances[row]),
                row,
                area_pieces,
                diameter,
                k,
            )
        return regions

    def _prefiltered_region(
        self,
        site,
        positions: np.ndarray,
        dist_row: np.ndarray,
        kth_distance: float,
        self_index: int,
        area_pieces: List,
        diameter: float,
        k: int,
    ) -> DominatingRegion:
        """Expanding-radius Lemma-1 pre-filter over the shared matrix.

        Walks the exact radius schedule of the scalar
        ``compute_dominating_region`` — initial radius from
        :func:`initial_prefilter_radius`, doubling until the resulting
        region fits in the half-radius disk — but selects candidates by
        masking the precomputed distance row and, crucially, folds each
        widened ring *incrementally* into one :class:`ClippingSweep`:
        every expansion only processes the newly admitted competitors
        (all farther than everything already folded), instead of
        re-clipping the whole region from scratch.  The sweep's cached
        ``site_radius`` doubles as the termination measurement.
        """
        eps = EPS
        rho = float(initial_prefilter_radius((kth_distance,), k, diameter, eps))
        max_needed = diameter * 2.0 + 1.0
        sweep = ClippingSweep(site, area_pieces, k, eps)
        previous_mask = None
        while True:
            if previous_mask is None:
                new_indices = select_competitors(dist_row, self_index, rho)
                selected = new_indices.shape[0]
                previous_mask = np.zeros(dist_row.shape[0], dtype=bool)
                previous_mask[new_indices] = True
            else:
                mask = dist_row < rho
                mask[self_index] = False
                new_indices = np.nonzero(mask & ~previous_mask)[0]
                selected = int(mask.sum())
                previous_mask = mask
            if new_indices.size:
                sweep.extend(positions[new_indices])
            if sweep.site_radius() <= rho / 2.0 + eps or rho >= max_needed:
                return DominatingRegion(
                    site=site,
                    k=k,
                    pieces=sweep.pieces(),
                    competitors_used=selected,
                    search_radius=rho,
                )
            rho *= 2.0
