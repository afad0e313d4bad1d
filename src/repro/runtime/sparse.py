"""Sparse distributed backend: grid-fed rings, cross-node clipping.

:class:`~repro.runtime.engines.BatchedDistributedEngine` removed the
per-message Python of the legacy agents but kept two scalability walls:
the dense N×N distance matrices and a Python loop that walks every
node's expanding-ring schedule (and budgeted clipping sweep) one node
at a time.  This backend removes both:

* candidates come from :class:`~repro.network.neighbors.SpatialGrid`
  batch queries — the grid is built with the same cell size the scan
  order contract uses, so a bucket walk enumerates ring members in
  exactly the legacy scan order;
* with a **loss-free channel** the gather runs *level-synchronously*:
  all still-searching nodes share the same ring radius schedule, so one
  array pass per ring level accounts every node's new exchanges (bulk
  :meth:`~repro.runtime.scheduler.SynchronousScheduler.record_many` —
  loss-free accounting is a sum, so bulk order cannot change it) and
  one vectorised Algorithm-2 circle check retires all dominated nodes
  at once.  No RNG is consumed on a loss-free channel, so draw order
  is trivially preserved;
* with a **lossy channel** the loss draws must be consumed node by
  node in the legacy order, so each node still runs the per-node,
  draw-exact ring walk of the batched backend (the shared
  ``_expanding_rings``) — the RNG draw-order contract of
  ``repro.runtime.engines`` holds bit for bit.  What the walk reads
  but no draw decides is batched per chunk of nodes: one grid fetch of
  every node's candidates (filtered, with distances and hop counts, as
  CSR slices) and one free-area containment pass over the circle
  samples of the first ring levels.  Only a walk that outgrows the
  fetched horizon queries the grid on its own;
* the per-node budgeted clipping sweeps are replaced by one
  :func:`~repro.engine.sparse_kernels.clip_cells_batch` call over all
  nodes, and the per-round summary (Chebyshev centers, displacements,
  move proposals) by :func:`~repro.engine.sparse_kernels.mec_batch`.

Numerical contract: **tolerance, not bitwise** (DESIGN.md "Sparse
engine tier") — positions/ranges/areas within 1e-9 of the batched
backend, identical convergence behaviour on the reference scenarios.
The gather decisions themselves (ring membership, hop counts, circle
checks, loss draws) reuse the exact arithmetic of the batched backend,
so the tolerance enters only through the fused clipping and the MEC.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.engine.jit_kernels import closer_counts, segment_ids
from repro.engine.pieces import LazyRegions, materialize_pieces
from repro.engine.sparse_kernels import clip_cells_batch, mec_batch
from repro.network.neighbors import SpatialGrid
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.runtime.engines import (
    BatchedDistributedEngine,
    DistributedEngineRound,
    register_distributed_engine,
    summarize_protocol_round,
)
from repro.voronoi.dominating import DominatingRegion

__all__ = ["SparseDistributedEngine"]

#: Same process-wide counter as the centralized engine's candidates
#: stage — get-or-create on the shared registry returns one object.
_GRID_CANDIDATES = _metrics.counter(
    "repro_grid_candidates_total",
    "Candidate neighbors returned by spatial-grid radius queries",
)

#: Alive rows per lossy gather chunk: bounds the chunk's candidate CSR
#: and its containment sample panel at any N.  In single N=2000
#: deployments 64 rows peaked about 4 MiB of RSS below 256 rows, at
#: the same speed.
_GATHER_CHUNK = 64

#: Ring levels whose circle-sample containment the lossy gather
#: computes per chunk.  At the density range (ring step γ, about 12
#: nodes per γ-disk; N=2000, k=2) over 99.5% of walks stop by level 2;
#: the rare longer walk computes its later levels itself.
_CONTAINMENT_LEVELS = 2


def _extend_schedule(rhos: List[float], thresholds: List[float], upto: int, step: float) -> None:
    """Grow the shared ring-radius schedule to ``upto`` levels.

    Radii are accumulated by repeated addition (``rho += step``) so the
    floats match the legacy per-node loop bit for bit; the thresholds
    are the grid inclusion test ``rho^2 + 1e-15``.
    """
    while len(rhos) < upto:
        rho = (rhos[-1] if rhos else 0.0) + step
        rhos.append(rho)
        thresholds.append(rho * rho + 1e-15)


@register_distributed_engine
class SparseDistributedEngine(BatchedDistributedEngine):
    """Grid-bucketed, level-synchronous protocol rounds."""

    name = "sparse"

    # ------------------------------------------------------------------
    def run_round(self, round_index: int) -> DistributedEngineRound:
        network = self.network
        config = self.config
        area = network.region
        area_pieces = area.convex_pieces()
        gamma = network.comm_range
        step = gamma * config.ring_granularity
        max_radius = 2.0 * area.diameter + step

        positions = np.asarray(network.positions(), dtype=float)
        alive = network.alive_mask()
        alive_rows = np.nonzero(alive)[0].astype(np.int64)
        if alive_rows.size == 0:
            self.last_regions = {}
            self.last_round = summarize_protocol_round(network, config, {})
            return self.last_round

        # Same cell size as the scan-order contract: bucket-walk order
        # IS the legacy ring-member visiting order.
        grid = SpatialGrid(positions, cell_size=max(gamma, 1e-6))
        if self.scheduler.drop_probability > 0.0:
            gathered = self._gather_lossy(
                grid, positions, alive, step, max_radius, gamma
            )
        else:
            gathered = self._gather_lossfree(
                grid, positions, alive, step, max_radius, gamma
            )
        known_ids, known_indptr, rho_final = gathered
        round_summary = self._clip_and_summarize(
            positions, alive_rows, known_ids, known_indptr, rho_final, area_pieces
        )
        self.last_regions = round_summary.regions
        self.last_round = round_summary
        return round_summary

    # ------------------------------------------------------------------
    # Loss-free gather: level-synchronous over all nodes
    # ------------------------------------------------------------------
    def _gather_lossfree(
        self,
        grid: SpatialGrid,
        positions: np.ndarray,
        alive: np.ndarray,
        step: float,
        max_radius: float,
        gamma: float,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All nodes' expanding rings, one ring level at a time.

        Loss-free delivery means every ring member is attempted exactly
        once — at the first level whose radius reaches it — and always
        answers, so per level the new exchanges of *all* still-active
        nodes can be accounted with one bulk ``record_many`` (the
        counters are order-independent sums) and the known sets grow by
        exactly the level's ring members.  No loss draws exist, so no
        RNG ordering constraint applies.
        """
        scheduler = self.scheduler
        sizes = self._exchange_sizes
        count = positions.shape[0]
        px = np.ascontiguousarray(positions[:, 0])
        py = np.ascontiguousarray(positions[:, 1])
        alive_rows = np.nonzero(alive)[0].astype(np.int64)
        n_alive = alive_rows.shape[0]
        active = np.ones(n_alive, dtype=bool)
        rho_final = np.zeros(n_alive)
        rhos: List[float] = []
        thresholds: List[float] = []

        # Delivered pairs, appended level by level (owner-grouped, scan
        # order within a level — the legacy delivery order).
        acc_owner: List[np.ndarray] = []
        acc_cand: List[np.ndarray] = []
        # Flat known positions for the vectorised circle checks.
        known_owner = np.zeros(0, dtype=np.int64)
        known_x = np.zeros(0)
        known_y = np.zeros(0)
        # Candidate pairs of the current fetch horizon.
        pair_owner = np.zeros(0, dtype=np.int64)
        pair_cand = np.zeros(0, dtype=np.int64)
        pair_ring = np.zeros(0, dtype=np.int64)
        pair_hops = np.zeros(0, dtype=np.int64)

        fetched_levels = 0
        level = 0
        while active.any():
            level += 1
            _extend_schedule(rhos, thresholds, level, step)
            rho = rhos[level - 1]
            if level > fetched_levels:
                # Fetch the next horizon block (doubling span) for the
                # still-active owners.  All pairs of earlier rings have
                # been processed, so the old pair state is obsolete.
                with _trace.span("gather"):
                    span = max(2, fetched_levels)
                    new_fetched = level + span - 1
                    _extend_schedule(rhos, thresholds, new_fetched, step)
                    radius = rhos[new_fetched - 1]
                    rows_active = np.nonzero(active)[0]
                    owners_nodes = alive_rows[rows_active]
                    cand, indptr = grid.query_radius_many(
                        positions[owners_nodes], radius
                    )
                    _GRID_CANDIDATES.inc(int(cand.shape[0]))
                    ow_row = rows_active[
                        segment_ids(np.diff(indptr), cand.shape[0])
                    ]
                    ow_node = alive_rows[ow_row]
                    keep = alive[cand] & (cand != ow_node)
                    cand = cand[keep]
                    ow_row = ow_row[keep]
                    ow_node = ow_node[keep]
                    dx = px[cand] - px[ow_node]
                    dy = py[cand] - py[ow_node]
                    dist_sq = dx * dx + dy * dy
                    hops = np.maximum(
                        1, np.ceil(np.hypot(dx, dy) / gamma - 1e-9)
                    ).astype(np.int64)
                    # Ring index: first level whose inclusion threshold
                    # admits the pair (identical float schedule as the
                    # scalar rho accumulation).
                    ring = (
                        np.searchsorted(
                            np.asarray(thresholds[:new_fetched]),
                            dist_sq,
                            side="left",
                        )
                        + 1
                    )
                    fresh = ring >= level
                    order = np.lexsort((ring[fresh], ow_row[fresh]))
                    pair_owner = ow_row[fresh][order]
                    pair_cand = cand[fresh][order]
                    pair_ring = ring[fresh][order]
                    pair_hops = hops[fresh][order]
                    fetched_levels = new_fetched

            mask = (pair_ring == level) & active[pair_owner]
            if mask.any():
                with _trace.span("gather"):
                    level_hops = pair_hops[mask]
                    scheduler.record_many(
                        np.repeat(level_hops, 2),
                        np.tile(sizes, level_hops.shape[0]),
                    )
                    lvl_owner = pair_owner[mask]
                    lvl_cand = pair_cand[mask]
                    acc_owner.append(lvl_owner)
                    acc_cand.append(lvl_cand)
                    known_owner = np.concatenate((known_owner, lvl_owner))
                    known_x = np.concatenate((known_x, px[lvl_cand]))
                    known_y = np.concatenate((known_y, py[lvl_cand]))

            # Algorithm-2 stop checks for every active node at once.
            with _trace.span("circle_check"):
                rows_active = np.nonzero(active)[0]
                sel = active[known_owner]
                ko = known_owner[sel]
                by_owner = np.argsort(ko, kind="stable")
                ko = ko[by_owner]
                row_local = np.full(n_alive, -1, dtype=np.int64)
                row_local[rows_active] = np.arange(rows_active.shape[0])
                local = row_local[ko]
                counts_local = np.bincount(local, minlength=rows_active.shape[0])
                kptr = np.concatenate(([0], np.cumsum(counts_local))).astype(
                    np.int64
                )
                dominated = self._circle_dominated_many(
                    px[alive_rows[rows_active]],
                    py[alive_rows[rows_active]],
                    rho / 2.0,
                    known_x[sel][by_owner],
                    known_y[sel][by_owner],
                    kptr,
                )
                stopping = dominated | (rho >= max_radius)
                stop_rows = rows_active[stopping]
                rho_final[stop_rows] = rho
                active[stop_rows] = False

        # Assemble per-node known lists in delivery order.
        if acc_owner:
            all_owner = np.concatenate(acc_owner)
            all_cand = np.concatenate(acc_cand)
            seq = np.concatenate(
                [
                    np.full(chunk.shape[0], i, dtype=np.int64)
                    for i, chunk in enumerate(acc_owner)
                ]
            )
            order = np.lexsort((seq, all_owner))
            known_counts = np.bincount(all_owner, minlength=n_alive)
            known_ids = all_cand[order]
        else:
            known_counts = np.zeros(n_alive, dtype=np.int64)
            known_ids = np.zeros(0, dtype=np.int64)
        known_indptr = np.concatenate(([0], np.cumsum(known_counts))).astype(np.int64)
        return known_ids, known_indptr, rho_final

    def _circle_dominated_many(
        self,
        sx: np.ndarray,
        sy: np.ndarray,
        radius: float,
        kx: np.ndarray,
        ky: np.ndarray,
        kptr: np.ndarray,
    ) -> np.ndarray:
        """Vectorised half-radius domination check for many nodes.

        Per node: every free-area sample point on the half-radius circle
        must see at least ``k`` known neighbours strictly closer than
        the node itself.  Decisions mirror the scalar
        ``_circle_dominated`` with one tolerance-contract deviation:
        "closer" is decided on squared distances (``d² < t²`` instead
        of ``hypot(d) < t``), which can differ only when a neighbour
        sits within an ulp of the 1e-12 comparison margin.

        The decision per node is ``all over samples of (count >= k or
        sample outside the free area)`` — a node with *no* inside
        sample is vacuously dominated, so the formula subsumes the
        scalar early-out.  Containment is therefore only evaluated at
        the samples whose closer-count falls short of ``k`` (the only
        places it can influence the verdict), which is typically a tiny
        fraction of the sample set.  The counting itself — candidate
        gather, squared distances, and the two-stage cap-then-remainder
        schedule (a subset count already >= k can only grow, so only
        rows with a still-short sample pay for the knowns beyond the
        first ``max(8, 4k)``) — is the fused
        :func:`repro.engine.jit_kernels.closer_counts` kernel, whose
        totals are decision-identical to a one-shot count.
        """
        a = sx.shape[0]
        n_samples = self._circle_cos.shape[0]
        sample_x = sx[:, None] + radius * self._circle_cos[None, :]
        sample_y = sy[:, None] + radius * self._circle_sin[None, :]
        counts = np.diff(kptr)
        k = self.config.k

        def blocked(row_sel: np.ndarray, col_sel: np.ndarray) -> np.ndarray:
            """Rows (of ``row_sel``) with a blocking sample among ``col_sel``.

            Evaluates exactly the per-(row, sample) decision of the
            one-shot check — counting kernel, then containment at the
            short samples only — restricted to the given panel slice.
            """
            n_rows = row_sel.shape[0]
            n_cols = col_sel.shape[0]
            counted = np.zeros((n_rows, n_cols), dtype=np.int64)
            # Rows with fewer than ``k`` knowns are counted-out a
            # priori: no sample can reach ``k`` closer neighbours, so
            # every sample is short regardless of the actual counts and
            # the verdict is decided by containment alone — the kernel
            # would change nothing about the decision.
            kern = np.nonzero(counts[row_sel] >= k)[0]
            if kern.size:
                krows = row_sel[kern]
                sample_x_r = np.ascontiguousarray(
                    sample_x[np.ix_(krows, col_sel)]
                )
                sample_y_r = np.ascontiguousarray(
                    sample_y[np.ix_(krows, col_sel)]
                )
                threshold = np.hypot(
                    sx[krows, None] - sample_x_r, sy[krows, None] - sample_y_r
                )
                threshold -= 1e-12
                np.maximum(threshold, 0.0, out=threshold)
                threshold_sq = threshold * threshold
                # Stage-1 budget for the two-stage counting kernel.
                # Any value is decision-equivalent (a prefix count
                # already at ``k`` only grows when more knowns are
                # folded in); 8*k is the measured sweet spot between
                # stage-1 panel traffic and stage-2 fallback rows.
                cap = max(16, 8 * k)
                counted[kern] = closer_counts(
                    kx,
                    ky,
                    kptr[krows],
                    counts[krows],
                    sample_x_r,
                    sample_y_r,
                    threshold_sq,
                    cap,
                    k,
                )
            short = counted < k
            srow, scol = np.nonzero(short)
            if not srow.size:
                return np.zeros(n_rows, dtype=bool)
            inside = self._containment.contains(
                sample_x[row_sel[srow], col_sel[scol]],
                sample_y[row_sel[srow], col_sel[scol]],
            )
            return np.bincount(srow[inside], minlength=n_rows) > 0

        # Two-phase evaluation: a strided sixth of the samples spans
        # the whole circle, so any blocking arc wider than one stride
        # shows up in the first (cheap) panel and finalises its row as
        # not-dominated without ever paying for the other five sixths.
        # The survivors — at late gather levels, nearly everyone — then
        # pay exactly the remaining samples, so the split never costs
        # more than one extra kernel dispatch.  Decisions are the
        # one-shot ones: the phases partition the sample set and each
        # (row, sample) verdict is computed with the same arithmetic.
        all_rows = np.arange(a, dtype=np.int64)
        phase_a = np.arange(0, n_samples, 6, dtype=np.int64)
        phase_b = np.setdiff1d(np.arange(n_samples, dtype=np.int64), phase_a)
        block_a = blocked(all_rows, phase_a)
        survivors = np.nonzero(~block_a)[0]
        dominated = np.zeros(a, dtype=bool)
        if survivors.size:
            dominated[survivors] = ~blocked(survivors, phase_b)
        return dominated

    # ------------------------------------------------------------------
    # Lossy gather: per-node, RNG draw-exact
    # ------------------------------------------------------------------
    def _gather_lossy(
        self,
        grid: SpatialGrid,
        positions: np.ndarray,
        alive: np.ndarray,
        step: float,
        max_radius: float,
        gamma: float,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-node expanding rings over batch-fetched candidates.

        Dropped replies are retried ring after ring, so the RNG must be
        consumed node by node in the legacy order — the shared
        ``_expanding_rings`` walk does exactly that, one node at a time.
        Everything the walk reads that does not depend on a loss draw
        is computed in batch instead, per chunk of ``_GATHER_CHUNK``
        alive rows in ascending order:

        * the candidates within the initial horizon (``4 * step``), by
          one ``query_radius_many`` whose per-center lists are the
          per-node ``query_radius`` lists, scan order included; the
          alive/self filter, squared distances and hop counts are one
          array pass over the chunk, handed to each walk as CSR slices;
        * the free-area containment of the circle samples of the first
          ``_CONTAINMENT_LEVELS`` ring levels, by one containment call
          (elementwise the per-node kernel, on the same sample floats).

        The walk itself — ring order, two draws per attempt, the
        closer-than-me count — is unchanged.  A walk that outgrows the
        initial horizon re-fetches its own candidates with a per-node
        ``query_radius`` (the ``extend`` fallback), and a level past the
        precomputed ones computes its containment in the walk.  Chunking
        bounds the candidate arrays and the sample panel at any N.
        """
        count = positions.shape[0]
        px = positions[:, 0]
        py = positions[:, 1]
        network = self.network
        alive_rows = np.nonzero(alive)[0].astype(np.int64)
        n_alive = alive_rows.shape[0]
        known_parts: List[np.ndarray] = []
        known_counts = np.zeros(n_alive, dtype=np.int64)
        rho_final = np.zeros(n_alive)
        initial_horizon = step * 4.0
        # Half radii of the precomputed levels, on the walk's own
        # ``rho += step`` schedule.
        rhos: List[float] = []
        _extend_schedule(rhos, [], _CONTAINMENT_LEVELS, step)
        half_radii = np.asarray(rhos) / 2.0

        def pairs(cand, owner_node):
            """Alive non-self pairs: kept mask, ids, squared distances, hops."""
            keep = alive[cand] & (cand != owner_node)
            cand = cand[keep]
            owner_node = owner_node[keep]
            dx = px[cand] - px[owner_node]
            dy = py[cand] - py[owner_node]
            hops = np.maximum(
                1, np.ceil(np.hypot(dx, dy) / gamma - 1e-9)
            ).astype(np.int64)
            return keep, cand, dx * dx + dy * dy, hops

        for first in range(0, n_alive, _GATHER_CHUNK):
            nodes = alive_rows[first : first + _GATHER_CHUNK]
            with _trace.span("gather"):
                cand, indptr = grid.query_radius_many(
                    positions[nodes], initial_horizon
                )
                _GRID_CANDIDATES.inc(int(cand.shape[0]))
                owner = segment_ids(np.diff(indptr), cand.shape[0])
                keep, cand, cand_dist_sq, cand_hops = pairs(cand, nodes[owner])
                owner = owner[keep]
                cand_positions = positions[cand]
                ptr = np.zeros(nodes.shape[0] + 1, dtype=np.int64)
                np.cumsum(np.bincount(owner, minlength=nodes.shape[0]), out=ptr[1:])
            with _trace.span("circle_check"):
                inside = self._circle_containment(px[nodes], py[nodes], half_radii)
            with _trace.span("gather"):
                bounds = ptr.tolist()
                for local, node_index in enumerate(nodes.tolist()):
                    lo = bounds[local]
                    hi = bounds[local + 1]
                    site = network.nodes[node_index].position
                    state = {"horizon": initial_horizon, "ids": cand[lo:hi]}

                    def extend(rho, _state=state, _site=site, _node=node_index):
                        if rho <= _state["horizon"]:
                            return None
                        _state["horizon"] = max(_state["horizon"] * 2.0, rho)
                        found = np.asarray(
                            grid.query_radius(_site, _state["horizon"]),
                            dtype=np.int64,
                        )
                        _, new_ids, new_dist_sq, new_hops = pairs(
                            found, np.full_like(found, _node)
                        )
                        new_pos = positions[new_ids]
                        position_of = np.full(count, -1, dtype=np.int64)
                        position_of[new_ids] = np.arange(new_ids.shape[0])
                        remap = position_of[_state["ids"]]
                        _state["ids"] = new_ids
                        return new_pos, new_dist_sq, new_hops, remap

                    known_order, rho = self._expanding_rings(
                        site,
                        cand_positions[lo:hi],
                        cand_dist_sq[lo:hi],
                        cand_hops[lo:hi],
                        step,
                        max_radius,
                        extend=extend,
                        circle_inside=inside[local],
                    )
                    delivered = (
                        state["ids"][known_order]
                        if known_order
                        else np.zeros(0, dtype=np.int64)
                    )
                    known_parts.append(delivered)
                    row = first + local
                    known_counts[row] = delivered.shape[0]
                    rho_final[row] = rho
        known_ids = (
            np.concatenate(known_parts) if known_parts else np.zeros(0, dtype=np.int64)
        )
        known_indptr = np.concatenate(([0], np.cumsum(known_counts))).astype(np.int64)
        return known_ids, known_indptr, rho_final

    def _circle_containment(
        self, sx: np.ndarray, sy: np.ndarray, radii: np.ndarray
    ) -> np.ndarray:
        """Free-area containment of many nodes' circle samples at many radii.

        Returns a ``(nodes, radii, samples)`` boolean array whose
        ``[i, l]`` row is the mask ``_circle_dominated`` computes for
        node ``i`` at half-radius ``radii[l]``: the same sample floats
        (``site + radius * (cos, sin)``, same operand order) through the
        same elementwise containment kernel, in one call.
        """
        sample_x = sx[:, None, None] + (radii[:, None] * self._circle_cos)[None]
        sample_y = sy[:, None, None] + (radii[:, None] * self._circle_sin)[None]
        inside = self._containment.contains(sample_x.ravel(), sample_y.ravel())
        return inside.reshape(sample_x.shape)

    # ------------------------------------------------------------------
    # Shared compute phase: cross-node clip + vectorised summary
    # ------------------------------------------------------------------
    def _clip_and_summarize(
        self,
        positions: np.ndarray,
        alive_rows: np.ndarray,
        known_ids: np.ndarray,
        known_indptr: np.ndarray,
        rho_final: np.ndarray,
        area_pieces,
    ) -> DistributedEngineRound:
        network = self.network
        config = self.config
        k = config.k
        n_alive = alive_rows.shape[0]
        px = positions[:, 0]
        py = positions[:, 1]
        sx = px[alive_rows]
        sy = py[alive_rows]
        with _trace.span("clip"):
            owner = segment_ids(np.diff(known_indptr), known_ids.shape[0])
            dx = px[known_ids] - sx[owner]
            dy = py[known_ids] - sy[owner]
            dist_sq = dx * dx + dy * dy
            # The sweep's competitor order: nearest first, stable on ties
            # (base order = delivery order, as in the scalar sweep).
            order = np.lexsort((dist_sq, owner))
            comp_ids = known_ids[order]
            vx, vy, piece_indptr, piece_owner = clip_cells_batch(
                np.column_stack((sx, sy)),
                px[comp_ids],
                py[comp_ids],
                known_indptr,
                area_pieces,
                k,
            )

        # Region polygons (read by the deployer's result() and the
        # compat agent surface) are materialised lazily on first access.
        known_count = np.diff(known_indptr)

        def build_regions() -> Dict[int, DominatingRegion]:
            pieces_per_row = materialize_pieces(
                vx, vy, piece_indptr, piece_owner, n_alive
            )
            built: Dict[int, DominatingRegion] = {}
            for row in range(n_alive):
                node_id = int(alive_rows[row])
                built[node_id] = DominatingRegion(
                    site=network.nodes[node_id].position,
                    k=k,
                    pieces=pieces_per_row[row],
                    competitors_used=int(known_count[row]),
                    search_radius=float(rho_final[row]),
                )
            return built

        regions: Dict[int, DominatingRegion] = LazyRegions(build_regions)

        # Vectorised summary: Chebyshev centers via mec_batch, ranges
        # and displacements via ragged reductions, move proposals with
        # the agent's exact update grouping.
        with _trace.span("summary"):
            vert_owner = piece_owner[
                segment_ids(np.diff(piece_indptr), vx.shape[0])
            ]
            owner_vert_counts = np.bincount(vert_owner, minlength=n_alive)
            vert_indptr = np.concatenate(
                ([0], np.cumsum(owner_vert_counts))
            ).astype(np.int64)
            cx, cy, radius = mec_batch(vx, vy, vert_indptr)
            empty = owner_vert_counts == 0
            cx = np.where(empty, sx, cx)
            cy = np.where(empty, sy, cy)
            radius = np.where(empty, 0.0, radius)
            ranges = np.zeros(n_alive)
            if vx.size:
                vert_dist = np.hypot(vx - sx[vert_owner], vy - sy[vert_owner])
                group_starts = np.nonzero(
                    np.concatenate(([True], vert_owner[1:] != vert_owner[:-1]))
                )[0]
                ranges[vert_owner[group_starts]] = np.maximum.reduceat(
                    vert_dist, group_starts
                )
            displacements = np.hypot(sx - cx, sy - cy)
            ids = alive_rows.tolist()
            centers: Dict[int, Tuple[float, float]] = dict(
                zip(ids, zip(cx.tolist(), cy.tolist()))
            )
            alpha = config.alpha
            move_rows = np.nonzero(displacements > config.epsilon)[0]
            # Same expression grouping as the scalar agent update:
            # pos + alpha * (center - pos), evaluated per coordinate.
            tx = sx[move_rows] + alpha * (cx[move_rows] - sx[move_rows])
            ty = sy[move_rows] + alpha * (cy[move_rows] - sy[move_rows])
            proposed: Dict[int, Tuple[float, float]] = dict(
                zip(
                    alive_rows[move_rows].tolist(),
                    zip(tx.tolist(), ty.tolist()),
                )
            )
        return DistributedEngineRound(
            regions=regions,
            centers=centers,
            circumradii=radius.tolist(),
            ranges_from_position=ranges.tolist(),
            displacements=displacements.tolist(),
            proposed_targets=proposed,
        )
