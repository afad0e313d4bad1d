"""The sparse (grid-bucketed) round engine: no N×N anything.

The batched engine's one remaining scalability wall is the dense
pairwise distance matrix (O(N²) time *and* memory) plus its per-node
Python sweep loop.  The LAACAD protocol is strictly local — Lemma 1
bounds every node's relevant competitors to an expanding disk — so this
engine replaces both:

* candidate competitors come from :class:`~repro.network.neighbors
  .SpatialGrid` bucket queries (:meth:`query_radius_many`, CSR output),
  never from a dense matrix; the first query doubles as the
  ``k``-th-nearest pre-pass (the same sorted candidate panel yields
  both the Lemma-1 start radius and the first competitor sets, so no
  separate expanding-radius kth sweep runs);
* the Lemma-1 expanding-radius loop runs *level-synchronously*: all
  nodes still searching at radius ``rho`` are re-clipped together by
  one :func:`~repro.engine.sparse_kernels.clip_cells_batch` call, and
  nodes whose region fits inside the half-radius disk retire from the
  loop;
* finished pieces are emitted straight into flat CSR arrays
  (:class:`~repro.engine.pieces.PieceAccumulator`) and the Python
  polygon lists are materialised **lazily, once** on first region read
  (:class:`~repro.engine.pieces.LazyRegions`) — there is no per-node
  Python bookkeeping anywhere in the loop;
* the per-round summary (Chebyshev centers, circumradii, displacements)
  is computed by :func:`~repro.engine.sparse_kernels.mec_batch` over
  flat vertex arrays instead of one scalar Welzl call per node;
* rounds are **incremental**: the engine keeps the previous round's
  positions, piece CSR, ``used``/``rho`` and summaries, and only the
  *dirty* rows — nodes that moved, or whose stored ``rho`` disk holds a
  mover's old or new position — re-enter the Lemma-1 loop and
  ``mec_batch``; their output is spliced into the clean rows' stored
  pieces in owner order.  A clean row's output depends only on its own
  position and the sites inside its ``rho`` disk, none of which
  changed, so the spliced round is **bitwise** the round a fresh engine
  computes.  The first round, any change of alive set, area or config,
  ``prefilter=False``, ``use_localized`` and ``count <= 1`` recompute
  everything; a call with nothing moved (``result()`` then ``step()``)
  reuses the stored round outright.  DESIGN.md "Incremental rounds"
  has the argument.

Every stage (dirty / query / candidates / kth / clip / finish / emit /
summary) runs under a trace span of that name, so a traced run
(``REPRO_TRACE`` / ``--trace-out``) is the stage profile.

Numerical contract: **tolerance, not bitwise** (see DESIGN.md "Sparse
engine tier").  Results agree with the batched engine to well within
1e-9 on positions, ranges and areas, and the convergence behaviour
(round counts) is identical on the reference scenarios, but individual
floats may differ in the last bits because clipping is fused across
nodes and centers come from a different (equally minimal) enclosing
circle search.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import LaacadConfig
from repro.engine.arrays import NodeArrayState
from repro.engine.base import EngineRound, register_engine, summarize_regions
from repro.engine.batch import BatchedRoundEngine
from repro.engine.jit_kernels import ragged_indices, segment_ids
from repro.engine.kernels import chunk_budget_bytes
from repro.engine.pieces import (
    EmittedPieces,
    LazyRegions,
    PieceAccumulator,
    materialize_pieces,
    splice_pieces,
)
from repro.engine.sparse_kernels import clip_cells_batch, mec_batch
from repro.geometry.primitives import EPS
from repro.network.neighbors import SpatialGrid
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.voronoi.dominating import DominatingRegion

#: Candidate volume actually fetched from the spatial grid, summed per
#: query wave — the series that shows when a workload's density pushes
#: the expanding-radius search toward quadratic candidate counts.
_GRID_CANDIDATES = _metrics.counter(
    "repro_grid_candidates_total",
    "Candidate neighbors returned by spatial-grid radius queries",
)
#: Incremental-round health: region rows recomputed vs. carried over
#: from the previous round.  Their ratio is the share of the network a
#: round actually paid for.
_ROWS_RECOMPUTED = _metrics.counter(
    "repro_engine_rows_recomputed_total",
    "Dominating-region rows the centralized sparse engine recomputed",
)
_ROWS_REUSED = _metrics.counter(
    "repro_engine_rows_reused_total",
    "Dominating-region rows carried over unchanged from the previous round",
)


def _nearest_first(px, py, centers, cand, owners):
    """``cand`` and its distances, nearest-first within each owner.

    ``owners[i]`` indexes ``centers`` and is ascending, so it is its own
    sorted image; ties keep the grid's order (the sweep's competitor
    order).  A function so the sort's temporaries die on return.
    """
    dx = px[cand] - px[centers][owners]
    dy = py[cand] - py[centers][owners]
    order = np.lexsort((dx * dx + dy * dy, owners))
    return cand[order], np.hypot(dx, dy)[order]


@dataclasses.dataclass
class _RoundState:
    """What one global round leaves behind for the next.

    Rows are alive nodes in node order.  ``incremental`` marks state
    from the prefiltered Lemma-1 path, the only one whose rows can be
    spliced; the others still serve the nothing-moved cache.  ``stale``
    flags rows whose summary (``cx``/``cy``/``radius``/``ranges``) has
    not been computed for the current geometry yet.
    """

    config: LaacadConfig
    area_pieces: List
    alive_ids: np.ndarray
    positions: np.ndarray
    pieces: EmittedPieces
    used: np.ndarray
    search_radius: np.ndarray
    regions: Dict[int, DominatingRegion]
    incremental: bool
    cx: np.ndarray
    cy: np.ndarray
    radius: np.ndarray
    ranges: np.ndarray
    stale: np.ndarray

    def matches(self, config, area_pieces, alive_ids) -> bool:
        """Whether the next round runs on the same problem (all but positions)."""
        return (
            (config is self.config or config == self.config)
            and np.array_equal(alive_ids, self.alive_ids)
            and area_pieces == self.area_pieces
        )


@register_engine
class SparseRoundEngine(BatchedRoundEngine):
    """Grid-bucketed, level-synchronous, incremental round computation."""

    name = "sparse"

    def __init__(self, network, config) -> None:
        super().__init__(network, config)
        self._state: Optional[_RoundState] = None

    # ------------------------------------------------------------------
    def compute_regions(self) -> Tuple[Dict[int, DominatingRegion], int]:
        if self.config.use_localized:
            self._state = None
            return self._compute_regions_localized()
        return self._compute_regions_sparse(), 0

    def compute_round(self) -> EngineRound:
        regions, max_hops = self.compute_regions()
        if self._state is None:
            return summarize_regions(self.network, regions, max_hops)
        return self._summarize_vectorized(regions, max_hops)

    # ------------------------------------------------------------------
    # Region computation
    # ------------------------------------------------------------------
    def _compute_regions_sparse(self) -> Dict[int, DominatingRegion]:
        network = self.network
        config = self.config
        area_pieces = network.region.convex_pieces()

        snapshot = NodeArrayState.from_network(network)
        alive_ids = snapshot.alive_node_ids()
        positions = snapshot.alive_positions()
        count = positions.shape[0]

        prev = self._state
        if prev is not None and not prev.matches(config, area_pieces, alive_ids):
            prev = None
        moved = None
        if prev is not None:
            moved = np.nonzero((positions != prev.positions).any(axis=1))[0]
            if moved.size == 0:
                # Nothing moved since the last computation (e.g. result()
                # followed by step()): the stored regions are current.
                _trace.annotate(moved=0, dirty_rows=0)
                _ROWS_REUSED.inc(count)
                return prev.regions
            if not prev.incremental:
                prev = None

        if count == 0:
            self._store(
                config, area_pieces, alive_ids, positions,
                PieceAccumulator().finalize(0), np.zeros(0, dtype=np.int64),
                np.zeros(0), False,
            )
            recomputed = 0
        elif count == 1 or not config.prefilter:
            self._compute_regions_exhaustive(
                config, area_pieces, alive_ids, positions
            )
            recomputed = count
        else:
            recomputed = self._compute_regions_lemma1(
                config, area_pieces, alive_ids, positions, prev, moved
            )
        _trace.annotate(
            moved=count if moved is None else int(moved.size),
            dirty_rows=recomputed,
        )
        _ROWS_RECOMPUTED.inc(recomputed)
        _ROWS_REUSED.inc(count - recomputed)
        return self._state.regions

    def _compute_regions_lemma1(
        self, config, area_pieces, alive_ids, positions, prev, moved
    ) -> int:
        """The prefiltered path: full, or incremental against ``prev``.

        With ``prev`` (the last round, same problem) only the *dirty*
        rows are recomputed — see :meth:`_dirty_rows` — and spliced into
        the stored block; every other row keeps its pieces, ``used`` and
        ``rho`` verbatim, which is exactly what a full recompute would
        rebuild for it.  Returns the number of rows recomputed.
        """
        k = config.k
        diameter = self.network.region.diameter
        count = positions.shape[0]
        px = np.ascontiguousarray(positions[:, 0])
        py = np.ascontiguousarray(positions[:, 1])
        # Cell size ~ mean node spacing: radius-r queries then scan
        # O((r/cell)^2) buckets of O(1) points each.
        cell = max(diameter / max(math.sqrt(count), 1.0), 1e-9)
        if prev is None:
            rows = np.arange(count, dtype=np.int64)
        else:
            with _trace.span("dirty"):
                rows = self._dirty_rows(prev, positions, moved, cell)
        grid = SpatialGrid(positions, cell_size=cell)
        need = min(k, count - 1)
        # The scalar schedule (initial_prefilter_radius, then doubling)
        # floors the start radius at 5% of the diameter — a constant
        # radius that at high density sweeps in O(N) competitors per
        # node and turns the whole pass quadratic.  Cap the floor at a
        # few grid cells (~ mean spacing) so the start population stays
        # O(1) at every N; a start that proves too small only costs
        # doubling iterations, never changes the Lemma-1 fixed point.
        floor = max(min(diameter * 0.05, 4.0 * cell), EPS * 10)
        max_needed = diameter * 2.0 + 1.0

        emit = PieceAccumulator()
        used = np.zeros(count, dtype=np.int64)
        search_radius = np.zeros(count)
        # Per-node search radius: starts at the floor and is raised to
        # ``max(2 * kth-nearest, floor)`` as soon as a query disk holds
        # enough candidates to read the kth-nearest distance off the
        # sorted panel — the first query serves as the kth pre-pass.
        rho = np.full(count, floor)
        kth_known = np.zeros(count, dtype=bool)
        pending = rows
        while pending.size:
            qrad = rho[pending].copy()
            with _trace.span("query"):
                cand, cand_indptr = grid.query_radius_many(
                    positions[pending], qrad
                )
            with _trace.span("candidates"):
                counts_all = np.diff(cand_indptr)
                _GRID_CANDIDATES.inc(cand.shape[0])
                owners = segment_ids(counts_all, cand.shape[0])
                cand, dist = _nearest_first(px, py, pending, cand, owners)

            unknown = ~kth_known[pending]
            if unknown.any():
                with _trace.span("kth"):
                    rows_u = np.nonzero(unknown)[0]
                    enough = counts_all[rows_u] >= need + 1
                    rows_e = rows_u[enough]
                    if rows_e.size:
                        # The disk holds >= need+1 points (self incl.),
                        # so the need+1 globally nearest are all inside
                        # it and the kth distance reads straight off
                        # the sorted panel.
                        kth = dist[cand_indptr[rows_e] + need]
                        rho[pending[rows_e]] = np.maximum(2.0 * kth, floor)
                        kth_known[pending[rows_e]] = True
                    rho[pending[rows_u[~enough]]] *= 2.0

            # A node can clip this iteration iff its kth-derived rho is
            # known and covered by the radius actually queried; other
            # nodes requery at their grown rho next iteration.
            clippable = kth_known[pending] & (rho[pending] <= qrad)
            act = np.nonzero(clippable)[0]
            if act.size == 0:
                continue
            act_nodes = pending[act]
            rho_act = rho[act_nodes]

            with _trace.span("candidates"):
                if act.size == pending.size:
                    sel_cand = cand
                    sel_dist = dist
                    sel_owner = owners
                else:
                    gidx = ragged_indices(cand_indptr[act], counts_all[act])
                    sel_cand = cand[gidx]
                    sel_dist = dist[gidx]
                    sel_owner = segment_ids(counts_all[act], gidx.shape[0])
                # The pre-filter is *strict* (`dist < rho`, self
                # excluded) — the grid's inclusive boundary slack is
                # filtered out here so the competitor sets match the
                # batched engine's ``select_competitors`` exactly.
                keep = (sel_dist < rho_act[sel_owner]) & (
                    sel_cand != act_nodes[sel_owner]
                )
                comp = sel_cand[keep]
                comp_counts = np.bincount(sel_owner[keep], minlength=act.size)
                comp_indptr = np.concatenate(
                    ([0], np.cumsum(comp_counts))
                ).astype(np.int64)
                # The candidate panels are spent: release them before the
                # clip allocates its own (they set the round's peak memory).
                del cand, dist, owners, sel_cand, sel_dist, sel_owner, keep
            with _trace.span("clip"):
                vx, vy, piece_indptr, piece_owner = clip_cells_batch(
                    positions[act_nodes], px[comp], py[comp], comp_indptr,
                    area_pieces, k,
                )

            with _trace.span("finish"):
                vert_counts = np.diff(piece_indptr)
                total_verts = vx.shape[0]
                site_rad = np.zeros(act.size)
                if total_verts:
                    vert_owner = piece_owner[
                        segment_ids(vert_counts, total_verts)
                    ]
                    dist_v = np.hypot(
                        vx - px[act_nodes][vert_owner],
                        vy - py[act_nodes][vert_owner],
                    )
                    group_start = np.nonzero(
                        np.concatenate(([True], vert_owner[1:] != vert_owner[:-1]))
                    )[0]
                    site_rad[vert_owner[group_start]] = np.maximum.reduceat(
                        dist_v, group_start
                    )
                # Lemma-1 termination: the region fits in the rho/2
                # disk, so no competitor beyond rho can clip it.
                finished = (site_rad <= rho_act / 2.0 + EPS) | (
                    rho_act >= max_needed
                )
                fin_rows = np.nonzero(finished)[0]
                if fin_rows.size:
                    fin_piece = finished[piece_owner]
                    emit.extend_csr(
                        vx, vy, piece_indptr, act_nodes[piece_owner],
                        rows=None if fin_piece.all() else np.nonzero(fin_piece)[0],
                    )
                    used[act_nodes[fin_rows]] = comp_counts[fin_rows]
                    search_radius[act_nodes[fin_rows]] = rho_act[fin_rows]
                rho[act_nodes[~finished]] *= 2.0
                drop = np.zeros(pending.size, dtype=bool)
                drop[act[finished]] = True
                pending = pending[~drop]

        with _trace.span("emit"):
            fresh = emit.finalize(count)
            if prev is None:
                pieces = fresh
            else:
                dirty = np.zeros(count, dtype=bool)
                dirty[rows] = True
                pieces = splice_pieces(prev.pieces, fresh, dirty)
                used = np.where(dirty, used, prev.used)
                search_radius = np.where(dirty, search_radius, prev.search_radius)
        self._store(
            config, area_pieces, alive_ids, positions, pieces, used,
            search_radius, True, None if prev is None else (prev, rows),
        )
        return int(rows.size)

    @staticmethod
    def _dirty_rows(prev, positions, moved, cell) -> np.ndarray:
        """Rows whose Lemma-1 computation can differ from ``prev``'s.

        A row's output depends only on its own position and on the sites
        its expanding search saw, all inside its final radius ``rho``.
        So a row is dirty iff it moved or the old or new position of any
        mover lies in its stored ``rho`` disk, tested with the grid's
        own inclusive ``d^2 <= rho^2 + 1e-15`` rule (every query the
        search made used a radius ``<= rho`` and that same rule).
        """
        count = positions.shape[0]
        dirty = np.zeros(count, dtype=bool)
        dirty[moved] = True
        still = np.nonzero(~dirty)[0]
        if still.size:
            movers = SpatialGrid(
                np.concatenate((prev.positions[moved], positions[moved])),
                cell_size=cell,
            )
            _, indptr = movers.query_radius_many(
                positions[still], prev.search_radius[still]
            )
            dirty[still[np.diff(indptr) > 0]] = True
        return np.nonzero(dirty)[0]

    def _store(
        self, config, area_pieces, alive_ids, positions, pieces, used,
        search_radius, incremental, carried=None,
    ) -> None:
        """Adopt a finished round as the engine state.

        ``carried`` is ``(prev, rows)`` for an incremental round: the
        summaries of every row outside ``rows`` carry over (a row whose
        pieces and position are unchanged has unchanged summaries).
        """
        vx, vy, piece_indptr, piece_owner, _ = pieces
        count = alive_ids.shape[0]
        if carried is None:
            cx, cy, radius, ranges = (np.zeros(count) for _ in range(4))
            stale = np.ones(count, dtype=bool)
        else:
            prev, rows = carried
            cx, cy, radius, ranges = prev.cx, prev.cy, prev.radius, prev.ranges
            stale = prev.stale
            stale[rows] = True
        regions = self._lazy_regions(
            vx, vy, piece_indptr, piece_owner, alive_ids,
            np.ascontiguousarray(positions[:, 0]),
            np.ascontiguousarray(positions[:, 1]),
            config.k, used, search_radius,
        )
        self._state = _RoundState(
            config=config, area_pieces=area_pieces, alive_ids=alive_ids,
            positions=positions, pieces=pieces, used=used,
            search_radius=search_radius, regions=regions,
            incremental=incremental, cx=cx, cy=cy, radius=radius,
            ranges=ranges, stale=stale,
        )

    def _lazy_regions(
        self, vx, vy, piece_indptr, piece_owner, alive_ids, px, py, k,
        used, search_radius,
    ) -> Dict[int, DominatingRegion]:
        """Regions dict whose Python polygons build on first read."""
        count = alive_ids.shape[0]

        def build() -> Dict[int, DominatingRegion]:
            pieces_per_row = materialize_pieces(
                vx, vy, piece_indptr, piece_owner, count
            )
            built: Dict[int, DominatingRegion] = {}
            for row in range(count):
                built[int(alive_ids[row])] = DominatingRegion(
                    site=(float(px[row]), float(py[row])),
                    k=k,
                    pieces=pieces_per_row[row],
                    competitors_used=int(used[row]),
                    search_radius=float(search_radius[row]),
                )
            return built

        return LazyRegions(build)

    # ------------------------------------------------------------------
    def _compute_regions_exhaustive(
        self, config, area_pieces, alive_ids, positions
    ) -> None:
        """``prefilter=False`` path: every competitor, chunked by rows.

        Still avoids one big N×N allocation: candidate rows are
        processed in blocks sized by :func:`chunk_budget_bytes`, each
        block building only a (block, N) distance panel.
        """
        count = positions.shape[0]
        px = np.ascontiguousarray(positions[:, 0])
        py = np.ascontiguousarray(positions[:, 1])
        emit = PieceAccumulator()
        # ~6 transient float64 panels of width N per block row.
        block_rows = max(1, int(chunk_budget_bytes() // max(count * 8 * 6, 1)))
        for start in range(0, count, block_rows):
            stop = min(start + block_rows, count)
            rows = np.arange(start, stop, dtype=np.int64)
            dx = px[None, :] - px[rows, None]
            dy = py[None, :] - py[rows, None]
            dist_sq = dx * dx + dy * dy
            dist_sq[np.arange(rows.size), rows] = np.inf
            order = np.argsort(dist_sq, axis=1, kind="stable")[:, : max(count - 1, 0)]
            flat = order.ravel()
            comp_indptr = (
                np.arange(rows.size + 1, dtype=np.int64) * max(count - 1, 0)
            )
            vx, vy, piece_indptr, piece_owner = clip_cells_batch(
                positions[rows], px[flat], py[flat], comp_indptr, area_pieces,
                config.k,
            )
            emit.extend_csr(vx, vy, piece_indptr, rows[piece_owner])
        self._store(
            config, area_pieces, alive_ids, positions, emit.finalize(count),
            np.full(count, count - 1, dtype=np.int64), np.full(count, math.inf),
            False,
        )

    # ------------------------------------------------------------------
    # Vectorized per-round summary
    # ------------------------------------------------------------------
    def _summarize_vectorized(self, regions, max_hops) -> EngineRound:
        with _trace.span("summary"):
            state = self._state
            alive_ids = state.alive_ids
            pos = state.positions
            count = alive_ids.shape[0]
            rows = np.nonzero(state.stale)[0]
            if rows.size:
                self._summarize_rows(state, rows)
            displacements = np.hypot(pos[:, 0] - state.cx, pos[:, 1] - state.cy)
            centers = {
                int(alive_ids[row]): (float(state.cx[row]), float(state.cy[row]))
                for row in range(count)
            }
        return EngineRound(
            regions=regions,
            centers=centers,
            circumradii=state.radius.tolist(),
            ranges_from_position=state.ranges.tolist(),
            displacements=displacements.tolist(),
            max_ring_hops=max_hops,
        )

    @staticmethod
    def _summarize_rows(state: _RoundState, rows: np.ndarray) -> None:
        """Chebyshev circles and ranges of ``rows``, written into ``state``.

        Every quantity is a per-row reduction (``mec_batch`` rows are
        independent), so summarising a subset gives bitwise the values
        a whole-block pass gives those rows.
        """
        flat_x, flat_y, _, _, vert_indptr = state.pieces
        counts = np.diff(vert_indptr)[rows]
        if rows.size == state.stale.shape[0]:
            sub_x, sub_y, sub_indptr = flat_x, flat_y, vert_indptr
        else:
            gidx = ragged_indices(vert_indptr[rows], counts)
            sub_x, sub_y = flat_x[gidx], flat_y[gidx]
            sub_indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
        pos = state.positions[rows]
        cx, cy, radius = mec_batch(sub_x, sub_y, sub_indptr)
        # Empty region: the update is a no-op anchored at the site.
        empty = counts == 0
        state.cx[rows] = np.where(empty, pos[:, 0], cx)
        state.cy[rows] = np.where(empty, pos[:, 1], cy)
        state.radius[rows] = np.where(empty, 0.0, radius)
        ranges = np.zeros(rows.size)
        if sub_x.size:
            vert_owner = segment_ids(counts, sub_x.shape[0])
            dist_v = np.hypot(sub_x - pos[vert_owner, 0], sub_y - pos[vert_owner, 1])
            group_start = np.nonzero(
                np.concatenate(([True], vert_owner[1:] != vert_owner[:-1]))
            )[0]
            ranges[vert_owner[group_start]] = np.maximum.reduceat(dist_v, group_start)
        state.ranges[rows] = ranges
        state.stale[rows] = False
