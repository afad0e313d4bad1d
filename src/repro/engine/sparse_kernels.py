"""Cross-node geometry kernels for the sparse engine tier.

The batched tier (PR 1 / PR 4) vectorises *within* one node — all of a
node's competitors are folded through :class:`~repro.engine.kernels
.ClippingSweep` in array operations — but still visits nodes one at a
time, so a round costs hundreds of microseconds of Python per node no
matter how local the protocol is.  The kernels here vectorise *across*
nodes:

* :func:`clip_cells_batch` runs the budgeted clipping sweep of **every**
  site simultaneously, level by level: at level ``L`` each site's
  ``L``-th nearest competitor clips that site's live pieces, and one
  pass of flat array operations (signed values, per-piece reductions,
  the fused two-sided Sutherland–Hodgman assembly) advances all sites
  at once.  The per-site far-competitor cutoff of ``ClippingSweep`` is
  applied progressively, so a site stops participating as soon as its
  remaining competitors provably cannot clip anything.
* :func:`mec_batch` computes smallest enclosing circles (Chebyshev
  centers) for many ragged vertex sets at once with a farthest-point
  support iteration, falling back to the scalar Welzl routine for the
  rare rows the iteration does not settle.

Both kernels follow the sparse tier's *tolerance* contract (see
DESIGN.md): results agree with the scalar/batched path to well within
1e-9, but are not bitwise identical — the ring dedupe is applied in
whole-array passes rather than the scalar running form, and the MEC
support search may pick a different (equally minimal) support among
near-degenerate candidates.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.engine.jit_kernels import (
    classify_first_events,
    clip_crossing_pieces,
    ragged_indices,
    segment_ids,
)
from repro.geometry.primitives import EPS, Point
from repro.geometry.welzl import welzl_disk
from repro.voronoi.dominating import _MIN_PIECE_AREA

Polygon = List[Point]

#: Mirror of ``ClippingSweep._CUTOFF_MARGIN``: the slack added to the
#: current site radius before a competitor is declared a provable no-op.
_CUTOFF_MARGIN = 1e-7


def _ring_areas(x: np.ndarray, y: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Absolute shoelace area per ragged ring."""
    nrings = counts.shape[0]
    areas = np.zeros(nrings)
    if x.size == 0 or nrings == 0:
        return areas
    starts = np.cumsum(counts) - counts
    nxt = np.arange(x.size, dtype=np.int64) + 1
    nz = counts > 0
    nxt[starts[nz] + counts[nz] - 1] = starts[nz]
    cross = x * y[nxt] - x[nxt] * y
    areas[np.nonzero(nz)[0]] = np.abs(np.add.reduceat(cross, starts[nz])) / 2.0
    return areas


def _ring_radii(
    x: np.ndarray,
    y: np.ndarray,
    counts: np.ndarray,
    site_x: np.ndarray,
    site_y: np.ndarray,
) -> np.ndarray:
    """Max distance from ``site_*[r]`` to ring ``r``'s vertices (0 when empty)."""
    nrings = counts.shape[0]
    radii = np.zeros(nrings)
    if x.size == 0 or nrings == 0:
        return radii
    ring_of_vert = segment_ids(counts, x.shape[0])
    dist = np.hypot(x - site_x[ring_of_vert], y - site_y[ring_of_vert])
    starts = np.cumsum(counts) - counts
    nz = counts > 0
    radii[np.nonzero(nz)[0]] = np.maximum.reduceat(dist, starts[nz])
    return radii


# ----------------------------------------------------------------------
# Cross-node budgeted clipping sweep
# ----------------------------------------------------------------------
def clip_cells_batch(
    sites: np.ndarray,
    comp_x: np.ndarray,
    comp_y: np.ndarray,
    comp_indptr: np.ndarray,
    area_pieces: Sequence[Polygon],
    k: int,
    eps: float = EPS,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Budgeted clipping sweep of many sites in lock-stepped levels.

    Args:
        sites: ``(M, 2)`` site positions.
        comp_x, comp_y, comp_indptr: CSR competitor lists per site,
            **sorted nearest-first** within each site (ties in any
            stable order; the sweep is order-sensitive only on exact
            distance ties, which the tolerance contract covers).
        area_pieces: convex decomposition of the target area.
        k: coverage order (>= 1).
        eps: geometric tolerance.

    Returns:
        ``(vert_x, vert_y, piece_indptr, piece_owner)`` — ragged convex
        pieces grouped by ascending site row; the pieces of site ``i``
        are those with ``piece_owner == i`` (possibly none, when the
        site dominates no area).  Piece vertex ``j`` of piece ``p``
        lives at ``vert_x[piece_indptr[p] + j]``.
    """
    if k < 1:
        raise ValueError("coverage order k must be >= 1")
    budget = k - 1
    sites = np.asarray(sites, dtype=float).reshape(-1, 2)
    m = sites.shape[0]
    rings = [list(piece) for piece in area_pieces if len(piece) >= 3]
    if m == 0 or not rings:
        return (
            np.zeros(0),
            np.zeros(0),
            np.zeros(1, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
        )
    area_vx = np.asarray([v[0] for ring in rings for v in ring], dtype=float)
    area_vy = np.asarray([v[1] for ring in rings for v in ring], dtype=float)
    area_counts = np.asarray([len(ring) for ring in rings], dtype=np.int64)
    pieces_per_site = len(rings)

    # Live state: an append-only vertex pool plus per-piece descriptor
    # arrays (pool start, count, owner, violation budget).  A piece's
    # vertices are written to the pool exactly once — at initialisation
    # or when it is born from a clip — and never move again: retiring a
    # piece or replacing it with its children only touches the (small)
    # descriptor arrays, so a pass costs nothing proportional to the
    # vertices of unchanged pieces.
    vx = np.tile(area_vx, m)
    vy = np.tile(area_vy, m)
    pc = np.tile(area_counts, m)
    po = np.repeat(np.arange(m, dtype=np.int64), pieces_per_site)
    pv = np.zeros(m * pieces_per_site, dtype=np.int64)
    pstart = (np.cumsum(pc) - pc).astype(np.int64)

    sx = np.ascontiguousarray(sites[:, 0])
    sy = np.ascontiguousarray(sites[:, 1])
    # Per-piece circumradius about the owning site, maintained as live
    # state: a piece's vertices only change when the piece is clipped,
    # so recomputing the radius over every live vertex at every level
    # (the previous form) redid the identical hypot/max for the vast
    # untouched majority.  Max is exact and per-vertex hypot is the
    # same expression, so the cached values are bitwise identical.
    owner_of_vert = po[segment_ids(pc, vx.shape[0])]
    dist_v = np.hypot(vx - sx[owner_of_vert], vy - sy[owner_of_vert])
    prad = np.maximum.reduceat(dist_v, pstart)

    pool_used = vx.shape[0]
    pool_cap = max(4 * pool_used, 1024)
    pool_x = np.empty(pool_cap)
    pool_y = np.empty(pool_cap)
    pool_x[:pool_used] = vx
    pool_y[:pool_used] = vy
    ncomp = np.diff(comp_indptr)
    comp_owner = segment_ids(ncomp, comp_x.shape[0])
    cdx = comp_x - sx[comp_owner]
    cdy = comp_y - sy[comp_owner]
    comp_dist_sq = cdx * cdx + cdy * cdy
    # Co-located competitors are never strictly closer: no constraint.
    comp_separated = np.hypot(cdx, cdy) > eps
    # Perpendicular-bisector half-plane coefficients, the exact
    # ``halfplane_coefficient_arrays`` grouping.
    coeff_a = cdx
    coeff_b = cdy
    coeff_c = (
        comp_x * comp_x + comp_y * comp_y - sx[comp_owner] * sx[comp_owner]
        - sy[comp_owner] * sy[comp_owner]
    ) / 2.0

    # Per-piece walk state: each piece consumes its owner's competitor
    # list (sorted nearest-first) at its own pace.  Between two clip
    # events a piece's geometry is unchanged, so a whole block of
    # upcoming competitors can be classified against it in one fused
    # evaluation — every classification up to the piece's *first*
    # non-untouched competitor is exactly what the scalar one-at-a-time
    # sweep would compute, and later entries are simply discarded and
    # re-evaluated on the new geometry next pass.  This collapses the
    # former owner-lock-stepped level loop (one pass per competitor
    # rank, ~30 array dispatches each) into a handful of passes.
    pptr = np.zeros(pc.shape[0], dtype=np.int64)
    # Galloping block size per piece: the nearest competitors of a
    # fresh cell almost all clip it (an event per competitor), so a
    # fixed lookahead would waste most of its evaluations; a piece
    # instead looks 1 competitor ahead after an event and doubles its
    # lookahead (capped) after every event-free pass, so the crossing
    # storm at the head of the competitor list costs no wasted
    # evaluations while settled pieces race through their provably
    # harmless tail.
    pblk = np.ones(pc.shape[0], dtype=np.int64)
    max_block = 64
    fin_start_parts: List[np.ndarray] = []
    fin_pc_parts: List[np.ndarray] = []
    fin_po_parts: List[np.ndarray] = []
    while po.size:
        # Retire pieces whose competitor list is exhausted, plus frozen
        # pieces — those whose next (nearest remaining) competitor lies
        # beyond twice the piece circumradius: its bisector, and every
        # later one's, evaluates strictly negative on all the piece's
        # vertices, so the piece is final.  This per-piece test
        # subsumes the owner-level far-competitor cutoff of the scalar
        # sweep (the owner radius is the max over its pieces), and
        # skipping provable no-op competitors never changes an emitted
        # vertex.
        move = pptr >= ncomp[po]
        live_rows = np.nonzero(~move)[0]
        if live_rows.size:
            next_d_sq = comp_dist_sq[comp_indptr[po[live_rows]] + pptr[live_rows]]
            piece_reach = 2.0 * (prad[live_rows] + _CUTOFF_MARGIN)
            move[live_rows[next_d_sq > piece_reach * piece_reach]] = True
        if move.any():
            mv_sel = np.nonzero(move)[0]
            fin_start_parts.append(pstart[mv_sel])
            fin_pc_parts.append(pc[mv_sel])
            fin_po_parts.append(po[mv_sel])
            live_sel = np.nonzero(~move)[0]
            pstart = pstart[live_sel]
            pc = pc[live_sel]
            po = po[live_sel]
            pv = pv[live_sel]
            prad = prad[live_sel]
            pptr = pptr[live_sel]
            pblk = pblk[live_sel]
            if po.size == 0:
                break

        # Fused classification of each live piece's next (lookahead
        # many) competitors against its current geometry — a kernel
        # seam (``jit_kernels.classify_first_events``) reading the pool
        # and the per-piece walk descriptors directly.  The per-entry
        # bisector coefficients are the same float values as the
        # historic per-owner gather, so the signed extrema (and every
        # decision derived from them) are bitwise unchanged.
        nblk = np.minimum(pblk, ncomp[po] - pptr)
        centry = comp_indptr[po] + pptr
        first_evt, evt_kind = classify_first_events(
            pool_x, pool_y, pstart, pc, centry, nblk,
            coeff_a, coeff_b, coeff_c, comp_separated, eps,
        )
        has_evt = evt_kind != 0
        allout_evt = evt_kind == 1
        cross_evt = evt_kind == 2
        allout_keep_evt = allout_evt & (pv + 1 <= budget)
        allout_drop_evt = allout_evt & ~allout_keep_evt
        # Competitors consumed this pass: everything before the event
        # plus the event itself, or the whole block when none fired
        # (``first_evt == nblk`` then, so one expression covers both).
        ptr_advanced = pptr + first_evt + has_evt
        blk_next = np.where(has_evt, 1, np.minimum(pblk * 2, max_block))
        if not cross_evt.any() and not allout_drop_evt.any():
            pv = pv + allout_keep_evt
            pptr = ptr_advanced
            pblk = blk_next
            continue

        # ---- fused two-sided Sutherland–Hodgman over crossing pieces,
        # the second kernel seam: split every crossing piece by its
        # event bisector, dedupe the children, and hand back compacted
        # rings.  The farther side exists only for pieces that still
        # have clip budget (``pv + 1 <= budget``); once a piece's
        # budget is spent — for k=2, after its very first split — its
        # farther child is discarded unconditionally (count 0).
        cross_pieces_global = np.nonzero(cross_evt)[0]
        evt_cidx = centry[cross_pieces_global] + first_evt[cross_pieces_global]
        want_farther = pv[cross_pieces_global] + 1 <= budget
        clo_x, clo_y, clo_counts, far_x, far_y, far_counts = clip_crossing_pieces(
            pool_x, pool_y,
            pstart[cross_pieces_global], pc[cross_pieces_global],
            coeff_a[evt_cidx], coeff_b[evt_cidx], coeff_c[evt_cidx],
            want_farther, eps,
        )
        keep_closer = (clo_counts >= 3) & (
            _ring_areas(clo_x, clo_y, clo_counts) > _MIN_PIECE_AREA
        )
        keep_farther = (far_counts >= 3) & (
            _ring_areas(far_x, far_y, far_counts) > _MIN_PIECE_AREA
        )
        # Circumradii of the clipped children (the only pieces whose
        # vertices changed this level), same expression as the cached
        # state they feed.  Areas and radii stay NumPy on *both* tiers:
        # given identical rings the keep decisions are then identical
        # by construction.
        cross_owner = po[cross_pieces_global]
        clo_rad = _ring_radii(clo_x, clo_y, clo_counts, sx[cross_owner], sy[cross_owner])
        far_rad = _ring_radii(far_x, far_y, far_counts, sx[cross_owner], sy[cross_owner])

        # ---- append the kept children to the pool and rebuild the
        # descriptor arrays: survivors keep their pool slices verbatim.
        clo_starts = np.cumsum(clo_counts) - clo_counts
        far_starts = np.cumsum(far_counts) - far_counts
        clo_keep_counts = clo_counts[keep_closer]
        far_keep_counts = far_counts[keep_farther]
        n_clo = int(clo_keep_counts.sum())
        n_far = int(far_keep_counts.sum())
        if pool_used + n_clo + n_far > pool_cap:
            pool_cap = max(2 * pool_cap, pool_used + n_clo + n_far)
            grown_x = np.empty(pool_cap)
            grown_y = np.empty(pool_cap)
            grown_x[:pool_used] = pool_x[:pool_used]
            grown_y[:pool_used] = pool_y[:pool_used]
            pool_x = grown_x
            pool_y = grown_y
        if n_clo:
            src = ragged_indices(clo_starts[keep_closer], clo_keep_counts)
            pool_x[pool_used : pool_used + n_clo] = clo_x[src]
            pool_y[pool_used : pool_used + n_clo] = clo_y[src]
        clo_child_start = pool_used + np.cumsum(clo_keep_counts) - clo_keep_counts
        pool_used += n_clo
        if n_far:
            src = ragged_indices(far_starts[keep_farther], far_keep_counts)
            pool_x[pool_used : pool_used + n_far] = far_x[src]
            pool_y[pool_used : pool_used + n_far] = far_y[src]
        far_child_start = pool_used + np.cumsum(far_keep_counts) - far_keep_counts
        pool_used += n_far

        keep_orig = ~cross_evt & ~allout_drop_evt
        orig_rows = np.nonzero(keep_orig)[0]
        clo_rows = cross_pieces_global[keep_closer]
        far_rows = cross_pieces_global[keep_farther]
        pstart = np.concatenate(
            (pstart[orig_rows], clo_child_start, far_child_start)
        )
        pc = np.concatenate((pc[orig_rows], clo_keep_counts, far_keep_counts))
        pv = np.concatenate(
            (
                pv[orig_rows] + allout_keep_evt[orig_rows],
                pv[clo_rows],
                pv[far_rows] + 1,
            )
        )
        prad = np.concatenate(
            (prad[orig_rows], clo_rad[keep_closer], far_rad[keep_farther])
        )
        pptr = np.concatenate(
            (
                ptr_advanced[orig_rows],
                ptr_advanced[clo_rows],
                ptr_advanced[far_rows],
            )
        )
        pblk = np.concatenate(
            (
                blk_next[orig_rows],
                np.ones(clo_rows.size, dtype=np.int64),
                np.ones(far_rows.size, dtype=np.int64),
            )
        )
        po = np.concatenate((po[orig_rows], po[clo_rows], po[far_rows]))

    # Merge the stash with whatever is still live and regroup the
    # pieces by ascending owner (the stable sort groups each owner's
    # pieces in retirement order; piece order within an owner is not
    # part of the contract — every downstream consumer reduces over
    # the union of an owner's pieces).
    fin_start_parts.append(pstart)
    fin_pc_parts.append(pc)
    fin_po_parts.append(po)
    all_pc = np.concatenate(fin_pc_parts)
    all_po = np.concatenate(fin_po_parts)
    all_start = np.concatenate(fin_start_parts)
    order = np.argsort(all_po, kind="stable")
    gidx = ragged_indices(all_start[order], all_pc[order])
    piece_indptr = np.concatenate(([0], np.cumsum(all_pc[order])))
    return (
        pool_x[gidx],
        pool_y[gidx],
        piece_indptr.astype(np.int64),
        all_po[order],
    )


# ----------------------------------------------------------------------
# Batched smallest enclosing circles
# ----------------------------------------------------------------------
#: Index tables of the candidate supports over the 4-point working set
#: ``[s0, s1, s2, f]`` — 6 diameter pairs (third index duplicates the
#: first: duplicates never change an enclosing circle) and 4 triples.
_COMBO_I = np.asarray([0, 1, 2, 0, 0, 1, 0, 0, 1, 0], dtype=np.int64)
_COMBO_J = np.asarray([3, 3, 3, 1, 2, 2, 1, 2, 2, 1], dtype=np.int64)
_COMBO_K = np.asarray([0, 1, 2, 0, 0, 1, 3, 3, 3, 2], dtype=np.int64)
_N_PAIRS = 6  # candidates [0:6] are pairs, [6:10] are triples


def mec_batch(
    xs: np.ndarray,
    ys: np.ndarray,
    indptr: np.ndarray,
    max_padded_width: int = 64,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Smallest enclosing circle of many ragged point sets at once.

    A vectorised farthest-point support iteration: start from the
    diameter circle of an approximate farthest pair, then repeatedly
    pull the farthest outside point into a <=4-point support set and
    take the smallest of the 10 pair/triple circles that encloses it.
    The radius grows strictly each step, so the loop settles in a few
    iterations; rows that do not (or whose point count exceeds
    ``max_padded_width``) fall back to the scalar Welzl routine.

    Returns ``(center_x, center_y, radius)`` arrays; empty rows get a
    zero circle at the origin (the Welzl empty-input convention).

    Accuracy: the returned circle encloses every point to within
    ``1e-11 * max(radius, 1)`` and is minimal for its support, which
    agrees with the scalar Welzl result to ~1e-11 on generic inputs —
    inside the sparse tier's 1e-9 tolerance contract.
    """
    counts = np.diff(indptr)
    m = counts.shape[0]
    out_cx = np.zeros(m)
    out_cy = np.zeros(m)
    out_r = np.zeros(m)
    fallback: List[int] = np.nonzero(counts > max_padded_width)[0].tolist()
    work = np.nonzero((counts >= 1) & (counts <= max_padded_width))[0]
    if work.size:
        wcounts = counts[work]
        width = int(wcounts.max())
        # Pad each row with its own first point: duplicates are inert
        # for enclosing circles, so no masking is needed anywhere.
        pad = indptr[:-1][work, None] + np.minimum(
            np.arange(width, dtype=np.int64)[None, :], (wcounts - 1)[:, None]
        )
        px = xs[pad]
        py = ys[pad]
        nrows = work.shape[0]
        rows_idx = np.arange(nrows)
        d0 = (px - px[:, :1]) ** 2 + (py - py[:, :1]) ** 2
        far0 = np.argmax(d0, axis=1)
        ax = px[rows_idx, far0]
        ay = py[rows_idx, far0]
        d1 = (px - ax[:, None]) ** 2 + (py - ay[:, None]) ** 2
        far1 = np.argmax(d1, axis=1)
        bx = px[rows_idx, far1]
        by = py[rows_idx, far1]
        cx = (ax + bx) / 2.0
        cy = (ay + by) / 2.0
        rad = np.hypot(ax - bx, ay - by) / 2.0
        sup_x = np.stack((ax, bx, ax), axis=1)
        sup_y = np.stack((ay, by, ay), axis=1)
        active = np.ones(nrows, dtype=bool)
        for _ in range(64):
            rows = np.nonzero(active)[0]
            if rows.size == 0:
                break
            dx = px[rows] - cx[rows, None]
            dy = py[rows] - cy[rows, None]
            dist = np.sqrt(dx * dx + dy * dy)
            far = np.argmax(dist, axis=1)
            sub = np.arange(rows.size)
            fmax = dist[sub, far]
            settled = fmax <= rad[rows] + 1e-11 * np.maximum(rad[rows], 1.0)
            active[rows[settled]] = False
            rows = rows[~settled]
            if rows.size == 0:
                break
            far = far[~settled]
            sub = np.arange(rows.size)
            qx = np.stack(
                (sup_x[rows, 0], sup_x[rows, 1], sup_x[rows, 2], px[rows, far]),
                axis=1,
            )
            qy = np.stack(
                (sup_y[rows, 0], sup_y[rows, 1], sup_y[rows, 2], py[rows, far]),
                axis=1,
            )
            qi = qx[:, _COMBO_I]
            qj = qx[:, _COMBO_J]
            qk = qx[:, _COMBO_K]
            ri = qy[:, _COMBO_I]
            rj = qy[:, _COMBO_J]
            rk = qy[:, _COMBO_K]
            # Pair candidates: diameter circles.
            cand_cx = (qi + qj) / 2.0
            cand_cy = (ri + rj) / 2.0
            cand_r = np.hypot(qi - qj, ri - rj) / 2.0
            # Triple candidates: circumcircles (circle_from_3 grouping).
            det = 2.0 * (qi * (rj - rk) + qj * (rk - ri) + qk * (ri - rj))
            degen = np.abs(det) <= EPS * EPS
            det_safe = np.where(degen, 1.0, det)
            a2 = qi * qi + ri * ri
            b2 = qj * qj + rj * rj
            c2 = qk * qk + rk * rk
            ux = (a2 * (rj - rk) + b2 * (rk - ri) + c2 * (ri - rj)) / det_safe
            uy = (a2 * (qk - qj) + b2 * (qi - qk) + c2 * (qj - qi)) / det_safe
            tri = np.arange(_COMBO_I.shape[0]) >= _N_PAIRS
            cand_cx = np.where(tri, ux, cand_cx)
            cand_cy = np.where(tri, uy, cand_cy)
            cand_r = np.where(tri, np.hypot(ux - qi, uy - ri), cand_r)
            invalid = tri & degen
            # Containment of all 4 working points, small slack.
            slack = 1e-12 * np.maximum(cand_r, 1.0)
            ok = np.ones_like(cand_r, dtype=bool)
            for point in range(4):
                ok &= (
                    np.hypot(qx[:, point, None] - cand_cx, qy[:, point, None] - cand_cy)
                    <= cand_r + slack
                )
            ok &= ~invalid
            cand_masked = np.where(ok, cand_r, np.inf)
            pick = np.argmin(cand_masked, axis=1)
            valid_pick = ok[sub, pick]
            if not valid_pick.all():
                bad = rows[~valid_pick]
                fallback.extend(work[bad].tolist())
                active[bad] = False
                rows = rows[valid_pick]
                sub = np.arange(rows.size)
                pick = pick[valid_pick]
                qx = qx[valid_pick]
                qy = qy[valid_pick]
                cand_cx = cand_cx[valid_pick]
                cand_cy = cand_cy[valid_pick]
                cand_r = cand_r[valid_pick]
                if rows.size == 0:
                    continue
            cx[rows] = cand_cx[sub, pick]
            cy[rows] = cand_cy[sub, pick]
            rad[rows] = cand_r[sub, pick]
            sup_x[rows, 0] = qx[sub, _COMBO_I[pick]]
            sup_x[rows, 1] = qx[sub, _COMBO_J[pick]]
            sup_x[rows, 2] = qx[sub, _COMBO_K[pick]]
            sup_y[rows, 0] = qy[sub, _COMBO_I[pick]]
            sup_y[rows, 1] = qy[sub, _COMBO_J[pick]]
            sup_y[rows, 2] = qy[sub, _COMBO_K[pick]]
        leftovers = np.nonzero(active)[0]
        if leftovers.size:
            fallback.extend(work[leftovers].tolist())
            settled_mask = np.ones(nrows, dtype=bool)
            settled_mask[leftovers] = False
        else:
            settled_mask = np.ones(nrows, dtype=bool)
        out_cx[work[settled_mask]] = cx[settled_mask]
        out_cy[work[settled_mask]] = cy[settled_mask]
        out_r[work[settled_mask]] = rad[settled_mask]
    for row in fallback:
        start, stop = int(indptr[row]), int(indptr[row + 1])
        circle = welzl_disk(list(zip(xs[start:stop].tolist(), ys[start:stop].tolist())))
        out_cx[row] = circle.center[0]
        out_cy[row] = circle.center[1]
        out_r[row] = circle.radius
    return out_cx, out_cy, out_r
