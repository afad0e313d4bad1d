"""Kernel seams of the bandwidth-bound sparse kernels.

The sparse tier's hot loops are memory-bandwidth bound in NumPy: the
per-pass body of :func:`~repro.engine.sparse_kernels.clip_cells_batch`
(first-event classification of each piece's upcoming competitors, the
fused two-sided Sutherland–Hodgman over crossing pieces, and the ring
compression that dedupes the emitted children).  This module gives
each of them a *kernel seam*: one NumPy body that reproduces the exact
array expressions the kernels used before the seam existed, so the seam
changes no floats.

The seams split their work into chunk-ordered ranges with disjoint
outputs on the shared kernel thread pool (``REPRO_KERNEL_THREADS``, see
:mod:`repro.engine.kernels`), so any worker count is bitwise identical
to serial (``compress_rings`` runs inside the clip seam's chunks).
Plain-loop rewrites of each body live with the tests as oracles
(``tests/kernel_oracles.py``); DESIGN.md "Kernel seams" has the
contract.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from repro.engine.kernels import run_chunk_tasks, split_ranges
from repro.geometry.primitives import EPS

__all__ = [
    "kernel_tier",
    "halfplane_minmax",
    "classify_first_events",
    "clip_crossing_pieces",
    "compress_rings",
]


def kernel_tier() -> str:
    """The kernel implementation every seam runs.

    Always ``"numpy"``; kept because benchmark records report it.
    """
    return "numpy"


# ----------------------------------------------------------------------
# Seam entry points
# ----------------------------------------------------------------------
def halfplane_minmax(
    vx: np.ndarray,
    vy: np.ndarray,
    starts: np.ndarray,
    counts: np.ndarray,
    coeff_a: np.ndarray,
    coeff_b: np.ndarray,
    coeff_c: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-piece ``(max, min)`` of the signed half-plane value.

    Piece ``p`` spans ``vx/vy[starts[p] : starts[p] + counts[p]]``
    (``counts[p] >= 1``) and is evaluated against its own bisector
    ``coeff_a[p]*x + coeff_b[p]*y - coeff_c[p]``.  The body is the
    pre-seam array expression (gather + elementwise + reduceat).
    """
    n_pieces = int(starts.shape[0])
    if n_pieces == 0:
        return np.zeros(0), np.zeros(0)
    ranges = split_ranges(n_pieces, min_per_worker=4096)
    if len(ranges) <= 1:
        return _halfplane_minmax_numpy(
            vx, vy, starts, counts, coeff_a, coeff_b, coeff_c
        )
    # Per-piece reductions are independent, so the range split changes
    # no floats; chunk-ordered disjoint writes keep any worker count
    # bitwise identical to serial.
    pmax = np.empty(n_pieces)
    pmin = np.empty(n_pieces)

    def _run(lo: int, hi: int) -> Callable[[], None]:
        def task() -> None:
            pmax[lo:hi], pmin[lo:hi] = _halfplane_minmax_numpy(
                vx, vy, starts[lo:hi], counts[lo:hi],
                coeff_a[lo:hi], coeff_b[lo:hi], coeff_c[lo:hi],
            )

        return task

    run_chunk_tasks([_run(lo, hi) for lo, hi in ranges])
    return pmax, pmin


def _halfplane_minmax_numpy(vx, vy, starts, counts, coeff_a, coeff_b, coeff_c):
    """Body of :func:`halfplane_minmax` (pre-seam exact)."""
    n_pieces = int(starts.shape[0])
    total = int(counts.sum())
    if n_pieces == 1 or np.array_equal(
        starts[1:], starts[0] + np.cumsum(counts[:-1])
    ):
        # Contiguous back-to-back pieces: skip the gather.
        base = int(starts[0])
        gvx = vx[base : base + total]
        gvy = vy[base : base + total]
    else:
        gidx = ragged_indices(starts, counts)
        gvx = vx[gidx]
        gvy = vy[gidx]
    vert_piece = segment_ids(counts, total)
    val = coeff_a[vert_piece] * gvx + coeff_b[vert_piece] * gvy - coeff_c[vert_piece]
    substarts = np.cumsum(counts) - counts
    return np.maximum.reduceat(val, substarts), np.minimum.reduceat(val, substarts)


# ----------------------------------------------------------------------
# Clip-pass seams: first-event classification, fused two-sided clip,
# ring compression — operating on the flat pools / CSR descriptors.
# ----------------------------------------------------------------------
def classify_first_events(
    pool_x: np.ndarray,
    pool_y: np.ndarray,
    pstart: np.ndarray,
    pc: np.ndarray,
    centry: np.ndarray,
    nblk: np.ndarray,
    coeff_a: np.ndarray,
    coeff_b: np.ndarray,
    coeff_c: np.ndarray,
    separated: np.ndarray,
    eps: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """First clip event per live piece over its competitor lookahead.

    Piece ``p`` spans ``pool_x/pool_y[pstart[p] : pstart[p] + pc[p]]``
    and looks at ``nblk[p] >= 1`` upcoming competitors whose bisector
    coefficients sit contiguously at ``coeff_*[centry[p] + b]``
    (``separated`` marks competitors not co-located with the owner
    site; non-separated entries are consumed as untouched).  Returns
    ``(first_evt, evt_kind)``: the block position of the first
    non-untouched competitor (``nblk[p]`` when the whole block is
    untouched) and its kind — 0 none, 1 all-out (signed minimum
    ``>= -eps``), 2 crossing.

    The body evaluates the whole block with the pre-seam array
    expressions (identical floats, identical decisions), split into
    per-piece ranges for the kernel thread pool — outputs are
    per-piece, so every worker count is bitwise identical.
    """
    n = int(pstart.shape[0])
    first_evt = np.empty(n, dtype=np.int64)
    evt_kind = np.empty(n, dtype=np.int64)
    if n == 0:
        return first_evt, evt_kind
    def _range(lo: int, hi: int) -> Callable[[], None]:
        def task() -> None:
            _classify_first_events_numpy(
                pool_x, pool_y, pstart[lo:hi], pc[lo:hi],
                centry[lo:hi], nblk[lo:hi],
                coeff_a, coeff_b, coeff_c, separated, eps,
                first_evt[lo:hi], evt_kind[lo:hi],
            )

        return task

    run_chunk_tasks(
        [_range(lo, hi) for lo, hi in split_ranges(n, min_per_worker=2048)]
    )
    return first_evt, evt_kind


def _classify_first_events_numpy(
    pool_x, pool_y, pstart, pc, centry, nblk, coeff_a, coeff_b, coeff_c,
    separated, eps, first_out, kind_out,
):
    """Body of :func:`classify_first_events`: the pre-seam block expansion."""
    blk_starts = np.cumsum(nblk) - nblk
    total_blk = int(nblk.sum())
    blk_piece = segment_ids(nblk, total_blk)
    blk_pos = np.arange(total_blk, dtype=np.int64) - blk_starts[blk_piece]
    cidx = centry[blk_piece] + blk_pos
    pmax, pmin = _halfplane_minmax_numpy(
        pool_x, pool_y, pstart[blk_piece], pc[blk_piece],
        coeff_a[cidx], coeff_b[cidx], coeff_c[cidx],
    )
    untouched = ~separated[cidx] | (pmax <= eps)
    allout = ~untouched & (pmin >= -eps)
    pos_or_sent = np.where(untouched, np.iinfo(np.int64).max, blk_pos)
    first = np.minimum.reduceat(pos_or_sent, blk_starts)
    has = first < nblk
    entry = blk_starts + np.where(has, first, 0)
    kind_out[:] = np.where(has, np.where(allout[entry], 1, 2), 0)
    first_out[:] = np.where(has, first, nblk)


def clip_crossing_pieces(
    pool_x: np.ndarray,
    pool_y: np.ndarray,
    pstart: np.ndarray,
    pc: np.ndarray,
    coeff_a: np.ndarray,
    coeff_b: np.ndarray,
    coeff_c: np.ndarray,
    want_farther: np.ndarray,
    eps: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Split every crossing piece by its event bisector, both sides.

    Piece ``p`` (``pc[p]`` pool vertices at ``pstart[p]``) is clipped
    against ``coeff_a[p]*x + coeff_b[p]*y - coeff_c[p]``.  Returns
    ``(clo_x, clo_y, clo_counts, far_x, far_y, far_counts)``: compacted
    deduped rings in piece order, with full-length count arrays —
    ``far_counts[p] == 0`` whenever ``not want_farther[p]`` (the
    farther child of a budget-exhausted piece is discarded without
    being built).

    The pieces are split into ranges for the kernel thread pool and
    each range's outputs are concatenated in chunk order, so any worker
    count reproduces the serial floats bitwise.
    """
    n = int(pc.shape[0])
    if n == 0:
        z = np.zeros(0)
        zc = np.zeros(0, dtype=np.int64)
        return z, z, zc, z.copy(), z.copy(), zc.copy()
    want = np.asarray(want_farther, dtype=bool)
    ranges = split_ranges(n, min_per_worker=512)
    parts = run_chunk_tasks(
        [
            (
                lambda lo=lo, hi=hi: _clip_crossing_numpy(
                    pool_x, pool_y, pstart[lo:hi], pc[lo:hi],
                    coeff_a[lo:hi], coeff_b[lo:hi], coeff_c[lo:hi],
                    want[lo:hi], eps,
                )
            )
            for lo, hi in ranges
        ]
    )
    if len(parts) == 1:
        return parts[0]
    return tuple(np.concatenate([part[j] for part in parts]) for j in range(6))


def _clip_crossing_numpy(
    pool_x, pool_y, pstart, pc, a_cross, b_cross, c_cross, want, eps
):
    """Body of :func:`clip_crossing_pieces`: the pre-seam fused expressions."""
    ccounts = pc
    ctotal = int(ccounts.sum())
    cgather = ragged_indices(pstart, ccounts)
    cvx = pool_x[cgather]
    cvy = pool_y[cgather]
    vert_piece = segment_ids(ccounts, ctotal)
    cval = (
        a_cross[vert_piece] * cvx
        + b_cross[vert_piece] * cvy
        - c_cross[vert_piece]
    )
    cstarts = np.cumsum(ccounts) - ccounts
    prev = np.arange(ctotal, dtype=np.int64) - 1
    prev[cstarts] = cstarts + ccounts - 1
    pvx = cvx[prev]
    pvy = cvy[prev]
    pval = cval[prev]
    inside_c = cval <= eps
    prev_in_c = pval <= eps
    cross_c = inside_c != prev_in_c
    # Edge/bisector intersections: one evaluation shared by both sides,
    # in the exact scalar grouping (midpoint fallback for degenerate
    # edges, clamped interpolation parameter).
    denom = pval - cval
    degen = np.abs(denom) <= EPS * EPS
    t = np.clip(pval / np.where(degen, 1.0, denom), 0.0, 1.0)
    ipx = np.where(degen, (pvx + cvx) / 2.0, pvx + t * (cvx - pvx))
    ipy = np.where(degen, (pvy + cvy) / 2.0, pvy + t * (cvy - pvy))
    # Emission slots per vertex: [intersection, current vertex] — the
    # scalar append order.
    n2 = 2 * ctotal
    ex = np.empty(n2)
    ey = np.empty(n2)
    ex[0::2] = ipx
    ex[1::2] = cvx
    ey[0::2] = ipy
    ey[1::2] = cvy
    slot_piece = np.repeat(vert_piece, 2)
    emit_c = np.empty(n2, dtype=bool)
    emit_c[0::2] = cross_c
    emit_c[1::2] = inside_c
    clo_x, clo_y, clo_counts = compress_rings(
        ex, ey, slot_piece, emit_c, ccounts.shape[0], eps
    )
    # The farther side exists only for pieces that still have clip
    # budget; the ring machinery runs on the budgeted subset only and
    # the counts are scattered back to full length (zero => discarded).
    far_counts = np.zeros(ccounts.shape[0], dtype=np.int64)
    wsel = np.nonzero(want)[0]
    if wsel.size:
        fcounts = ccounts[wsel]
        fg = ragged_indices(cstarts[wsel], fcounts)
        cval_f = cval[fg]
        pval_f = pval[fg]
        inside_f = cval_f >= -eps
        prev_in_f = pval_f >= -eps
        cross_f = inside_f != prev_in_f
        nf2 = 2 * fg.shape[0]
        fx = np.empty(nf2)
        fy = np.empty(nf2)
        fx[0::2] = ipx[fg]
        fx[1::2] = cvx[fg]
        fy[0::2] = ipy[fg]
        fy[1::2] = cvy[fg]
        slot_piece_f = np.repeat(segment_ids(fcounts, fg.shape[0]), 2)
        emit_f = np.empty(nf2, dtype=bool)
        emit_f[0::2] = cross_f
        emit_f[1::2] = inside_f
        far_x, far_y, fcnt = compress_rings(
            fx, fy, slot_piece_f, emit_f, wsel.size, eps
        )
        far_counts[wsel] = fcnt
    else:
        far_x = np.zeros(0)
        far_y = np.zeros(0)
    return clo_x, clo_y, clo_counts, far_x, far_y, far_counts


def compress_rings(
    ex: np.ndarray,
    ey: np.ndarray,
    ring_of_slot: np.ndarray,
    emit: np.ndarray,
    nrings: int,
    eps: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Compact emitted clip vertices into deduped rings.

    Consecutive vertices within ``eps`` (per axis) are collapsed, then
    trailing vertices cyclically equal to the ring head are dropped —
    array-pass analogues of the scalar running dedupe in
    ``split_ring_halfplane`` (identical except on chains of 3+ vertices
    that are pairwise but not transitively within ``eps``, which the
    sparse tier's tolerance contract covers).  Whole-array dedupe
    passes run until a fixpoint.
    """
    x = ex[emit]
    y = ey[emit]
    ring = ring_of_slot[emit]
    counts = np.bincount(ring, minlength=nrings)
    while x.size:
        starts = np.cumsum(counts) - counts
        first = np.zeros(x.size, dtype=bool)
        first[starts[counts > 0]] = True
        prev = np.arange(x.size, dtype=np.int64) - 1
        dup = ~first & (np.abs(x - x[prev]) <= eps) & (np.abs(y - y[prev]) <= eps)
        if not dup.any():
            break
        keep = ~dup
        x = x[keep]
        y = y[keep]
        ring = ring[keep]
        counts = np.bincount(ring, minlength=nrings)
    while x.size:
        starts = np.cumsum(counts) - counts
        rows = np.nonzero(counts >= 2)[0]
        if rows.size == 0:
            break
        lasts = starts[rows] + counts[rows] - 1
        close = (np.abs(x[lasts] - x[starts[rows]]) <= eps) & (
            np.abs(y[lasts] - y[starts[rows]]) <= eps
        )
        if not close.any():
            break
        drop = np.zeros(x.size, dtype=bool)
        drop[lasts[close]] = True
        keep = ~drop
        x = x[keep]
        y = y[keep]
        ring = ring[keep]
        counts = np.bincount(ring, minlength=nrings)
    return x, y, counts


# ----------------------------------------------------------------------
# Ragged-index primitives (shared with the sparse kernels)
# ----------------------------------------------------------------------
def ragged_indices(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Flat gather indices for ragged runs ``[starts[i], starts[i]+counts[i])``.

    Single-cumsum construction (no ``np.repeat``): the output is seeded
    with ones, each segment boundary carries the jump from the previous
    segment's last index to the next segment's start, and one cumulative
    sum materialises every run.  Empty runs are skipped up front.
    """
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    nz = counts > 0
    if not nz.all():
        starts = starts[nz]
        counts = counts[nz]
    out = np.ones(total, dtype=np.int64)
    out[0] = starts[0]
    if starts.shape[0] > 1:
        ends = np.cumsum(counts[:-1])
        out[ends] = starts[1:] - starts[:-1] - counts[:-1] + 1
    return np.cumsum(out)


def segment_ids(counts: np.ndarray, total: Optional[int] = None) -> np.ndarray:
    """Segment id of every element of ragged runs with the given counts.

    The ``np.repeat(np.arange(n), counts)`` replacement: a bincount of
    the inner run boundaries followed by one cumulative sum.  Empty
    segments are handled (their ids are simply skipped).
    """
    if total is None:
        total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    ends = np.cumsum(counts)[:-1]
    ends = ends[ends < total]
    if ends.size == 0:
        return np.zeros(total, dtype=np.int64)
    bumps = np.bincount(ends, minlength=total)
    return np.cumsum(bumps)


def segment_argsort(keys: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Stable argsort of ``keys`` within consecutive segments of ``counts``.

    Returns exactly ``np.lexsort((keys, segment_ids(counts)))`` for
    NaN-free keys, without the global two-key sort: segments are grouped
    into width classes by the bit length of their count, and each class
    is one inf-padded ``(segments, width)`` panel sorted row by row with
    ``np.argsort(axis=1, kind="stable")``.  A class's counts all share
    one bit length, so its panel pads to less than twice its entries.
    Stability keeps a real ``inf`` key ahead of the padding after it.
    """
    total = int(keys.shape[0])
    out = np.empty(total, dtype=np.int64)
    if total == 0:
        return out
    starts = np.cumsum(counts) - counts
    bits = np.frexp(counts.astype(np.float64))[1]
    for bit in np.unique(bits[counts > 0]):
        segs = np.nonzero(bits == bit)[0]
        seg_start = starts[segs]
        seg_count = counts[segs]
        flat = ragged_indices(seg_start, seg_count)
        valid = np.arange(int(seg_count.max())) < seg_count[:, None]
        panel = np.full(valid.shape, np.inf)
        panel[valid] = keys[flat]
        order = np.argsort(panel, axis=1, kind="stable")
        order += seg_start[:, None]
        out[flat] = order[valid]
    return out
