"""Plain-loop oracles of the kernel seams and of the deployers' move stage.

Each kernel function is a scalar, per-piece (or per-row) rewrite of one
seam's NumPy body in ``repro.engine.jit_kernels``, using the same
IEEE-754 operations in the same grouping.  They write into
caller-provided output arrays.  ``test_kernel_tiers.py`` compares them
with the seams, bitwise: half-plane values, first events, clip vertices
and ring compression.

The move-stage oracles at the end are the per-node loops the deployers
ran before their move stage and ``result()`` became array code: the
scalar ``MobilityModel.constrain``, the per-node ``apply_moves`` and
the ``DominatingRegion.circumradius`` finalize.
``test_move_finalize.py`` holds the array code to them, bitwise.
"""

from __future__ import annotations

import math

import numpy as np


def _halfplane_minmax_loops(vx, vy, starts, counts, ca, cb, cc, pmax, pmin):
    """Per-piece max/min of ``a*x + b*y - c`` over the piece's vertices.

    The arithmetic is the exact IEEE grouping of the NumPy reference
    (one multiply-add chain per vertex, plain comparisons for the
    reductions), so the results are bitwise identical.
    """
    for p in range(starts.shape[0]):
        s = starts[p]
        e = s + counts[p]
        a = ca[p]
        b = cb[p]
        c = cc[p]
        hi = -np.inf
        lo = np.inf
        for i in range(s, e):
            v = a * vx[i] + b * vy[i] - c
            if v > hi:
                hi = v
            if v < lo:
                lo = v
        pmax[p] = hi
        pmin[p] = lo


def _classify_first_events_loops(
    pool_x, pool_y, pstart, pc, centry, nblk, ca, cb, cc, sep, eps,
    first_out, kind_out,
):
    """First clip event per piece over its competitor lookahead block.

    Piece ``p`` owns ``pc[p]`` pool vertices at ``pstart[p]`` and a
    block of ``nblk[p]`` upcoming competitors whose bisector
    coefficients sit contiguously at ``centry[p]`` in ``ca/cb/cc``.
    Walking the block in order, a non-separated competitor is skipped
    outright and a separated one whose signed maximum over the piece's
    vertices is ``<= eps`` is untouched; the first other entry is the
    event: kind 1 (all-out) when the signed minimum is ``>= -eps``,
    else kind 2 (crossing).  ``first_out[p]`` is the event's block
    position (``nblk[p]`` when none fired; ``kind_out[p]`` is 0 then).

    Unlike the NumPy reference — which evaluates the whole block and
    discards entries past the event — the walk stops at the event, with
    identical decisions.
    """
    for p in range(pstart.shape[0]):
        s = pstart[p]
        e = s + pc[p]
        base = centry[p]
        n = nblk[p]
        evt = n
        kind = 0
        for b in range(n):
            ci = base + b
            if not sep[ci]:
                continue
            a = ca[ci]
            bb = cb[ci]
            c = cc[ci]
            hi = -np.inf
            lo = np.inf
            for i in range(s, e):
                v = a * pool_x[i] + bb * pool_y[i] - c
                if v > hi:
                    hi = v
                if v < lo:
                    lo = v
            if hi <= eps:
                continue
            evt = b
            if lo >= -eps:
                kind = 1
            else:
                kind = 2
            break
        first_out[p] = evt
        kind_out[p] = kind


def _compress_ring_slot(x, y, start, m, eps):
    """In-place ring compression of ``x/y[start : start + m]``.

    Pass-for-pass analogue of the whole-array dedupe in the NumPy
    reference: each pass compares every vertex against its predecessor
    *in the current array* (pre-compaction values), removes all flagged
    duplicates at once, and repeats until a pass removes nothing; then
    trailing vertices cyclically within ``eps`` of the ring head are
    dropped.  Returns the compressed vertex count.
    """
    while m > 0:
        ndup = 0
        w = 1
        prevx = x[start]
        prevy = y[start]
        for r in range(1, m):
            curx = x[start + r]
            cury = y[start + r]
            if abs(curx - prevx) <= eps and abs(cury - prevy) <= eps:
                ndup += 1
            else:
                x[start + w] = curx
                y[start + w] = cury
                w += 1
            prevx = curx
            prevy = cury
        m = w
        if ndup == 0:
            break
    while (
        m >= 2
        and abs(x[start + m - 1] - x[start]) <= eps
        and abs(y[start + m - 1] - y[start]) <= eps
    ):
        m -= 1
    return m


def _compress_rings_loops(x, y, starts, counts, eps, out_counts):
    """Per-ring compression over rings already compacted into slots."""
    for r in range(starts.shape[0]):
        out_counts[r] = _compress_ring_slot(x, y, starts[r], counts[r], eps)


def _clip_crossing_loops(
    pool_x, pool_y, pstart, pc, ca, cb, cc, want_farther, eps, degen_eps,
    slot_start, clo_x, clo_y, clo_n, far_x, far_y, far_n,
):
    """Fused two-sided Sutherland–Hodgman + ring compression per piece.

    Piece ``p`` (``pc[p]`` pool vertices at ``pstart[p]``) is split by
    its event bisector ``ca[p]*x + cb[p]*y - cc[p]``: the closer-side
    child keeps ``value <= eps`` vertices, the farther-side child (only
    when ``want_farther[p]``) keeps ``value >= -eps`` vertices, and
    edge/bisector intersections are computed once and emitted to both
    sides in the scalar append order ``[intersection, current vertex]``.
    Children are written into the disjoint slot windows
    ``[slot_start[p], slot_start[p] + 2*pc[p])`` of the output buffers
    and compressed in place; ``clo_n/far_n[p]`` receive the final
    counts.  The arithmetic is the exact IEEE grouping of the NumPy
    reference (midpoint fallback for degenerate edges, clamped
    interpolation parameter), so emitted vertices are bitwise identical.
    """
    for p in range(pstart.shape[0]):
        s = pstart[p]
        n = pc[p]
        a = ca[p]
        b = cb[p]
        c = cc[p]
        base = slot_start[p]
        wantf = want_farther[p]
        mclo = 0
        mfar = 0
        pvx = pool_x[s + n - 1]
        pvy = pool_y[s + n - 1]
        pval = a * pvx + b * pvy - c
        for i in range(n):
            cvx = pool_x[s + i]
            cvy = pool_y[s + i]
            cval = a * cvx + b * cvy - c
            inside_c = cval <= eps
            prev_in_c = pval <= eps
            inside_f = cval >= -eps
            prev_in_f = pval >= -eps
            cross_c = inside_c != prev_in_c
            cross_f = inside_f != prev_in_f
            if cross_c or (wantf and cross_f):
                denom = pval - cval
                if abs(denom) <= degen_eps:
                    ipx = (pvx + cvx) / 2.0
                    ipy = (pvy + cvy) / 2.0
                else:
                    t = pval / denom
                    if t <= 0.0:
                        t = 0.0
                    elif t >= 1.0:
                        t = 1.0
                    ipx = pvx + t * (cvx - pvx)
                    ipy = pvy + t * (cvy - pvy)
                if cross_c:
                    clo_x[base + mclo] = ipx
                    clo_y[base + mclo] = ipy
                    mclo += 1
                if wantf and cross_f:
                    far_x[base + mfar] = ipx
                    far_y[base + mfar] = ipy
                    mfar += 1
            if inside_c:
                clo_x[base + mclo] = cvx
                clo_y[base + mclo] = cvy
                mclo += 1
            if wantf and inside_f:
                far_x[base + mfar] = cvx
                far_y[base + mfar] = cvy
                mfar += 1
            pvx = cvx
            pvy = cvy
            pval = cval
        clo_n[p] = _compress_ring_slot(clo_x, clo_y, base, mclo, eps)
        if wantf:
            far_n[p] = _compress_ring_slot(far_x, far_y, base, mfar, eps)
        else:
            far_n[p] = 0


# ----------------------------------------------------------------------
# Move stage and finalize
# ----------------------------------------------------------------------
def constrain_scalar(mobility, region, current, target):
    """``MobilityModel.constrain`` as the scalar per-node code it was."""
    step = math.hypot(current[0] - target[0], current[1] - target[1])
    constrained = target
    if mobility.max_step is not None and step > mobility.max_step:
        fraction = mobility.max_step / step
        constrained = (
            current[0] + fraction * (target[0] - current[0]),
            current[1] + fraction * (target[1] - current[1]),
        )
    if mobility.keep_in_region and not region.contains(constrained):
        constrained = region.nearest_free_point(constrained)
    return constrained


def apply_moves_scalar(network, targets, clamp_to_region=True):
    """``SensorNetwork.apply_moves`` as one ``Node.move_to`` per entry."""
    moved = {}
    for node_id, new_position in targets.items():
        node = network.node(node_id)
        target = (float(new_position[0]), float(new_position[1]))
        if clamp_to_region and not network.region.contains(target):
            target = network.region.nearest_free_point(target)
        moved[node_id] = node.move_to(target)
    if moved:
        network._invalidate()
    return moved


def move_to_centers_scalar(network, mobility, centers, alpha, epsilon):
    """The centralized deployer's per-node move loop."""
    moves = {}
    for node_id, center in centers.items():
        node = network.node(node_id)
        position = node.position
        if math.hypot(position[0] - center[0], position[1] - center[1]) <= epsilon:
            continue
        target = (
            position[0] + alpha * (center[0] - position[0]),
            position[1] + alpha * (center[1] - position[1]),
        )
        moves[node_id] = constrain_scalar(mobility, network.region, position, target)
    return apply_moves_scalar(network, moves, mobility.keep_in_region)


def move_to_targets_scalar(network, mobility, proposed):
    """The distributed deployer's per-node move loop."""
    moves = {
        node_id: constrain_scalar(
            mobility, network.region, network.node(node_id).position, target
        )
        for node_id, target in proposed.items()
    }
    return apply_moves_scalar(network, moves, mobility.keep_in_region)


def final_ranges_scalar(network, regions):
    """``result()``'s per-node ``DominatingRegion.circumradius`` loop."""
    ranges = []
    for node in network.nodes:
        region = regions.get(node.node_id)
        if not node.alive or region is None:
            ranges.append(0.0)
            continue
        r = region.circumradius(node.position)
        network.set_sensing_range(node.node_id, r)
        ranges.append(r)
    return ranges
