"""Vectorised, decision-exact free-area containment over point arrays.

:class:`BatchedRegionContainment` answers ``Region.contains`` for whole
sample batches.  It sits in the regions layer because ``Region`` itself
samples through it (:meth:`~repro.regions.region.Region.random_points`);
above it, the distributed runtime uses it for Algorithm 2's circle
checks and the move stage for its region clamp.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.geometry.primitives import EPS, Point

#: Half-width, in ulps of ``eps``, of the band of edge distances whose
#: boundary decision is re-made by the scalar test: ``np.hypot`` and
#: the scalar test's ``math.hypot`` differ by at most one ulp.
_BAND_ULPS = 4


class _PolygonArrays:
    """Edge arrays of one polygon, precomputed for batched queries."""

    def __init__(self, polygon: Sequence[Point]) -> None:
        verts = np.asarray(polygon, dtype=float).reshape(-1, 2)
        # Closed edge list a -> b with a = vertex i, b = vertex i+1
        # (cyclic); the scalar ray cast pairs vertex i with the
        # *previous* vertex j, which is the same edge set.
        ax = verts[:, 0]
        ay = verts[:, 1]
        bx = np.roll(ax, -1)
        by = np.roll(ay, -1)
        self.ax, self.ay, self.bx, self.by = ax, ay, bx, by
        self.dx = bx - ax
        self.dy = by - ay
        seg_len_sq = self.dx * self.dx + self.dy * self.dy
        self.degenerate = seg_len_sq <= EPS * EPS
        # Avoid 0/0 in the vectorized projection; degenerate edges take
        # the point-to-endpoint branch instead.
        self.seg_len_sq = np.where(self.degenerate, 1.0, seg_len_sq)

    def on_boundary(self, xs: np.ndarray, ys: np.ndarray, eps: float):
        """Per-sample "within eps of any edge", and where that is unsure.

        Elementwise the arithmetic is ``point_segment_distance``'s —
        projection parameter, clamp, foot point, hypot — except that
        ``np.hypot`` may differ from the scalar ``math.hypot`` by one
        ulp.  So the verdict is exact except for samples with an edge
        distance within a few ulps of ``eps``; the second mask flags
        those, for the caller to re-decide with the scalar test.
        """
        dist = self.edge_distances(xs, ys)
        band = _BAND_ULPS * np.spacing(eps)
        return (dist <= eps).any(axis=1), (np.abs(dist - eps) <= band).any(axis=1)

    def edge_distances(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """``(samples, edges)`` point-to-segment distances (``on_boundary``'s)."""
        px = xs[:, None]
        py = ys[:, None]
        t = ((px - self.ax) * self.dx + (py - self.ay) * self.dy) / self.seg_len_sq
        t = np.clip(t, 0.0, 1.0)
        cx = self.ax + t * self.dx
        cy = self.ay + t * self.dy
        dist = np.hypot(px - cx, py - cy)
        if self.degenerate.any():
            endpoint = np.hypot(px - self.ax, py - self.ay)
            dist = np.where(self.degenerate[None, :], endpoint, dist)
        return dist

    def ray_cast(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Per-sample ray-cast parity, matching ``point_in_polygon``.

        The scalar loop visits vertex ``i`` paired with its *previous*
        vertex ``j`` and computes the crossing abscissa as
        ``(xj - xi) * (y - yi) / (yj - yi) + xi``; on the edge
        ``a -> b`` that makes ``i`` the edge end ``b`` and ``j`` the
        edge start ``a``, and the formula below keeps that exact
        operand grouping.  Edges that do not straddle the scan line are
        masked out before the division's result is consumed, exactly
        like the scalar short-circuit.
        """
        px = xs[:, None]
        py = ys[:, None]
        straddles = (self.by[None, :] > py) != (self.ay[None, :] > py)
        with np.errstate(divide="ignore", invalid="ignore"):
            x_cross = (self.ax - self.bx) * (py - self.by) / (self.ay - self.by) + self.bx
        crossings = (straddles & (px < x_cross)).sum(axis=1)
        return (crossings % 2).astype(bool)


class BatchedRegionContainment:
    """Vectorised, decision-exact ``Region.contains`` over sample arrays.

    Precomputes the edge arrays of the outer boundary and every hole
    once; :meth:`contains` then answers an entire batch of points with
    a handful of broadcast operations while reproducing the scalar
    decision ``point_in_polygon(p, outer, include_boundary=True) and
    not any(point_in_polygon(p, hole, include_boundary=False))`` —
    boundary points of the outer polygon count as inside, boundary
    points of a hole count as *outside* the hole (hence still free).
    The few samples whose boundary test sits within float noise of
    ``eps`` take the scalar test itself, so every verdict is exact.
    """

    #: Boundary tolerance; ``Region.contains``'s (``point_in_polygon``'s default).
    eps = EPS

    def __init__(self, region) -> None:
        self._region = region
        self._outer = _PolygonArrays(region.outer)
        self._holes = [_PolygonArrays(hole) for hole in region.holes]

    def contains(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Boolean free-area mask for the sample points ``(xs, ys)``.

        Samples whose distance to some edge lies within a few ulps of
        ``eps`` (where ``np.hypot`` could tip the boundary test) are
        re-decided one by one with the scalar ``Region.contains``.
        """
        on_outer, unsure = self._outer.on_boundary(xs, ys, self.eps)
        inside = on_outer | self._outer.ray_cast(xs, ys)
        for hole in self._holes:
            on_hole, unsure_hole = hole.on_boundary(xs, ys, self.eps)
            inside &= ~(~on_hole & hole.ray_cast(xs, ys))
            unsure |= unsure_hole
        contains = self._region.contains
        for i in np.nonzero(unsure)[0].tolist():
            inside[i] = contains((float(xs[i]), float(ys[i])))
        return inside

    def clearance(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Distance from each point to the nearest outer or hole edge.

        Same arithmetic as the boundary test of :meth:`contains`.  Every
        point of the open disk of radius ``clearance - eps`` around a
        point lies farther than ``eps`` from every edge, so — float
        noise aside, which a caller's margin must absorb — the whole
        disk shares that point's :meth:`contains` verdict.
        """
        nearest = self._outer.edge_distances(xs, ys).min(axis=1)
        for hole in self._holes:
            np.minimum(nearest, hole.edge_distances(xs, ys).min(axis=1), out=nearest)
        return nearest
