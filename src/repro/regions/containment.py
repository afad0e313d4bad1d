"""Vectorised, decision-exact free-area containment over point arrays.

:class:`BatchedRegionContainment` answers ``Region.contains`` for whole
sample batches.  It sits in the regions layer because ``Region`` itself
samples through it (:meth:`~repro.regions.region.Region.random_points`);
the distributed runtime above uses it for Algorithm 2's circle checks.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.geometry.primitives import EPS, Point


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

    def on_boundary(self, xs: np.ndarray, ys: np.ndarray, eps: float) -> np.ndarray:
        """Per-sample "within eps of any edge", matching the scalar test.

        Elementwise the arithmetic is ``point_segment_distance``'s —
        projection parameter, clamp, foot point, hypot — so the decision
        agrees with the scalar boundary test (``np.hypot`` 1-ulp
        latitude aside, which only matters for points exactly ``eps``
        from an edge).
        """
        return (self.edge_distances(xs, ys) <= eps).any(axis=1)

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
    decision structure bit for bit: a point is contained when it is on
    (or ray-cast inside) the outer polygon and neither strictly inside
    nor... precisely, ``point_in_polygon(p, outer,
    include_boundary=True) and not any(point_in_polygon(p, hole,
    include_boundary=False))`` — boundary points of the outer polygon
    count as inside, boundary points of a hole count as *outside* the
    hole (hence still free).
    """

    def __init__(self, region, eps: float = 1e-9) -> None:
        self.eps = eps
        self._outer = _PolygonArrays(region.outer)
        self._holes = [_PolygonArrays(hole) for hole in region.holes]

    def contains(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Boolean free-area mask for the sample points ``(xs, ys)``."""
        inside = self._outer.on_boundary(xs, ys, self.eps) | self._outer.ray_cast(
            xs, ys
        )
        for hole in self._holes:
            in_hole = ~hole.on_boundary(xs, ys, self.eps) & hole.ray_cast(xs, ys)
            inside &= ~in_hole
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
