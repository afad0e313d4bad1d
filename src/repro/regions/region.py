"""The target area ``A``: an outer polygon minus obstacle holes."""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.geometry.clipping import clip_polygon_polygon
from repro.geometry.polygon import (
    bounding_box,
    ensure_ccw,
    point_in_polygon,
    polygon_area,
    polygon_edges,
)
from repro.geometry.predicates import point_segment_distance
from repro.geometry.primitives import Point, distance
from repro.geometry.triangulate import decompose_with_holes
from repro.regions.containment import BatchedRegionContainment

Polygon = List[Point]


class Region:
    """A 2-D target area, possibly non-convex and possibly with obstacles.

    Args:
        outer: simple polygon bounding the monitored area (either
            winding; stored CCW).
        holes: simple polygons fully contained in ``outer`` that sensor
            nodes can neither occupy nor need to cover (obstacles).
        name: optional human-readable label used by the experiment
            runners when emitting results.
    """

    def __init__(
        self,
        outer: Sequence[Point],
        holes: Sequence[Sequence[Point]] = (),
        name: str = "region",
    ) -> None:
        if len(outer) < 3:
            raise ValueError("a region's outer boundary needs at least 3 vertices")
        self.outer: Polygon = ensure_ccw([(float(x), float(y)) for x, y in outer])
        self.holes: List[Polygon] = [
            ensure_ccw([(float(x), float(y)) for x, y in hole]) for hole in holes
        ]
        for hole in self.holes:
            if len(hole) < 3:
                raise ValueError("each hole needs at least 3 vertices")
        self.name = name
        self._convex_pieces: Optional[List[Polygon]] = None
        self._containment: Optional[BatchedRegionContainment] = None

    # ------------------------------------------------------------------
    # Basic measures
    # ------------------------------------------------------------------
    @property
    def area(self) -> float:
        """Free (coverable) area: outer area minus hole areas."""
        return polygon_area(self.outer) - sum(polygon_area(h) for h in self.holes)

    @property
    def bbox(self) -> Tuple[float, float, float, float]:
        """Axis-aligned bounding box ``(xmin, ymin, xmax, ymax)`` of the outer boundary."""
        return bounding_box(self.outer)

    @property
    def diameter(self) -> float:
        """Diameter of the bounding box — an upper bound for any sensing range."""
        xmin, ymin, xmax, ymax = self.bbox
        return math.hypot(xmax - xmin, ymax - ymin)

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return (
            f"Region(name={self.name!r}, outer_vertices={len(self.outer)}, "
            f"holes={len(self.holes)}, area={self.area:.4f})"
        )

    # ------------------------------------------------------------------
    # Containment and distances
    # ------------------------------------------------------------------
    def contains(self, point: Point, include_boundary: bool = True) -> bool:
        """True when ``point`` lies in the free area (outside all holes)."""
        if not point_in_polygon(point, self.outer, include_boundary=include_boundary):
            return False
        for hole in self.holes:
            if point_in_polygon(point, hole, include_boundary=not include_boundary):
                return False
        return True

    def containment(self) -> BatchedRegionContainment:
        """:meth:`contains` over whole point arrays, decision-exact (cached)."""
        if self._containment is None:
            self._containment = BatchedRegionContainment(self)
        return self._containment

    def distance_to_boundary(self, point: Point) -> float:
        """Distance from ``point`` to the nearest free-area boundary edge.

        The boundary of the free area consists of the outer polygon's
        edges and every hole's edges.
        """
        best = math.inf
        for a, b in polygon_edges(self.outer):
            best = min(best, point_segment_distance(point, a, b))
        for hole in self.holes:
            for a, b in polygon_edges(hole):
                best = min(best, point_segment_distance(point, a, b))
        return best

    def nearest_free_point(self, point: Point, samples_per_edge: int = 32) -> Point:
        """Project ``point`` onto the free area.

        If the point is already free it is returned unchanged; otherwise
        the closest point on the free-area boundary is returned (obtained
        by sampling each boundary edge and refining around the best
        sample).  Used by the mobility layer so that a node whose motion
        target falls inside an obstacle stops at the obstacle's edge.
        """
        if self.contains(point):
            return point

        best_point = None
        best_dist = math.inf
        edges: List[Tuple[Point, Point]] = list(polygon_edges(self.outer))
        for hole in self.holes:
            edges.extend(polygon_edges(hole))
        for a, b in edges:
            for t in np.linspace(0.0, 1.0, samples_per_edge):
                cand = (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))
                d = distance(point, cand)
                if d < best_dist and self.contains(cand):
                    best_dist = d
                    best_point = cand
        if best_point is None:
            # Extremely degenerate (e.g. region thinner than the sampling
            # step); fall back to the nearest outer vertex.
            best_point = min(self.outer, key=lambda v: distance(point, v))
        return best_point

    def nearest_free_points(self, xy: np.ndarray) -> np.ndarray:
        """:meth:`nearest_free_point` of every row of an ``(M, 2)`` array.

        Rows in the free area come back unchanged; the batched
        containment test picks the rest, and only those take the scalar
        projection.  Returns a new array.
        """
        out = np.array(xy, dtype=float).reshape(-1, 2)
        outside = ~self.containment().contains(out[:, 0], out[:, 1])
        for i in np.nonzero(outside)[0].tolist():
            out[i] = self.nearest_free_point((float(out[i, 0]), float(out[i, 1])))
        return out

    # ------------------------------------------------------------------
    # Decomposition and clipping
    # ------------------------------------------------------------------
    def convex_pieces(self) -> List[Polygon]:
        """Convex decomposition of the free area (cached).

        The k-order Voronoi engine runs its budgeted clipping on each
        convex piece independently and unions the results.
        """
        if self._convex_pieces is None:
            self._convex_pieces = decompose_with_holes(self.outer, self.holes)
        return self._convex_pieces

    def clip_convex(self, convex_polygon: Sequence[Point]) -> List[Polygon]:
        """Intersect a convex polygon with the free area.

        Returns a list of convex pieces (the intersection of a convex
        polygon with a non-convex free area is generally a union of
        convex pieces).
        """
        results: List[Polygon] = []
        for piece in self.convex_pieces():
            clipped = clip_polygon_polygon(piece, list(convex_polygon))
            if len(clipped) >= 3 and polygon_area(clipped) > 1e-12:
                results.append(clipped)
        return results

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def grid_points(self, resolution: int) -> List[Point]:
        """Points of a ``resolution x resolution`` grid that fall in the free area."""
        if resolution < 2:
            raise ValueError("grid resolution must be at least 2")
        xmin, ymin, xmax, ymax = self.bbox
        xs = np.linspace(xmin, xmax, resolution)
        ys = np.linspace(ymin, ymax, resolution)
        points: List[Point] = []
        for x in xs:
            for y in ys:
                p = (float(x), float(y))
                if self.contains(p):
                    points.append(p)
        return points

    def random_points(
        self, count: int, rng: Optional[np.random.Generator] = None
    ) -> List[Point]:
        """Uniformly random points in the free area.

        :meth:`rejection_sample` over the bounding box, with up to
        ``max(1000, 1000 * count)`` attempts.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        if rng is None:
            rng = np.random.default_rng()
        xmin, ymin, xmax, ymax = self.bbox
        points = self.rejection_sample(
            rng, (xmin, ymin), (xmax, ymax), count, max(1000, 1000 * count)
        )
        if len(points) < count:
            raise RuntimeError(
                "rejection sampling failed to place the requested number of "
                "points; the free area is too small relative to its bounding box"
            )
        return points

    def rejection_sample(
        self,
        rng: np.random.Generator,
        low: Point,
        high: Point,
        count: int,
        max_attempts: int,
    ) -> List[Point]:
        """Up to ``count`` uniform points of the box ``[low, high)`` in the free area.

        Each attempt draws ``x`` then ``y`` and keeps the point when
        :meth:`contains` holds, until ``count`` points are kept or
        ``max_attempts`` attempts are spent.  The attempts run in
        batches of the still-needed count, tested with
        :class:`BatchedRegionContainment`; a batch never holds more
        attempts than points still missing, so no draw is wasted and the
        points and the generator's final state are exactly those of
        one-attempt-at-a-time sampling.
        """
        low_xy = np.array([low[0], low[1]], dtype=float)
        high_xy = np.array([high[0], high[1]], dtype=float)
        containment = self.containment()
        points: List[Point] = []
        attempts = 0
        while len(points) < count and attempts < max_attempts:
            batch = min(count - len(points), max_attempts - attempts)
            attempts += batch
            xy = rng.uniform(np.tile(low_xy, batch), np.tile(high_xy, batch))
            xs, ys = xy[0::2], xy[1::2]
            keep = containment.contains(xs, ys)
            points.extend(zip(xs[keep].tolist(), ys[keep].tolist()))
        return points

    def vertices(self) -> List[Point]:
        """All boundary vertices (outer + holes)."""
        verts = list(self.outer)
        for hole in self.holes:
            verts.extend(hole)
        return verts
