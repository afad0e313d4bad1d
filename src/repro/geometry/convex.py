"""Convex hulls and convexity tests."""

from __future__ import annotations

import math
from typing import List, Sequence

from repro.geometry.predicates import Orientation, orientation
from repro.geometry.primitives import EPS, Point, cross, sub


def convex_hull(points: Sequence[Point], eps: float = EPS) -> List[Point]:
    """Convex hull of a point set (Andrew's monotone chain).

    Returns the hull vertices in counter-clockwise order with collinear
    interior points removed.  Degenerate inputs are handled gracefully:
    zero points yield ``[]``, one point yields that point, and a fully
    collinear set yields its two extreme points.
    """
    unique = sorted(set((float(p[0]), float(p[1])) for p in points))
    if len(unique) <= 2:
        return list(unique)

    def half_hull(pts: Sequence[Point]) -> List[Point]:
        hull: List[Point] = []
        for p in pts:
            while len(hull) >= 2:
                anchor, middle = hull[-2], hull[-1]
                turn = cross(sub(middle, anchor), sub(p, anchor))
                if turn < 0.0:
                    hull.pop()
                    continue
                span = sub(p, anchor)
                # The cross product is the middle vertex's distance from
                # the anchor-p line times the span, so below unit span
                # the threshold scales with the span: a tiny span (e.g.
                # a denormal x breaking the sort tie of a vertical
                # triple) gives a tiny cross product even for a vertex
                # far off the line.
                if turn <= eps * min(1.0, math.hypot(span[0], span[1])):
                    # Near-collinear: drop the middle vertex only when
                    # it lies between its neighbours.  A tiny cross
                    # product can also come from a genuine left turn at
                    # degenerate coordinate scales, where the "middle"
                    # vertex is an extreme point that must stay on the
                    # hull.
                    span_sq = span[0] * span[0] + span[1] * span[1]
                    offset = sub(middle, anchor)
                    projection = offset[0] * span[0] + offset[1] * span[1]
                    if 0.0 <= projection <= span_sq:
                        hull.pop()
                        continue
                break
            hull.append(p)
        return hull

    lower = half_hull(unique)
    upper = half_hull(list(reversed(unique)))
    return lower[:-1] + upper[:-1]


def is_convex_polygon(polygon: Sequence[Point], eps: float = EPS) -> bool:
    """True when the polygon (any vertex order) is convex.

    Collinear consecutive edges are allowed.  Polygons with fewer than
    three vertices are not considered convex polygons.
    """
    n = len(polygon)
    if n < 3:
        return False
    sign = 0
    for i in range(n):
        a, b, c = polygon[i], polygon[(i + 1) % n], polygon[(i + 2) % n]
        o = orientation(a, b, c, eps)
        if o is Orientation.COLLINEAR:
            continue
        if sign == 0:
            sign = int(o)
        elif int(o) != sign:
            return False
    return True
