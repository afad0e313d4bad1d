"""Low-level 2-D vector primitives.

Points are plain ``(x, y)`` tuples of floats throughout the geometry
package.  Keeping them as tuples (rather than wrapping every coordinate
pair in a class) keeps the inner loops of the Voronoi engine cheap and
makes it trivial to interoperate with numpy arrays: ``tuple(arr)`` and
``np.asarray(point)`` are both free of surprises.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence, Tuple

import numpy as np

#: Canonical point type used across the geometry package.
Point = Tuple[float, float]

#: Default absolute tolerance for geometric comparisons.  The LAACAD
#: experiments work on areas of roughly unit scale (1 km^2 expressed in
#: km), so an absolute epsilon of 1e-9 is far below any meaningful
#: feature size while staying well above double-precision noise that
#: accumulates in the clipping cascades.
EPS = 1e-9


def almost_equal(a: float, b: float, eps: float = EPS) -> bool:
    """Return ``True`` when two scalars differ by less than ``eps``."""
    return abs(a - b) <= eps


def points_close(p: Point, q: Point, eps: float = EPS) -> bool:
    """Return ``True`` when two points coincide up to ``eps`` per axis."""
    return abs(p[0] - q[0]) <= eps and abs(p[1] - q[1]) <= eps


def add(p: Point, q: Point) -> Point:
    """Component-wise sum of two points/vectors."""
    return (p[0] + q[0], p[1] + q[1])


def sub(p: Point, q: Point) -> Point:
    """Vector from ``q`` to ``p`` (i.e. ``p - q``)."""
    return (p[0] - q[0], p[1] - q[1])


def scale(p: Point, factor: float) -> Point:
    """Scale a vector by ``factor``."""
    return (p[0] * factor, p[1] * factor)


def dot(p: Point, q: Point) -> float:
    """Dot product of two vectors."""
    return p[0] * q[0] + p[1] * q[1]


def cross(p: Point, q: Point) -> float:
    """2-D cross product (z component of the 3-D cross product)."""
    return p[0] * q[1] - p[1] * q[0]


def norm(p: Point) -> float:
    """Euclidean length of a vector."""
    return math.hypot(p[0], p[1])


def distance(p: Point, q: Point) -> float:
    """Euclidean distance between two points."""
    return math.hypot(p[0] - q[0], p[1] - q[1])


def hypot_exact(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Elementwise :func:`math.hypot` over two float arrays.

    ``np.hypot`` and ``math.hypot`` differ in the last bit on a few
    pairs in a thousand; every length that feeds a decision or a stored
    value (the move stage's epsilon test and step limit, the distance a
    node travels, a final sensing range) goes through here so the array
    code keeps the scalar code's floats exactly.
    """
    return np.fromiter(
        map(math.hypot, dx.tolist(), dy.tolist()), dtype=float, count=len(dx)
    )


def distance_sq(p: Point, q: Point) -> float:
    """Squared Euclidean distance (avoids the sqrt in hot loops)."""
    dx = p[0] - q[0]
    dy = p[1] - q[1]
    return dx * dx + dy * dy


def normalize(p: Point) -> Point:
    """Return the unit vector in the direction of ``p``.

    Raises:
        ValueError: if ``p`` is (numerically) the zero vector.
    """
    length = norm(p)
    if length <= EPS:
        raise ValueError("cannot normalize a zero-length vector")
    return (p[0] / length, p[1] / length)


def perpendicular(p: Point) -> Point:
    """Return ``p`` rotated by +90 degrees (counter-clockwise)."""
    return (-p[1], p[0])


def midpoint(p: Point, q: Point) -> Point:
    """Midpoint of the segment ``pq``."""
    return ((p[0] + q[0]) / 2.0, (p[1] + q[1]) / 2.0)


def lerp(p: Point, q: Point, t: float) -> Point:
    """Linear interpolation ``p + t * (q - p)``.

    ``t = 0`` yields ``p``; ``t = 1`` yields ``q``.  Values outside
    ``[0, 1]`` extrapolate along the same line, which is occasionally
    useful for constructing far points on bisectors.
    """
    return (p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]))


def centroid_of_points(points: Sequence[Point]) -> Point:
    """Arithmetic mean of a non-empty collection of points."""
    pts = list(points)
    if not pts:
        raise ValueError("centroid of an empty point set is undefined")
    sx = sum(p[0] for p in pts)
    sy = sum(p[1] for p in pts)
    n = float(len(pts))
    return (sx / n, sy / n)


def as_point(value: Iterable[float]) -> Point:
    """Coerce any two-element iterable (list, numpy row, ...) to a Point."""
    it = iter(value)
    try:
        x = float(next(it))
        y = float(next(it))
    except StopIteration as exc:  # pragma: no cover - defensive
        raise ValueError("a point requires exactly two coordinates") from exc
    return (x, y)
