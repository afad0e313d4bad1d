"""Unit tests for repro.regions.region.Region."""

import math

import numpy as np
import pytest

from repro.geometry.polygon import polygon_area
from repro.regions.containment import BatchedRegionContainment
from repro.regions.region import Region
from repro.regions.shapes import (
    figure8_region_one,
    figure8_region_two,
    l_shaped_region,
    square_region,
    unit_square,
)


def _scalar_random_points(region, count, rng):
    """The one-attempt-at-a-time rejection sampler ``random_points`` batches."""
    xmin, ymin, xmax, ymax = region.bbox
    points = []
    attempts = 0
    max_attempts = max(1000, 1000 * count)
    while len(points) < count and attempts < max_attempts:
        attempts += 1
        p = (float(rng.uniform(xmin, xmax)), float(rng.uniform(ymin, ymax)))
        if region.contains(p):
            points.append(p)
    if len(points) < count:
        raise RuntimeError("rejection sampling failed")
    return points


class TestConstruction:
    def test_too_few_outer_vertices_rejected(self):
        with pytest.raises(ValueError):
            Region([(0, 0), (1, 0)])

    def test_too_few_hole_vertices_rejected(self):
        with pytest.raises(ValueError):
            Region([(0, 0), (1, 0), (1, 1), (0, 1)], holes=[[(0.4, 0.4), (0.6, 0.4)]])

    def test_outer_stored_ccw(self):
        clockwise = [(0, 0), (0, 1), (1, 1), (1, 0)]
        region = Region(clockwise)
        from repro.geometry.polygon import signed_area

        assert signed_area(region.outer) > 0

    def test_repr_contains_name(self):
        assert "unit" in repr(unit_square("unit")).lower()


class TestMeasures:
    def test_unit_square_area(self):
        assert unit_square().area == pytest.approx(1.0)

    def test_area_subtracts_holes(self, holed_region):
        assert holed_region.area == pytest.approx(1.0 - 0.04)

    def test_bbox(self):
        region = square_region(2.0, origin=(1.0, 1.0))
        assert region.bbox == (1.0, 1.0, 3.0, 3.0)

    def test_diameter(self):
        assert unit_square().diameter == pytest.approx(math.sqrt(2.0))


class TestContainment:
    def test_interior_point(self, square):
        assert square.contains((0.5, 0.5))

    def test_exterior_point(self, square):
        assert not square.contains((1.5, 0.5))

    def test_hole_interior_excluded(self, holed_region):
        assert not holed_region.contains((0.5, 0.5))

    def test_point_outside_hole_included(self, holed_region):
        assert holed_region.contains((0.1, 0.1))

    def test_boundary_point(self, square):
        assert square.contains((0.0, 0.5))
        assert not square.contains((0.0, 0.5), include_boundary=False)


def _ulp_walk(x, y, axis, steps):
    """Points stepping ``x`` (axis 0) or ``y`` (axis 1) one ulp at a time."""
    points = []
    for k in range(-steps, steps + 1):
        p = [x, y]
        for _ in range(abs(k)):
            p[axis] = math.nextafter(p[axis], math.inf if k > 0 else -math.inf)
        points.append(tuple(p))
    return points


def _batched(region, points):
    xy = np.array(points, dtype=float)
    return BatchedRegionContainment(region).contains(xy[:, 0], xy[:, 1]).tolist()


class TestBatchedContainmentExact:
    """The batched test equals ``Region.contains`` point for point.

    Points exactly ``eps`` from an edge are where ``np.hypot`` (batched)
    and ``math.hypot`` (scalar) can fall on opposite sides of the
    boundary test; the batched code re-decides that band with the
    scalar test.
    """

    EPS = 1e-9

    # (dx, dy) offsets from a corner whose two hypots straddle eps:
    # math.hypot <= eps < np.hypot, then np.hypot <= eps < math.hypot.
    STRADDLE = [
        (6.767573893959422e-10, 7.36206109658151e-10),
        (5.459588949427442e-10, 8.378119628131947e-10),
    ]

    def test_straddling_offsets_really_disagree(self):
        for dx, dy in self.STRADDLE:
            assert (math.hypot(dx, dy) <= self.EPS) != (float(np.hypot(dx, dy)) <= self.EPS)

    def test_unit_square_corner_where_hypots_disagree(self, square):
        # Outside the corner (0, 0): on the boundary iff math.hypot <= eps.
        points = [(-dx, -dy) for dx, dy in self.STRADDLE]
        expected = [square.contains(p) for p in points]
        assert expected == [True, False]
        assert _batched(square, points) == expected

    @pytest.mark.parametrize("edge_y", [0.0, 1.0])
    def test_unit_square_edges_ulp_by_ulp(self, square, edge_y):
        outward = -1.0 if edge_y == 0.0 else 1.0
        y = edge_y + outward * self.EPS
        points = _ulp_walk(0.3, y, axis=1, steps=40)
        points += _ulp_walk(1.0 + self.EPS, 0.7, axis=0, steps=40)
        expected = [square.contains(p) for p in points]
        assert True in expected and False in expected
        assert _batched(square, points) == expected

    @pytest.mark.parametrize("make_region", [figure8_region_one, figure8_region_two])
    def test_figure8_hole_edges_ulp_by_ulp(self, make_region):
        region = make_region()
        points = []
        for hole in region.holes:
            xs = [v[0] for v in hole]
            ys = [v[1] for v in hole]
            x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)
            mid_x, mid_y = (x0 + x1) / 2, (y0 + y1) / 2
            # Just inside each hole edge, about eps from it.
            points += _ulp_walk(mid_x, y0 + self.EPS, axis=1, steps=40)
            points += _ulp_walk(mid_x, y1 - self.EPS, axis=1, steps=40)
            points += _ulp_walk(x0 + self.EPS, mid_y, axis=0, steps=40)
            points += _ulp_walk(x1 - self.EPS, mid_y, axis=0, steps=40)
            # And diagonally into each corner.
            c = self.EPS / math.sqrt(2.0)
            points += _ulp_walk(x0 + c, y0 + c, axis=0, steps=40)
            points += _ulp_walk(x1 - c, y1 - c, axis=1, steps=40)
        expected = [region.contains(p) for p in points]
        assert True in expected and False in expected
        assert _batched(region, points) == expected


class TestDistancesAndProjection:
    def test_distance_to_boundary_center(self, square):
        assert square.distance_to_boundary((0.5, 0.5)) == pytest.approx(0.5)

    def test_distance_to_boundary_considers_holes(self, holed_region):
        # point near the hole edge (hole spans 0.40..0.60)
        assert holed_region.distance_to_boundary((0.35, 0.5)) == pytest.approx(0.05, abs=1e-9)

    def test_nearest_free_point_identity_for_free_points(self, square):
        assert square.nearest_free_point((0.3, 0.3)) == (0.3, 0.3)

    def test_nearest_free_point_outside_region(self, square):
        projected = square.nearest_free_point((1.5, 0.5))
        assert square.contains(projected)
        assert projected[0] == pytest.approx(1.0, abs=1e-6)

    def test_nearest_free_point_inside_hole(self, holed_region):
        projected = holed_region.nearest_free_point((0.5, 0.5))
        assert holed_region.contains(projected)
        # The projection lands on the hole boundary (0.1 away from center).
        assert math.hypot(projected[0] - 0.5, projected[1] - 0.5) == pytest.approx(0.1, abs=0.02)


class TestDecompositionAndClipping:
    def test_convex_pieces_tile_free_area(self, complex_region):
        pieces = complex_region.convex_pieces()
        assert sum(polygon_area(p) for p in pieces) == pytest.approx(complex_region.area)

    def test_convex_pieces_cached(self, square):
        assert square.convex_pieces() is square.convex_pieces()

    def test_clip_convex_inside(self, square):
        window = [(0.2, 0.2), (0.4, 0.2), (0.4, 0.4), (0.2, 0.4)]
        pieces = square.clip_convex(window)
        assert sum(polygon_area(p) for p in pieces) == pytest.approx(0.04)

    def test_clip_convex_respects_holes(self, holed_region):
        window = [(0.3, 0.3), (0.7, 0.3), (0.7, 0.7), (0.3, 0.7)]
        pieces = holed_region.clip_convex(window)
        assert sum(polygon_area(p) for p in pieces) == pytest.approx(0.16 - 0.04)

    def test_clip_convex_outside_is_empty(self, square):
        window = [(2.0, 2.0), (3.0, 2.0), (3.0, 3.0), (2.0, 3.0)]
        assert square.clip_convex(window) == []


class TestSampling:
    def test_grid_points_inside(self, holed_region):
        pts = holed_region.grid_points(21)
        assert pts
        assert all(holed_region.contains(p) for p in pts)
        assert all(not (0.42 < x < 0.58 and 0.42 < y < 0.58) for x, y in pts)

    def test_grid_resolution_validation(self, square):
        with pytest.raises(ValueError):
            square.grid_points(1)

    def test_random_points_inside(self, complex_region, rng):
        pts = complex_region.random_points(50, rng=rng)
        assert len(pts) == 50
        assert all(complex_region.contains(p) for p in pts)

    def test_random_points_negative_count_rejected(self, square):
        with pytest.raises(ValueError):
            square.random_points(-1)

    def test_random_points_deterministic_with_seed(self, square):
        a = square.random_points(5, rng=np.random.default_rng(9))
        b = square.random_points(5, rng=np.random.default_rng(9))
        assert a == b

    @pytest.mark.parametrize(
        "region",
        [
            unit_square(),
            figure8_region_one(),
            figure8_region_two(),
            l_shaped_region(),
            # A diagonal sliver, 1% of its bounding box: most attempts fail.
            Region([(0.0, 0.0), (0.01, 0.0), (1.0, 1.0), (0.99, 1.0)]),
        ],
        ids=["square", "fig8-holes", "fig8-l-holes", "l-shape", "low-acceptance"],
    )
    @pytest.mark.parametrize("count", [0, 1, 7, 300])
    def test_random_points_match_one_attempt_at_a_time(self, region, count):
        fast_rng = np.random.default_rng(count + 11)
        slow_rng = np.random.default_rng(count + 11)
        assert region.random_points(count, rng=fast_rng) == _scalar_random_points(
            region, count, slow_rng
        )
        assert fast_rng.bit_generator.state == slow_rng.bit_generator.state

    def test_random_points_failure_matches_one_attempt_at_a_time(self):
        # A diagonal needle, 1e-5 of its bounding box: 2000 attempts
        # place both points with probability ~2e-4.
        needle = Region([(0.0, 0.0), (1e-5, 0.0), (1.0, 1.0), (1.0 - 1e-5, 1.0)])
        fast_rng = np.random.default_rng(3)
        slow_rng = np.random.default_rng(3)
        with pytest.raises(RuntimeError, match="rejection sampling failed"):
            needle.random_points(2, rng=fast_rng)
        with pytest.raises(RuntimeError, match="rejection sampling failed"):
            _scalar_random_points(needle, 2, slow_rng)
        assert fast_rng.bit_generator.state == slow_rng.bit_generator.state

    def test_vertices_include_holes(self, holed_region):
        assert len(holed_region.vertices()) == 4 + 4
