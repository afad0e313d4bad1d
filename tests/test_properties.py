"""Property-based tests (hypothesis) for the geometric core and its invariants.

These target the data structures and invariants everything else rests on:
Welzl circles, convex hulls, half-plane clipping, the dominating-region
engine (checked against the raster oracle and against the k * |A| tiling
identity), and the coverage checker.  The last class fuzzes the sparse
lossy gather against the legacy agents over whole multi-round runs.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from repro.analysis.coverage import coverage_counts
from repro.api import Simulation
from repro.core.config import LaacadConfig
from repro.geometry.chebyshev import chebyshev_center_of_points
from repro.geometry.clipping import HalfPlane, clip_polygon_halfplane, halfplane_from_bisector
from repro.geometry.convex import convex_hull, is_convex_polygon
from repro.geometry.polygon import point_in_polygon, polygon_area
from repro.geometry.primitives import distance
from repro.geometry.welzl import welzl_disk
from repro.network.network import SensorNetwork
from repro.obs import metrics
from repro.regions.shapes import figure8_region_one, figure8_region_two, unit_square
from repro.runtime.failures import FailureInjector
from repro.voronoi.dominating import compute_dominating_region, dominating_pieces
from repro.voronoi.raster import RasterOracle

# Coordinates are drawn from a bounded range so that areas and distances
# stay within a few orders of magnitude of 1 (the paper's km scale).
coord = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False)
unit_coord = st.floats(min_value=0.01, max_value=0.99, allow_nan=False, allow_infinity=False)
point = st.tuples(coord, coord)
unit_point = st.tuples(unit_coord, unit_coord)

COMMON_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestWelzlProperties:
    @COMMON_SETTINGS
    @given(st.lists(point, min_size=1, max_size=40))
    def test_all_points_enclosed(self, points):
        circle = welzl_disk(points)
        slack = 1e-7 * max(1.0, circle.radius)
        assert all(distance(circle.center, p) <= circle.radius + slack for p in points)

    @COMMON_SETTINGS
    @given(st.lists(point, min_size=2, max_size=25))
    def test_radius_bounded_by_diameter(self, points):
        circle = welzl_disk(points)
        diameter = max(
            distance(p, q) for p in points for q in points
        )
        assert circle.radius <= diameter / math.sqrt(3.0) + 1e-7
        assert circle.radius >= diameter / 2.0 - 1e-7

    @COMMON_SETTINGS
    @given(st.lists(point, min_size=1, max_size=20), point)
    def test_adding_interior_point_keeps_circle(self, points, extra):
        circle = welzl_disk(points)
        assume(distance(circle.center, extra) < circle.radius * 0.9)
        enlarged = welzl_disk(points + [extra])
        assert enlarged.radius == pytest.approx(circle.radius, rel=1e-6, abs=1e-9)


class TestChebyshevProperties:
    @COMMON_SETTINGS
    @given(st.lists(point, min_size=1, max_size=30))
    def test_center_is_minimax(self, points):
        center, radius = chebyshev_center_of_points(points)
        worst = max(distance(center, p) for p in points)
        assert worst <= radius + 1e-7 * max(1.0, radius)
        # The centroid can never beat the Chebyshev center.
        cx = sum(p[0] for p in points) / len(points)
        cy = sum(p[1] for p in points) / len(points)
        assert max(distance((cx, cy), p) for p in points) >= radius - 1e-7 * max(1.0, radius)


class TestConvexHullProperties:
    @COMMON_SETTINGS
    @given(st.lists(point, min_size=3, max_size=40))
    # A denormal x breaks the sort tie of the vertical triple, so the
    # lower chain's first turn has a tiny cross product and a tiny span.
    @example([(0.0, 0.0), (0.0, 1.0), (0.0, 2.0), (1.0, 0.0), (-1.6535604201528096e-186, 1.0)])
    def test_hull_contains_all_points(self, points):
        hull = convex_hull(points)
        assume(len(hull) >= 3)
        assert is_convex_polygon(hull)
        for p in points:
            assert point_in_polygon(p, hull, include_boundary=True, eps=1e-6)

    @COMMON_SETTINGS
    @given(st.lists(point, min_size=3, max_size=30))
    def test_hull_idempotent(self, points):
        hull = convex_hull(points)
        assume(len(hull) >= 3)
        assert polygon_area(convex_hull(hull)) == pytest.approx(polygon_area(hull), rel=1e-9)


class TestClippingProperties:
    @COMMON_SETTINGS
    @given(
        st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
        st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
        st.floats(min_value=-0.5, max_value=1.5, allow_nan=False),
    )
    def test_halfplane_partitions_square(self, a, b, c):
        assume(abs(a) + abs(b) > 1e-3)
        square = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
        hp = HalfPlane(a, b, c)
        left = clip_polygon_halfplane(square, hp)
        right = clip_polygon_halfplane(square, hp.flipped())
        assert polygon_area(left) + polygon_area(right) == pytest.approx(1.0, abs=1e-6)

    @COMMON_SETTINGS
    @given(unit_point, unit_point)
    def test_bisector_halfplanes_are_complementary(self, p, q):
        assume(distance(p, q) > 1e-3)
        square = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
        hp = halfplane_from_bisector(p, q)
        closer_p = clip_polygon_halfplane(square, hp)
        closer_q = clip_polygon_halfplane(square, hp.flipped())
        assert polygon_area(closer_p) + polygon_area(closer_q) == pytest.approx(1.0, abs=1e-6)
        if len(closer_p) >= 3:
            assert point_in_polygon(p, closer_p, include_boundary=True, eps=1e-6) or (
                not point_in_polygon(p, square, include_boundary=False)
            )


class TestDominatingRegionProperties:
    @COMMON_SETTINGS
    @given(
        st.lists(unit_point, min_size=4, max_size=12, unique=True),
        st.integers(min_value=1, max_value=3),
    )
    def test_tiling_identity(self, sites, k):
        """Sum of dominating-region areas equals k * |A| (each point has exactly k dominators)."""
        assume(len(sites) >= k + 1)
        # The identity assumes sites in general position: for (nearly)
        # coincident sites the shared cell is claimed by both on ties and
        # the areas double-count, which is a degeneracy of the statement,
        # not of the construction.
        assume(
            min(
                distance(p, q)
                for i, p in enumerate(sites)
                for q in sites[i + 1 :]
            )
            > 1e-6
        )
        region = unit_square()
        total = 0.0
        for i, site in enumerate(sites):
            others = [s for j, s in enumerate(sites) if j != i]
            total += compute_dominating_region(site, others, region, k).area
        assert total == pytest.approx(k * region.area, rel=1e-3)

    @COMMON_SETTINGS
    @given(
        st.lists(unit_point, min_size=3, max_size=10, unique=True),
        st.integers(min_value=1, max_value=3),
    )
    def test_monotone_in_k(self, sites, k):
        """The dominating region for k+1 contains the one for k (area can only grow)."""
        region = unit_square()
        site, others = sites[0], sites[1:]
        smaller = compute_dominating_region(site, others, region, k).area
        larger = compute_dominating_region(site, others, region, k + 1).area
        assert larger >= smaller - 1e-9

    @COMMON_SETTINGS
    @given(st.lists(unit_point, min_size=4, max_size=10, unique=True))
    def test_site_in_own_region(self, sites):
        region = unit_square()
        site, others = sites[0], sites[1:]
        dom = compute_dominating_region(site, others, region, 1)
        assert dom.contains(site, eps=1e-6)

    @COMMON_SETTINGS
    @given(
        st.lists(unit_point, min_size=5, max_size=10, unique=True),
        st.integers(min_value=1, max_value=3),
    )
    def test_agrees_with_raster_oracle(self, sites, k):
        assume(len(sites) > k)
        region = unit_square()
        oracle = RasterOracle(sites, region, resolution=15)
        dom = compute_dominating_region(sites[0], sites[1:], region, k)
        mask = oracle.dominating_mask(0, k)
        for sample, inside in zip(oracle.samples, mask):
            sample_t = tuple(sample)
            own = distance(sample_t, sites[0])
            margin = min(abs(distance(sample_t, s) - own) for s in sites[1:])
            if margin <= 1e-6:
                continue  # too close to a bisector for a robust comparison
            assert dom.contains(sample_t, eps=1e-7) == bool(inside)


class TestCoverageProperties:
    @COMMON_SETTINGS
    @given(
        st.lists(unit_point, min_size=1, max_size=10),
        st.floats(min_value=0.05, max_value=0.8, allow_nan=False),
    )
    def test_coverage_monotone_in_range(self, sites, radius):
        region = unit_square()
        samples = np.asarray(region.grid_points(12), dtype=float)
        small = coverage_counts(sites, [radius] * len(sites), samples)
        large = coverage_counts(sites, [radius * 1.5] * len(sites), samples)
        assert np.all(large >= small)

    @COMMON_SETTINGS
    @given(st.lists(unit_point, min_size=2, max_size=10))
    def test_coverage_counts_bounded_by_node_count(self, sites):
        region = unit_square()
        samples = np.asarray(region.grid_points(10), dtype=float)
        counts = coverage_counts(sites, [2.0] * len(sites), samples)
        assert np.all(counts == len(sites))


# ----------------------------------------------------------------------
# Lossy distributed gather: sparse lockstep walk vs the legacy agents
# ----------------------------------------------------------------------
_REGIONS = {
    "square": unit_square,
    "one-hole": figure8_region_one,
    "l-two-holes": figure8_region_two,
}
_CHECK_PATHS = ("vacuous", "open", "slack", "exact", "replay")


def _lossy_run(engine, seed, drop_probability, k, ring_granularity, region, failures):
    network = SensorNetwork.from_random(
        _REGIONS[region](), 40, comm_range=0.35, rng=np.random.default_rng(seed)
    )
    injector = (
        FailureInjector(
            scheduled={2: [0, 5, 17], 3: [11, 30]},
            random_failure_rate=0.05,
            rng=np.random.default_rng(seed + 1),
        )
        if failures
        else None
    )
    sim = Simulation(
        network=network,
        config=LaacadConfig(
            engine=engine,
            k=k,
            ring_granularity=ring_granularity,
            epsilon=2e-3,
            max_rounds=4,
        ),
        kind="distributed",
        drop_probability=drop_probability,
        failure_injector=injector,
        rng=np.random.Generator(np.random.MT19937(seed)),
    )
    return sim, sim.run()


def _same_state(a, b):
    """Structural equality of two ``bit_generator.state`` values."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[key], b[key]) for key in a)
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def _check_counts():
    checks = metrics.counter("repro_lossy_circle_checks_total", labelnames=("path",))
    return {path: checks.labels(path).value for path in _CHECK_PATHS}


def _assert_lossy_equivalent(*args):
    """Sparse vs legacy on one input; returns the sparse run's check paths."""
    legacy_sim, legacy = _lossy_run("legacy", *args)
    before = _check_counts()
    sparse_sim, sparse = _lossy_run("sparse", *args)
    after = _check_counts()
    legacy_scheduler = legacy_sim.deployer.scheduler
    sparse_scheduler = sparse_sim.deployer.scheduler
    assert dataclasses.asdict(sparse_scheduler.stats) == dataclasses.asdict(
        legacy_scheduler.stats
    )
    assert _same_state(
        sparse_scheduler.rng.bit_generator.state,
        legacy_scheduler.rng.bit_generator.state,
    )
    assert sparse.rounds_executed == legacy.rounds_executed
    assert sparse.killed_nodes == legacy.killed_nodes
    for a, b in zip(legacy.final_positions, sparse.final_positions):
        assert math.dist(a, b) <= 1e-9
    return {path: after[path] - before[path] for path in _CHECK_PATHS}


class TestLossyGatherProperties:
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        drop_probability=st.floats(min_value=0.01, max_value=0.6),
        k=st.sampled_from([1, 2, 3]),
        ring_granularity=st.sampled_from([0.5, 1.0]),
        region=st.sampled_from(sorted(_REGIONS)),
        failures=st.booleans(),
    )
    def test_sparse_matches_legacy_over_rounds(
        self, seed, drop_probability, k, ring_granularity, region, failures
    ):
        paths = _assert_lossy_equivalent(
            seed, drop_probability, k, ring_granularity, region, failures
        )
        assert sum(paths.values()) > 0

    @pytest.mark.parametrize("region", sorted(_REGIONS))
    def test_high_drop_reaches_exact_and_replay(self, region):
        paths = _assert_lossy_equivalent(3, 0.6, 2, 1.0, region, True)
        assert paths["exact"] > 0
        assert paths["replay"] > 0
