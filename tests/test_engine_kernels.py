"""Unit tests for the engine subsystem's array kernels and state bridge.

The kernels promise *bitwise* agreement with the scalar geometry
helpers (see the numerical contract in ``repro.engine.kernels``), so
these tests compare with ``==``, not ``approx``.
"""

import math

import numpy as np
import pytest

from repro.engine.arrays import NodeArrayState
from repro.engine.kernels import (
    ClippingSweep,
    clip_ring_halfplane,
    cross_distances,
    disk_cover_counts,
    dominating_pieces_batch,
    halfplane_coefficient_arrays,
    pairwise_distance_matrix,
    select_competitors,
    split_ring_halfplane,
)
from repro.geometry.clipping import HalfPlane, clip_polygon_halfplane
from repro.geometry.convex import convex_hull
from repro.geometry.polygon import polygon_area
from repro.geometry.primitives import EPS, distance
from repro.network.neighbors import SpatialGrid, pairwise_distances
from repro.network.network import SensorNetwork
from repro.regions.shapes import figure8_region_one, unit_square
from repro.voronoi.dominating import dominating_pieces


def _random_convex_polygon(rng, n=8, scale=1.0):
    pts = [tuple(p) for p in rng.uniform(-scale, scale, size=(n + 4, 2))]
    hull = convex_hull(pts)
    assert len(hull) >= 3
    return hull


def _random_halfplane(rng):
    a, b = rng.uniform(-1.0, 1.0, size=2)
    if abs(a) < 1e-3 and abs(b) < 1e-3:
        a = 1.0
    c = rng.uniform(-0.5, 0.5)
    return HalfPlane(float(a), float(b), float(c))


class TestClipKernels:
    def test_clip_ring_matches_scalar_clip(self, rng):
        for trial in range(200):
            poly = _random_convex_polygon(rng)
            hp = _random_halfplane(rng)
            values = [hp.value(v) for v in poly]
            expected = clip_polygon_halfplane(poly, hp)
            got = clip_ring_halfplane(poly, values)
            assert got == expected

    def test_clip_ring_flipped_via_negated_values(self, rng):
        for trial in range(100):
            poly = _random_convex_polygon(rng)
            hp = _random_halfplane(rng)
            values = [hp.value(v) for v in poly]
            expected = clip_polygon_halfplane(poly, hp.flipped())
            got = clip_ring_halfplane(poly, [-v for v in values])
            assert got == expected

    def test_split_matches_two_one_sided_clips(self, rng):
        for trial in range(200):
            poly = _random_convex_polygon(rng)
            hp = _random_halfplane(rng)
            values = [hp.value(v) for v in poly]
            closer, closer_area, farther, farther_area = split_ring_halfplane(
                poly, values, EPS, True
            )
            expected_closer = clip_polygon_halfplane(poly, hp)
            expected_farther = clip_polygon_halfplane(poly, hp.flipped())
            if len(expected_closer) < 3:
                expected_closer = []
            if len(expected_farther) < 3:
                expected_farther = []
            assert closer == expected_closer
            assert farther == expected_farther
            if closer:
                assert closer_area == polygon_area(closer)
            if farther:
                assert farther_area == polygon_area(farther)

    def test_split_without_farther_side(self, rng):
        poly = _random_convex_polygon(rng)
        hp = _random_halfplane(rng)
        values = [hp.value(v) for v in poly]
        _, _, farther, farther_area = split_ring_halfplane(poly, values, EPS, False)
        assert farther == []
        assert farther_area == 0.0

    def test_halfplane_coefficients_match_bisector(self, rng):
        from repro.geometry.clipping import halfplane_from_bisector

        site = (0.31, 0.74)
        comps = rng.uniform(0, 1, size=(40, 2))
        a, b, c = halfplane_coefficient_arrays(site, comps)
        for i, comp in enumerate(comps):
            hp = halfplane_from_bisector(site, tuple(comp))
            assert a[i] == hp.a and b[i] == hp.b and c[i] == hp.c


class TestDominatingSweep:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_scalar_sweep(self, k, rng):
        region = unit_square()
        pieces = region.convex_pieces()
        for trial in range(10):
            sites = [tuple(p) for p in rng.uniform(0, 1, size=(25, 2))]
            site, competitors = sites[0], sites[1:]
            expected = dominating_pieces(site, competitors, pieces, k)
            got = dominating_pieces_batch(site, np.asarray(competitors), pieces, k)
            assert got == expected

    def test_matches_scalar_sweep_with_holes(self, rng):
        region = figure8_region_one()
        pieces = region.convex_pieces()
        sites = region.random_points(20, rng=rng)
        site, competitors = sites[0], sites[1:]
        for k in (1, 2):
            expected = dominating_pieces(site, competitors, pieces, k)
            got = dominating_pieces_batch(site, np.asarray(competitors), pieces, k)
            assert got == expected

    def test_colocated_competitors_ignored(self):
        region = unit_square()
        pieces = region.convex_pieces()
        site = (0.5, 0.5)
        competitors = [(0.5, 0.5), (0.8, 0.2)]
        expected = dominating_pieces(site, competitors, pieces, 1)
        got = dominating_pieces_batch(site, np.asarray(competitors), pieces, 1)
        assert got == expected

    def test_incremental_extend_equals_one_shot(self, rng):
        """Folding ring batches incrementally == one sweep over the union."""
        region = unit_square()
        pieces = region.convex_pieces()
        site = (0.4, 0.6)
        comps = [tuple(p) for p in rng.uniform(0, 1, size=(30, 2))]
        comps.sort(key=lambda q: (q[0] - site[0]) ** 2 + (q[1] - site[1]) ** 2)
        for k in (1, 2, 3):
            sweep = ClippingSweep(site, pieces, k)
            # three expanding rings (each batch farther than the last)
            sweep.extend(np.asarray(comps[:8]))
            sweep.extend(np.asarray(comps[8:19]))
            sweep.extend(np.asarray(comps[19:]))
            assert sweep.pieces() == dominating_pieces(site, comps, pieces, k)

    def test_site_radius_matches_scalar_max(self, rng):
        region = unit_square()
        pieces = region.convex_pieces()
        site = (0.25, 0.3)
        sweep = ClippingSweep(site, pieces, 2)
        sweep.extend(rng.uniform(0, 1, size=(15, 2)))
        expected = max(
            (distance(site, v) for piece in sweep.pieces() for v in piece),
            default=0.0,
        )
        assert sweep.site_radius() == expected

    def test_invalid_k_rejected(self):
        with pytest.raises(ValueError):
            dominating_pieces_batch((0.5, 0.5), np.zeros((0, 2)), [], 0)


class TestDistanceKernels:
    def test_pairwise_matrix_matches_reference(self, rng):
        pts = rng.uniform(0, 1, size=(40, 2))
        dense = pairwise_distance_matrix(pts)
        chunked = pairwise_distance_matrix(pts, chunk_size=7)
        reference = pairwise_distances([tuple(p) for p in pts])
        assert np.allclose(dense, reference, atol=1e-12)
        assert np.array_equal(dense, chunked)

    def test_cross_distances_chunking_is_exact(self, rng):
        a = rng.uniform(0, 1, size=(33, 2))
        b = rng.uniform(0, 1, size=(17, 2))
        dense = cross_distances(a, b)
        chunked = cross_distances(a, b, chunk_size=5)
        assert np.array_equal(dense, chunked)
        diff = a[:, None, :] - b[None, :, :]
        assert np.array_equal(dense, np.sqrt(np.sum(diff * diff, axis=2)))

    def test_disk_cover_counts_matches_dense_broadcast(self, rng):
        pos = rng.uniform(0, 1, size=(25, 2))
        ranges = rng.uniform(0.05, 0.4, size=25)
        samples = rng.uniform(0, 1, size=(300, 2))
        counts = disk_cover_counts(pos, ranges, samples, chunk_size=64)
        diff = samples[:, None, :] - pos[None, :, :]
        dist = np.sqrt(np.sum(diff * diff, axis=2))
        expected = (dist <= ranges[None, :] + 1e-9).sum(axis=1)
        assert np.array_equal(counts, expected)

    def test_disk_cover_counts_validation(self):
        with pytest.raises(ValueError):
            disk_cover_counts([(0.0, 0.0)], [0.1, 0.2], np.zeros((3, 2)))
        assert disk_cover_counts([(0.0, 0.0)], [0.1], np.zeros((0, 2))).size == 0

    def test_select_competitors_strict_and_ordered(self):
        row = np.asarray([0.0, 0.3, 0.1, 0.5, 0.3])
        picked = select_competitors(row, 0, 0.3)
        assert list(picked) == [2]
        picked = select_competitors(row, 2, 0.6)
        assert list(picked) == [0, 1, 3, 4]


class TestNodeArrayState:
    def test_round_trip(self, square, rng):
        network = SensorNetwork.from_random(square, 10, comm_range=0.3, rng=rng)
        network.set_sensing_range(3, 0.25)
        network.kill_node(7)
        state = NodeArrayState.from_network(network)
        assert isinstance(state, NodeArrayState)
        assert len(state) == 10
        assert state.positions.shape == (10, 2)
        assert not state.alive[7]
        assert state.sensing_ranges[3] == 0.25
        assert list(state.alive_node_ids()) == [i for i in range(10) if i != 7]
        assert state.alive_positions().shape == (9, 2)
        # a snapshot is a copy: editing it leaves the network alone
        state.positions[0] = (0.5, 0.5)
        assert network.node(0).position != (0.5, 0.5)

    def test_sensing_energy_vectorized(self, square, rng):
        network = SensorNetwork.from_random(square, 6, comm_range=0.3, rng=rng)
        for node in network.nodes:
            node.sensing_range = 0.1 * (node.node_id + 1)
        state = NodeArrayState.from_network(network)
        expected = [n.sensing_energy() for n in network.nodes]
        assert np.allclose(state.sensing_energy(), expected, atol=1e-15)

    def test_copy_is_independent(self, square, rng):
        network = SensorNetwork.from_random(square, 4, comm_range=0.3, rng=rng)
        state = NodeArrayState.from_network(network)
        clone = state.copy()
        clone.positions[0] = (9.0, 9.0)
        assert state.positions[0][0] != 9.0


class TestSpatialGridClamp:
    def test_huge_radius_returns_all_points(self, rng):
        pts = [tuple(p) for p in rng.uniform(0, 1, size=(50, 2))]
        grid = SpatialGrid(pts, cell_size=0.1)
        result = grid.query_radius((0.5, 0.5), 1e9)
        assert sorted(result) == list(range(50))

    def test_huge_radius_scans_only_occupied_window(self, rng):
        pts = [tuple(p) for p in rng.uniform(0, 1, size=(30, 2))]
        grid = SpatialGrid(pts, cell_size=0.1)
        # The occupied bucket bbox spans at most ~11 cells per axis, so
        # even an absurd radius must not iterate beyond it.
        span_x = grid._kx_max - grid._kx_min + 1
        span_y = grid._ky_max - grid._ky_min + 1
        assert span_x <= 12 and span_y <= 12
        far = grid.query_radius((50.0, -50.0), 1e6)
        assert sorted(far) == list(range(30))

    def test_results_match_brute_force(self, rng):
        pts = [tuple(p) for p in rng.uniform(0, 1, size=(60, 2))]
        grid = SpatialGrid(pts, cell_size=0.13)
        for radius in (0.0, 0.05, 0.2, 0.7, 5.0):
            center = (float(rng.uniform(0, 1)), float(rng.uniform(0, 1)))
            expected = sorted(
                i
                for i, p in enumerate(pts)
                if (p[0] - center[0]) ** 2 + (p[1] - center[1]) ** 2
                <= radius * radius + 1e-15
            )
            assert sorted(grid.query_radius(center, radius)) == expected

    def test_negative_radius_rejected(self):
        grid = SpatialGrid([(0.0, 0.0)], cell_size=0.1)
        with pytest.raises(ValueError):
            grid.query_radius((0.0, 0.0), -1.0)
