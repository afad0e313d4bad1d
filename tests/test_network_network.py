"""Unit tests for repro.network.network.SensorNetwork and spatial indexing."""

import math

import numpy as np
import pytest

from repro.geometry.primitives import distance
from repro.network.neighbors import SpatialGrid, pairwise_distances
from repro.network.network import SensorNetwork
from repro.regions.region import Region
from repro.regions.shapes import (
    figure8_region_one,
    figure8_region_two,
    l_shaped_region,
    unit_square,
)


def _scalar_corner_cluster(region, count, cluster_fraction, rng):
    """``from_corner_cluster``'s one-attempt-at-a-time rejection loop."""
    xmin, ymin, xmax, ymax = region.bbox
    side = cluster_fraction * max(xmax - xmin, ymax - ymin)
    points = []
    attempts = 0
    while len(points) < count and attempts < 100000:
        attempts += 1
        p = (
            float(rng.uniform(xmin, xmin + side)),
            float(rng.uniform(ymin, ymin + side)),
        )
        if region.contains(p):
            points.append(p)
    if len(points) < count:
        raise RuntimeError("could not place the corner cluster")
    return points


#: Upper-right triangle: the bounding box's bottom-left corner is far
#: outside it, so a corner cluster only reaches it near (f, f), f > 0.5.
_TRIANGLE = Region([(0.0, 1.0), (1.0, 0.0), (1.0, 1.0)])


class TestConstruction:
    def test_requires_nodes(self, square):
        with pytest.raises(ValueError):
            SensorNetwork(square, [], comm_range=0.2)

    def test_requires_positive_comm_range(self, square):
        with pytest.raises(ValueError):
            SensorNetwork(square, [(0.5, 0.5)], comm_range=0.0)

    def test_size_and_positions(self, square):
        net = SensorNetwork(square, [(0.1, 0.1), (0.9, 0.9)], comm_range=0.3)
        assert net.size == len(net) == 2
        assert net.positions() == [(0.1, 0.1), (0.9, 0.9)]
        assert net.positions_array().shape == (2, 2)

    def test_from_random_inside_region(self, square, rng):
        net = SensorNetwork.from_random(square, 25, comm_range=0.2, rng=rng)
        assert net.size == 25
        assert all(square.contains(p) for p in net.positions())

    def test_from_corner_cluster(self, square):
        net = SensorNetwork.from_corner_cluster(
            square, 30, cluster_fraction=0.2, rng=np.random.default_rng(1)
        )
        assert all(x <= 0.2 + 1e-9 and y <= 0.2 + 1e-9 for x, y in net.positions())

    @pytest.mark.parametrize(
        "region, fraction",
        [
            (unit_square(), 0.15),
            (figure8_region_one(), 0.5),
            (figure8_region_two(), 0.3),
            (l_shaped_region(), 1.0),
            (_TRIANGLE, 0.6),
        ],
        ids=["square", "fig8-holes", "fig8-l-holes", "l-shape", "low-acceptance"],
    )
    @pytest.mark.parametrize("count", [1, 9, 250])
    def test_corner_cluster_matches_one_attempt_at_a_time(self, region, fraction, count):
        fast_rng = np.random.default_rng(count + 5)
        slow_rng = np.random.default_rng(count + 5)
        net = SensorNetwork.from_corner_cluster(
            region, count, cluster_fraction=fraction, rng=fast_rng
        )
        assert net.positions() == _scalar_corner_cluster(region, count, fraction, slow_rng)
        assert fast_rng.bit_generator.state == slow_rng.bit_generator.state

    def test_corner_cluster_attempt_cap_matches_one_attempt_at_a_time(self):
        # Acceptance ~0.3%: 100,000 attempts place ~300 of 1000 nodes.
        fast_rng = np.random.default_rng(21)
        slow_rng = np.random.default_rng(21)
        with pytest.raises(RuntimeError, match="corner cluster"):
            SensorNetwork.from_corner_cluster(
                _TRIANGLE, 1000, cluster_fraction=0.52, rng=fast_rng
            )
        with pytest.raises(RuntimeError, match="corner cluster"):
            _scalar_corner_cluster(_TRIANGLE, 1000, 0.52, slow_rng)
        assert fast_rng.bit_generator.state == slow_rng.bit_generator.state

    def test_corner_cluster_validation(self, square):
        with pytest.raises(ValueError):
            SensorNetwork.from_corner_cluster(square, 10, cluster_fraction=0.0)

    def test_node_lookup_and_out_of_range(self, small_network):
        assert small_network.node(0).node_id == 0
        with pytest.raises(IndexError):
            small_network.node(small_network.size)


class TestMutation:
    def test_move_node_returns_distance(self, square):
        net = SensorNetwork(square, [(0.1, 0.1)], comm_range=0.2)
        moved = net.move_node(0, (0.4, 0.5))
        assert moved == pytest.approx(math.hypot(0.3, 0.4))
        assert net.node(0).position == (0.4, 0.5)

    def test_move_node_clamps_to_region(self, square):
        net = SensorNetwork(square, [(0.9, 0.5)], comm_range=0.2)
        net.move_node(0, (1.5, 0.5))
        assert square.contains(net.node(0).position)

    def test_move_node_respects_obstacles(self):
        region = figure8_region_one()
        net = SensorNetwork(region, [(0.2, 0.5)], comm_range=0.2)
        net.move_node(0, (0.5, 0.5))  # hole center
        assert region.contains(net.node(0).position)

    def test_set_sensing_range(self, small_network):
        small_network.set_sensing_range(0, 0.4)
        assert small_network.node(0).sensing_range == 0.4
        with pytest.raises(ValueError):
            small_network.set_sensing_range(0, -0.1)

    def test_kill_node(self, small_network):
        small_network.kill_node(0)
        assert not small_network.node(0).alive
        assert len(small_network.alive_nodes()) == small_network.size - 1
        assert len(small_network.positions(alive_only=True)) == small_network.size - 1

    def test_apply_moves_matches_sequential_move_node(self, square):
        positions = [(0.1, 0.1), (0.5, 0.5), (0.9, 0.2)]
        targets = {0: (0.2, 0.3), 2: (1.4, 0.2)}  # node 2 clamps to the region
        net_batch = SensorNetwork(square, positions, comm_range=0.2)
        net_seq = SensorNetwork(square, positions, comm_range=0.2)
        moved_batch = net_batch.apply_moves(targets)
        moved_seq = {i: net_seq.move_node(i, t) for i, t in targets.items()}
        assert moved_batch == moved_seq
        assert net_batch.positions() == net_seq.positions()
        assert [n.distance_traveled for n in net_batch.nodes] == [
            n.distance_traveled for n in net_seq.nodes
        ]

    def test_apply_moves_invalidates_caches_once(self, square):
        net = SensorNetwork(square, [(0.1, 0.1), (0.8, 0.8)], comm_range=0.3)
        net.one_hop_neighbors(0)  # populate the grid cache
        assert net._grid_cache is not None
        net.apply_moves({0: (0.75, 0.75)})
        assert net._grid_cache is None  # invalidated by the batch
        assert net.one_hop_neighbors(0) == [1]
        # An empty batch leaves the freshly built caches untouched.
        grid = net._grid_cache
        net.apply_moves({})
        assert net._grid_cache is grid


class TestNeighbourhoods:
    def test_one_hop_neighbors_within_range(self, square):
        positions = [(0.1, 0.1), (0.2, 0.1), (0.9, 0.9)]
        net = SensorNetwork(square, positions, comm_range=0.2)
        assert net.one_hop_neighbors(0) == [1]
        assert net.one_hop_neighbors(2) == []

    def test_dead_nodes_excluded_from_neighbors(self, square):
        net = SensorNetwork(square, [(0.1, 0.1), (0.2, 0.1)], comm_range=0.2)
        net.kill_node(1)
        assert net.one_hop_neighbors(0) == []

    def test_nodes_within_radius(self, square):
        positions = [(0.5, 0.5), (0.6, 0.5), (0.8, 0.5), (0.95, 0.5)]
        net = SensorNetwork(square, positions, comm_range=0.15)
        assert set(net.nodes_within(0, 0.35)) == {1, 2}

    def test_hop_neighbors_bfs(self, square):
        positions = [(0.1, 0.5), (0.25, 0.5), (0.4, 0.5), (0.55, 0.5)]
        net = SensorNetwork(square, positions, comm_range=0.16)
        assert set(net.hop_neighbors(0, 1)) == {1}
        assert set(net.hop_neighbors(0, 2)) == {1, 2}
        assert set(net.hop_neighbors(0, 3)) == {1, 2, 3}
        with pytest.raises(ValueError):
            net.hop_neighbors(0, -1)

    def test_k_nearest(self, square):
        positions = [(0.1, 0.1), (0.2, 0.1), (0.5, 0.5), (0.9, 0.9)]
        net = SensorNetwork(square, positions, comm_range=0.2)
        assert net.k_nearest((0.0, 0.0), 2) == [0, 1]
        assert net.k_nearest((0.0, 0.0), 2, exclude=0) == [1, 2]
        with pytest.raises(ValueError):
            net.k_nearest((0.0, 0.0), 0)


class TestGraphStructure:
    def test_connectivity_graph_edges(self, square):
        positions = [(0.1, 0.1), (0.2, 0.1), (0.9, 0.9)]
        net = SensorNetwork(square, positions, comm_range=0.2)
        graph = net.connectivity_graph()
        assert graph.has_edge(0, 1)
        assert not graph.has_edge(0, 2)

    def test_is_connected(self, square):
        net = SensorNetwork(square, [(0.1, 0.1), (0.2, 0.1), (0.9, 0.9)], comm_range=0.2)
        assert not net.is_connected()
        dense = SensorNetwork(square, [(0.1, 0.1), (0.2, 0.1), (0.3, 0.1)], comm_range=0.2)
        assert dense.is_connected()

    def test_min_degree(self, square):
        net = SensorNetwork(square, [(0.1, 0.1), (0.2, 0.1), (0.3, 0.1)], comm_range=0.15)
        assert net.min_degree() == 1

    def test_distance_matrix(self, small_network):
        dm = small_network.distance_matrix()
        assert dm.shape == (small_network.size, small_network.size)
        assert np.allclose(np.diag(dm), 0.0)
        assert np.allclose(dm, dm.T)

    def test_graph_cache_invalidated_on_move(self, square):
        net = SensorNetwork(square, [(0.1, 0.1), (0.5, 0.5)], comm_range=0.2)
        assert not net.connectivity_graph().has_edge(0, 1)
        net.move_node(1, (0.2, 0.1))
        assert net.connectivity_graph().has_edge(0, 1)


class TestSpatialGrid:
    def test_query_radius(self):
        pts = [(0.0, 0.0), (0.1, 0.0), (1.0, 1.0)]
        grid = SpatialGrid(pts, cell_size=0.25)
        assert set(grid.query_radius((0.0, 0.0), 0.2)) == {0, 1}
        assert set(grid.query_radius((0.0, 0.0), 2.0)) == {0, 1, 2}

    def test_query_radius_validation(self):
        grid = SpatialGrid([(0.0, 0.0)], cell_size=0.5)
        with pytest.raises(ValueError):
            grid.query_radius((0, 0), -1.0)
        with pytest.raises(ValueError):
            SpatialGrid([(0, 0)], cell_size=0.0)

    def test_k_nearest_matches_bruteforce(self, rng):
        pts = [tuple(p) for p in rng.uniform(0, 1, size=(40, 2))]
        grid = SpatialGrid(pts, cell_size=0.2)
        query = (0.4, 0.6)
        result = grid.k_nearest(query, 5)
        brute = sorted(range(len(pts)), key=lambda i: distance(pts[i], query))[:5]
        assert sorted(distance(pts[i], query) for i in result) == pytest.approx(
            sorted(distance(pts[i], query) for i in brute)
        )

    def test_k_nearest_validation(self):
        grid = SpatialGrid([(0, 0), (1, 1)], cell_size=0.5)
        with pytest.raises(ValueError):
            grid.k_nearest((0, 0), 0)

    def test_pairwise_distances(self):
        pts = [(0.0, 0.0), (3.0, 4.0)]
        dm = pairwise_distances(pts)
        assert dm[0, 1] == pytest.approx(5.0)
        with pytest.raises(ValueError):
            pairwise_distances([(0.0, 0.0, 0.0)])
