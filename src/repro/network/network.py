"""The sensor network: nodes + target area + connectivity structure."""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Union

import networkx as nx
import numpy as np

from repro.geometry.primitives import Point, distance, hypot_exact
from repro.network.neighbors import SpatialGrid, pairwise_distances
from repro.network.node import Node, NodeColumns
from repro.regions.region import Region


class SensorNetwork:
    """A WSN deployed over a target area.

    The network owns the node set and answers the structural queries the
    LAACAD algorithm and its analysis need: one-hop neighbours, nodes
    within a Euclidean radius (the expanding ring), multi-hop
    neighbourhoods on the unit-disk communication graph, and coverage/
    connectivity summaries.

    The nodes' mutable state lives in :attr:`columns` (positions,
    sensing ranges, distance travelled and liveness as numpy arrays);
    ``nodes`` are :class:`Node` views of its rows, built on first use.

    Args:
        region: the monitored area ``A``.
        positions: initial node positions.
        comm_range: the common transmission range ``gamma``.
    """

    def __init__(
        self,
        region: Region,
        positions: Sequence[Point],
        comm_range: float = 0.25,
    ) -> None:
        if comm_range <= 0:
            raise ValueError("comm_range must be positive")
        if len(positions) == 0:
            raise ValueError("a network needs at least one node")
        self.region = region
        self.comm_range = float(comm_range)
        xy = np.array(positions, dtype=float)
        if xy.ndim != 2 or xy.shape[1] != 2:
            xy = np.array([(float(p[0]), float(p[1])) for p in positions])
        self.columns = NodeColumns(xy)
        self._nodes: Optional[List[Node]] = None
        self._graph_cache: Optional[nx.Graph] = None
        self._grid_cache: Optional[SpatialGrid] = None

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> List[Node]:
        """One :class:`Node` view per row of :attr:`columns`, in id order."""
        if self._nodes is None:
            columns = self.columns
            comm_range = self.comm_range
            self._nodes = [
                Node.view(columns, i, comm_range) for i in range(len(columns))
            ]
        return self._nodes

    def __len__(self) -> int:
        return len(self.columns)

    @property
    def size(self) -> int:
        """Number of nodes (alive or not)."""
        return len(self.columns)

    def alive_nodes(self) -> List[Node]:
        """Nodes that are currently operational."""
        nodes = self.nodes
        return [nodes[i] for i in np.nonzero(self.columns.alive)[0].tolist()]

    def alive_count(self) -> int:
        """Number of operational nodes."""
        return int(np.count_nonzero(self.columns.alive))

    def positions(self, alive_only: bool = False) -> List[Point]:
        """Current node positions, index-aligned with ``self.nodes`` unless filtered."""
        xy = self.positions_array(alive_only=alive_only)
        return list(zip(xy[:, 0].tolist(), xy[:, 1].tolist()))

    def positions_array(self, alive_only: bool = False) -> np.ndarray:
        """Positions as an ``(N, 2)`` numpy array (a copy)."""
        if alive_only:
            return self.columns.positions[self.columns.alive]
        return self.columns.positions.copy()

    def sensing_ranges(self, alive_only: bool = False) -> List[float]:
        """Current sensing ranges, index-aligned with :meth:`positions`."""
        ranges = self.columns.sensing_ranges
        if alive_only:
            ranges = ranges[self.columns.alive]
        return ranges.tolist()

    def alive_mask(self) -> np.ndarray:
        """Boolean liveness mask, index-aligned with ``self.nodes`` (a copy)."""
        return self.columns.alive.copy()

    def node(self, node_id: int) -> Node:
        """Node lookup by identifier."""
        if not 0 <= node_id < len(self.columns):
            raise IndexError(f"node id {node_id} out of range")
        return self.nodes[node_id]

    # ------------------------------------------------------------------
    # Cache invalidation
    # ------------------------------------------------------------------
    def _invalidate(self) -> None:
        self._graph_cache = None
        self._grid_cache = None

    def move_node(self, node_id: int, new_position: Point, clamp_to_region: bool = True) -> float:
        """Move a node, optionally projecting the target into the free area.

        :meth:`apply_moves` for one node; returns the distance actually moved.
        """
        return self.apply_moves({node_id: new_position}, clamp_to_region)[node_id]

    def apply_moves(
        self,
        targets: Union[Mapping[int, Point], np.ndarray],
        clamp_to_region: bool = True,
        ids: Optional[np.ndarray] = None,
    ) -> Union[Dict[int, float], np.ndarray]:
        """Move many nodes at once, invalidating the spatial caches once.

        Two spellings: ``targets`` maps node id to target (the result is
        a dict of distances moved, keyed by node id), or ``targets`` is
        an ``(M, 2)`` array for the distinct node ids ``ids`` (the
        result is the ``(M,)`` array of distances moved).

        Each target is clamped into the free area independently (the
        batched containment test picks the few targets outside, which
        alone take ``nearest_free_point``), the node moves there, and
        its ``distance_traveled`` grows by ``math.hypot`` of the step,
        bitwise as ``Node.move_to`` adds it.  The cached spatial grid
        and connectivity graph are invalidated a single time at the
        end: the deployers' synchronous end-of-round move is the
        intended caller, and no neighbourhood query happens mid-batch.
        """
        if ids is None:
            keys = np.fromiter(targets.keys(), dtype=np.intp, count=len(targets))
            xy = np.array(list(targets.values()), dtype=float).reshape(-1, 2)
            moved = self._move_rows(keys, xy, clamp_to_region)
            return dict(zip(keys.tolist(), moved.tolist()))
        return self._move_rows(
            np.asarray(ids, dtype=np.intp),
            np.array(targets, dtype=float).reshape(-1, 2),
            clamp_to_region,
        )

    def _move_rows(
        self, ids: np.ndarray, xy: np.ndarray, clamp_to_region: bool
    ) -> np.ndarray:
        """:meth:`apply_moves` on arrays."""
        if ids.size == 0:
            return np.zeros(0)
        if ids.min() < 0 or ids.max() >= len(self.columns):
            raise IndexError("node id out of range")
        if clamp_to_region:
            xy = self.region.nearest_free_points(xy)
        columns = self.columns
        old = columns.positions[ids]
        moved = hypot_exact(old[:, 0] - xy[:, 0], old[:, 1] - xy[:, 1])
        columns.positions[ids] = xy
        columns.distance_traveled[ids] += moved
        self._invalidate()
        return moved

    def set_sensing_range(self, node_id: int, sensing_range: float) -> None:
        """Tune one node's sensing range."""
        if sensing_range < 0:
            raise ValueError("sensing range must be non-negative")
        self.node(node_id).sensing_range = float(sensing_range)

    def kill_node(self, node_id: int) -> None:
        """Mark a node as failed (used by the failure injector)."""
        self.node(node_id).alive = False
        self._invalidate()

    # ------------------------------------------------------------------
    # Neighbourhood queries
    # ------------------------------------------------------------------
    def _spatial_grid(self) -> SpatialGrid:
        if self._grid_cache is None:
            self._grid_cache = SpatialGrid(
                self.columns.positions, cell_size=max(self.comm_range, 1e-6)
            )
        return self._grid_cache

    def one_hop_neighbors(self, node_id: int) -> List[int]:
        """The paper's ``N(n_i)``: alive nodes within the transmission range."""
        node = self.node(node_id)
        candidates = self._spatial_grid().query_radius(node.position, self.comm_range)
        alive = self.columns.alive
        return [j for j in candidates if j != node_id and alive[j]]

    def nodes_within(self, node_id: int, radius: float) -> List[int]:
        """Alive nodes within Euclidean ``radius`` of the node (the ring ``N(n_i, rho)``)."""
        node = self.node(node_id)
        candidates = self._spatial_grid().query_radius(node.position, radius)
        alive = self.columns.alive
        return [j for j in candidates if j != node_id and alive[j]]

    def hop_neighbors(self, node_id: int, hops: int) -> List[int]:
        """Alive nodes reachable within ``hops`` hops on the communication graph."""
        if hops < 0:
            raise ValueError("hops must be non-negative")
        graph = self.connectivity_graph()
        if node_id not in graph:
            return []
        lengths = nx.single_source_shortest_path_length(graph, node_id, cutoff=hops)
        return [j for j in lengths if j != node_id]

    def k_nearest(self, point: Point, k: int, exclude: Optional[int] = None) -> List[int]:
        """Indices of the ``k`` alive nodes nearest to an arbitrary point."""
        if k <= 0:
            raise ValueError("k must be positive")
        ordered = sorted(
            (n for n in self.nodes if n.alive and n.node_id != exclude),
            key=lambda n: distance(n.position, point),
        )
        return [n.node_id for n in ordered[:k]]

    # ------------------------------------------------------------------
    # Graph-level structure
    # ------------------------------------------------------------------
    def connectivity_graph(self) -> nx.Graph:
        """Unit-disk communication graph over alive nodes (cached)."""
        if self._graph_cache is None:
            graph = nx.Graph()
            alive = [n for n in self.nodes if n.alive]
            graph.add_nodes_from(n.node_id for n in alive)
            grid = self._spatial_grid()
            for node in alive:
                for j in grid.query_radius(node.position, self.comm_range):
                    if j != node.node_id and self.nodes[j].alive:
                        graph.add_edge(node.node_id, j)
            self._graph_cache = graph
        return self._graph_cache

    def is_connected(self) -> bool:
        """True when the communication graph over alive nodes is connected."""
        graph = self.connectivity_graph()
        if graph.number_of_nodes() <= 1:
            return True
        return nx.is_connected(graph)

    def min_degree(self) -> int:
        """Minimum node degree of the communication graph."""
        graph = self.connectivity_graph()
        if graph.number_of_nodes() == 0:
            return 0
        return min(dict(graph.degree()).values())

    def distance_matrix(self) -> np.ndarray:
        """Dense pairwise distance matrix of all node positions."""
        return pairwise_distances(self.positions())

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_random(
        cls,
        region: Region,
        count: int,
        comm_range: float = 0.25,
        rng: Optional[np.random.Generator] = None,
    ) -> "SensorNetwork":
        """Uniform random deployment of ``count`` nodes over the free area."""
        return cls(region, region.random_points(count, rng=rng), comm_range=comm_range)

    @classmethod
    def from_placement(
        cls,
        region: Region,
        placement: Mapping[str, object],
        count: int,
        comm_range: float = 0.25,
        seed: Optional[int] = 0,
    ) -> "SensorNetwork":
        """Scenario-driven constructor: build a network from a placement dict.

        Supported kinds (the scenario layer serializes these as plain
        JSON, so every parameter is a number, string or list):

        * ``{"kind": "random"}`` — uniform over the free area;
        * ``{"kind": "corner_cluster", "cluster_fraction": f}`` — the
          paper's Figure 5(a) start;
        * ``{"kind": "lattice", "lattice": "triangular"|"square"|"hexagonal"}``
          — a lattice sized to ``count`` nodes;
        * ``{"kind": "triangular_spacing", "spacing": s}`` — a triangular
          lattice with explicit spacing (``count`` is ignored; the
          lattice fills the region);
        * ``{"kind": "explicit", "positions": [[x, y], ...]}`` — verbatim
          positions.
        """
        kind = placement.get("kind", "random")
        params = {k: v for k, v in placement.items() if k != "kind"}
        if kind == "random":
            return cls.from_random(
                region, count, comm_range=comm_range, rng=np.random.default_rng(seed)
            )
        if kind == "corner_cluster":
            return cls.from_corner_cluster(
                region,
                count,
                cluster_fraction=float(params.get("cluster_fraction", 0.15)),
                comm_range=comm_range,
                rng=np.random.default_rng(seed),
            )
        if kind == "lattice":
            from repro.baselines.lattice import lattice_for_count

            positions = lattice_for_count(
                region, count, kind=str(params.get("lattice", "triangular"))
            )
            return cls(region, positions, comm_range=comm_range)
        if kind == "triangular_spacing":
            from repro.baselines.lattice import triangular_lattice

            positions = triangular_lattice(region, float(params["spacing"]))
            return cls(region, positions, comm_range=comm_range)
        if kind == "explicit":
            positions = [(float(p[0]), float(p[1])) for p in params["positions"]]
            return cls(region, positions, comm_range=comm_range)
        raise ValueError(f"unknown placement kind {kind!r}")

    @classmethod
    def from_corner_cluster(
        cls,
        region: Region,
        count: int,
        cluster_fraction: float = 0.15,
        comm_range: float = 0.25,
        rng: Optional[np.random.Generator] = None,
    ) -> "SensorNetwork":
        """The paper's Figure 5(a) initial deployment: all nodes near the bottom-left corner.

        Nodes are placed uniformly at random in the square of side
        ``cluster_fraction * bbox_extent`` anchored at the region's
        bottom-left bounding-box corner (intersected with the free area),
        by :meth:`Region.rejection_sample` with at most 100,000 attempts.
        """
        if not 0 < cluster_fraction <= 1.0:
            raise ValueError("cluster_fraction must be in (0, 1]")
        if rng is None:
            rng = np.random.default_rng()
        xmin, ymin, xmax, ymax = region.bbox
        side = cluster_fraction * max(xmax - xmin, ymax - ymin)
        points = region.rejection_sample(
            rng, (xmin, ymin), (xmin + side, ymin + side), count, 100000
        )
        if len(points) < count:
            raise RuntimeError(
                "could not place the corner cluster inside the free area; "
                "increase cluster_fraction"
            )
        return cls(region, points, comm_range=comm_range)
