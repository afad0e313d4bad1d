"""A single (mobile) sensor node, stored as one row of per-node columns.

A :class:`SensorNetwork` keeps its nodes' mutable state — positions,
sensing ranges, distance travelled, liveness — in :class:`NodeColumns`,
contiguous numpy arrays the deployers and engines read and write
whole.  A :class:`Node` is a view of one row: its attribute reads and
writes go straight to the arrays, so the object and array spellings
can never disagree.  ``Node(...)`` built on its own owns a one-row
:class:`NodeColumns` of its own.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from repro.geometry.primitives import Point, distance


class NodeColumns:
    """Per-node mutable state as columns, row ``i`` for node ``i``.

    Attributes:
        positions: ``(N, 2)`` float positions ``u_i``.
        sensing_ranges: ``(N,)`` float sensing ranges ``r_i``.
        distance_traveled: ``(N,)`` cumulative movement per node.
        alive: ``(N,)`` boolean liveness.
    """

    __slots__ = ("positions", "sensing_ranges", "distance_traveled", "alive")

    def __init__(self, positions: np.ndarray) -> None:
        count = positions.shape[0]
        self.positions = positions
        self.sensing_ranges = np.zeros(count)
        self.distance_traveled = np.zeros(count)
        self.alive = np.ones(count, dtype=bool)

    def __len__(self) -> int:
        return int(self.positions.shape[0])


class Node:
    """One sensor node of the WSN (a view of one :class:`NodeColumns` row).

    Attributes:
        node_id: unique integer identifier.
        position: current location ``u_i``.
        sensing_range: current (tunable) sensing range ``r_i``.
        comm_range: transmission range ``gamma`` (identical for all nodes
            in the paper's model, but stored per node so heterogeneous
            scenarios remain expressible).
        alive: whether the node is operational (failure injection flips
            this to ``False``).
        is_boundary: whether the boundary-detection service currently
            flags this node as a boundary node.
        distance_traveled: cumulative movement since deployment, used to
            account for the one-time movement energy investment.
    """

    __slots__ = ("node_id", "comm_range", "is_boundary", "_columns", "_row")

    def __init__(
        self,
        node_id: int,
        position: Point,
        sensing_range: float = 0.0,
        comm_range: float = 0.25,
        alive: bool = True,
        is_boundary: bool = False,
        distance_traveled: float = 0.0,
    ) -> None:
        if node_id < 0:
            raise ValueError("node_id must be non-negative")
        if sensing_range < 0:
            raise ValueError("sensing_range must be non-negative")
        if comm_range <= 0:
            raise ValueError("comm_range must be positive")
        columns = NodeColumns(
            np.array([[float(position[0]), float(position[1])]])
        )
        columns.sensing_ranges[0] = sensing_range
        columns.distance_traveled[0] = distance_traveled
        columns.alive[0] = alive
        self.node_id = node_id
        self.comm_range = comm_range
        self.is_boundary = is_boundary
        self._columns = columns
        self._row = 0

    @classmethod
    def view(
        cls, columns: NodeColumns, row: int, comm_range: float
    ) -> "Node":
        """The node stored in row ``row`` of ``columns`` (id = row)."""
        node = cls.__new__(cls)
        node.node_id = row
        node.comm_range = comm_range
        node.is_boundary = False
        node._columns = columns
        node._row = row
        return node

    # ------------------------------------------------------------------
    # Array-backed attributes
    # ------------------------------------------------------------------
    @property
    def position(self) -> Point:
        x, y = self._columns.positions[self._row].tolist()
        return (x, y)

    @position.setter
    def position(self, value: Point) -> None:
        self._columns.positions[self._row] = (float(value[0]), float(value[1]))

    @property
    def sensing_range(self) -> float:
        return float(self._columns.sensing_ranges[self._row])

    @sensing_range.setter
    def sensing_range(self, value: float) -> None:
        self._columns.sensing_ranges[self._row] = value

    @property
    def distance_traveled(self) -> float:
        return float(self._columns.distance_traveled[self._row])

    @distance_traveled.setter
    def distance_traveled(self, value: float) -> None:
        self._columns.distance_traveled[self._row] = value

    @property
    def alive(self) -> bool:
        return bool(self._columns.alive[self._row])

    @alive.setter
    def alive(self, value: bool) -> None:
        self._columns.alive[self._row] = bool(value)

    # ------------------------------------------------------------------
    def _fields(self) -> tuple:
        return (
            self.node_id,
            self.position,
            self.sensing_range,
            self.comm_range,
            self.alive,
            self.is_boundary,
            self.distance_traveled,
        )

    def __eq__(self, other: Any) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        names = (
            "node_id", "position", "sensing_range", "comm_range", "alive",
            "is_boundary", "distance_traveled",
        )
        body = ", ".join(f"{n}={v!r}" for n, v in zip(names, self._fields()))
        return f"Node({body})"

    def move_to(self, new_position: Point) -> float:
        """Relocate the node, returning the distance moved."""
        moved = distance(self.position, new_position)
        self.position = new_position
        self.distance_traveled += moved
        return moved

    def distance_to(self, point: Point) -> float:
        """Euclidean distance from this node to a point."""
        return distance(self.position, point)

    def covers(self, point: Point, eps: float = 1e-12) -> bool:
        """The coverage indicator ``f(v, u_i, r_i)`` of Eq. (1)."""
        return self.distance_to(point) <= self.sensing_range + eps

    def sensing_energy(self) -> float:
        """The paper's sensing-energy model ``E(r_i) = pi r_i^2``."""
        return math.pi * self.sensing_range * self.sensing_range

    def copy(self) -> "Node":
        """A standalone node holding this node's current values."""
        return Node(*self._fields())

