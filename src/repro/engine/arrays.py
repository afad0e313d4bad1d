"""Struct-of-arrays snapshots of the sensor network's node state.

A :class:`~repro.network.network.SensorNetwork` owns its node state as
arrays (:class:`~repro.network.node.NodeColumns`) and its ``Node``
objects are views of them, so there is nothing to synchronise.  A
:class:`NodeArrayState` is a *copy* of those columns plus the node ids,
taken when an engine needs positions that stay put while the network
moves on (the sparse engine keeps last round's positions to find the
movers).  Nothing writes a snapshot back: the network's own columns
are the state.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.network.network import SensorNetwork


@dataclasses.dataclass
class NodeArrayState:
    """Struct-of-arrays snapshot of a :class:`SensorNetwork`.

    Attributes:
        node_ids: ``(N,)`` integer node identifiers.
        positions: ``(N, 2)`` float positions ``u_i``.
        sensing_ranges: ``(N,)`` float sensing ranges ``r_i``.
        distance_traveled: ``(N,)`` cumulative movement (the one-time
            movement-energy investment of the paper's energy model).
        alive: ``(N,)`` boolean liveness mask.
    """

    node_ids: np.ndarray
    positions: np.ndarray
    sensing_ranges: np.ndarray
    distance_traveled: np.ndarray
    alive: np.ndarray

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_network(cls, network: "SensorNetwork") -> "NodeArrayState":
        """Copy the network's node columns."""
        columns = network.columns
        return cls(
            node_ids=np.arange(len(columns), dtype=np.intp),
            positions=columns.positions.copy(),
            sensing_ranges=columns.sensing_ranges.copy(),
            distance_traveled=columns.distance_traveled.copy(),
            alive=columns.alive.copy(),
        )

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self.positions.shape[0])

    def alive_indices(self) -> np.ndarray:
        """Indices (into the full arrays) of alive nodes, ascending."""
        return np.nonzero(self.alive)[0]

    def alive_positions(self) -> np.ndarray:
        """Positions of alive nodes only, ``(A, 2)``, in node order."""
        return self.positions[self.alive]

    def alive_node_ids(self) -> np.ndarray:
        """Node ids of alive nodes, in node order."""
        return self.node_ids[self.alive]

    def sensing_energy(self) -> np.ndarray:
        """Vectorized per-node sensing energy ``E(r_i) = pi * r_i**2``."""
        return np.pi * self.sensing_ranges * self.sensing_ranges

    def copy(self) -> "NodeArrayState":
        """An independent copy of every array."""
        return NodeArrayState(
            node_ids=self.node_ids.copy(),
            positions=self.positions.copy(),
            sensing_ranges=self.sensing_ranges.copy(),
            distance_traveled=self.distance_traveled.copy(),
            alive=self.alive.copy(),
        )
