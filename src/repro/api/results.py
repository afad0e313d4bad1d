"""Typed, lossless, versioned result types of the public API.

:class:`SimulationResult` is *the* result of every deployment run —
centralized, distributed and static alike.  It carries

* the final positions, sensing ranges and per-round history,
* a ``kind`` tag identifying which deployer produced it,
* optional communication accounting and failure bookkeeping for
  distributed runs, and
* a **lossless, versioned** ``to_dict()`` / ``from_dict()`` pair:
  ``SimulationResult.from_dict(result.to_dict()) == result`` holds
  field-for-field, including every per-round :class:`RoundStats` entry
  (communication fields included) and the optional position history.
  The dict is JSON-compatible, and a JSON round-trip preserves equality
  too (Python's ``json`` emits shortest round-trip float
  representations).

The per-round statistics types (:class:`RoundStats`,
:class:`DistributedRoundStats`) live here as well — they are part of
the public event/result surface; ``repro`` and ``repro.runtime``
re-export them.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional

from repro.geometry.primitives import Point, distance

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.config import LaacadConfig

#: Version of the ``SimulationResult.to_dict`` payload layout.  Bump
#: whenever a field is renamed/retyped so persisted results are never
#: misread; ``from_dict`` rejects unknown versions.
RESULT_FORMAT_VERSION = 1


@dataclasses.dataclass
class RoundStats:
    """Per-round summary of the deployment state.

    Attributes:
        round_index: zero-based round number.
        max_circumradius: largest smallest-enclosing-circle radius over
            all dominating regions (the quantity plotted in Figure 6).
        min_circumradius: smallest such radius.
        max_range_from_position: the paper's ``R-hat`` — the largest
            distance from a node's *current* position to the farthest
            point of its dominating region.
        min_range_from_position: the smallest such distance.
        max_displacement: largest node-to-Chebyshev-center distance this
            round (the stopping-rule quantity).
        mean_displacement: average of those distances.
        max_ring_hops: always 0.  It was the deepest expanding-ring
            search of a centralized Algorithm-2 round, a mode 2.0
            removed; the field stays so result payloads keep format
            version 1.
    """

    round_index: int
    max_circumradius: float
    min_circumradius: float
    max_range_from_position: float
    min_range_from_position: float
    max_displacement: float
    mean_displacement: float
    max_ring_hops: int = 0


@dataclasses.dataclass
class DistributedRoundStats(RoundStats):
    """Round statistics extended with communication accounting."""

    messages: int = 0
    transmissions: int = 0
    bytes_sent: int = 0


def round_stats_from_dict(payload: Mapping[str, Any]) -> RoundStats:
    """Rebuild the right stats type from its ``dataclasses.asdict`` form."""
    data = dict(payload)
    if {"messages", "transmissions", "bytes_sent"} & set(data):
        return DistributedRoundStats(**data)
    return RoundStats(**data)


@dataclasses.dataclass
class CommunicationSummary:
    """Total communication cost of a distributed run (lossless subset
    of the scheduler's :class:`~repro.runtime.scheduler.CommunicationStats`
    that the result payload has always exposed)."""

    messages: int = 0
    transmissions: int = 0
    bytes_sent: int = 0
    dropped: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {
            "messages": int(self.messages),
            "transmissions": int(self.transmissions),
            "bytes_sent": int(self.bytes_sent),
            "dropped": int(self.dropped),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "CommunicationSummary":
        return cls(**{k: int(v) for k, v in payload.items()})

    @classmethod
    def from_stats(cls, stats: Any) -> "CommunicationSummary":
        """Summarise a scheduler ``CommunicationStats`` object."""
        return cls(
            messages=int(stats.messages),
            transmissions=int(stats.transmissions),
            bytes_sent=int(stats.bytes_sent),
            dropped=int(stats.dropped),
        )


def _point_list(points) -> List[List[float]]:
    return [[float(x), float(y)] for x, y in points]


def _tuple_points(points) -> List[Point]:
    return [(float(p[0]), float(p[1])) for p in points]


@dataclasses.dataclass
class SimulationResult:
    """Outcome of one deployment run, for every deployer kind.

    The first eight fields describe the deployment itself; the trailing
    fields carry the deployer kind and the distributed-only extras.
    """

    config: Optional["LaacadConfig"]
    initial_positions: List[Point]
    final_positions: List[Point]
    sensing_ranges: List[float]
    converged: bool
    rounds_executed: int
    history: List[RoundStats]
    position_history: Optional[List[List[Point]]] = None
    kind: str = "laacad"
    communication: Optional[CommunicationSummary] = None
    killed_nodes: Optional[List[int]] = None

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def max_sensing_range(self) -> float:
        """The optimisation objective ``R*`` (maximum sensing range)."""
        return max(self.sensing_ranges) if self.sensing_ranges else 0.0

    @property
    def min_sensing_range(self) -> float:
        """The smallest sensing range in the final deployment."""
        return min(self.sensing_ranges) if self.sensing_ranges else 0.0

    @property
    def range_spread(self) -> float:
        """Max minus min sensing range — the load-balance indicator of Sec. V-A."""
        return self.max_sensing_range - self.min_sensing_range

    def max_circumradius_trace(self) -> List[float]:
        """Per-round maximum circumradius (the upper curves of Figure 6)."""
        return [s.max_circumradius for s in self.history]

    def min_circumradius_trace(self) -> List[float]:
        """Per-round minimum circumradius (the lower curves of Figure 6)."""
        return [s.min_circumradius for s in self.history]

    def total_distance_traveled(self) -> float:
        """Total movement of all nodes from start to final positions (straight-line lower bound)."""
        return sum(
            distance(a, b) for a, b in zip(self.initial_positions, self.final_positions)
        )

    # ------------------------------------------------------------------
    # Lossless serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible dict carrying every field (plus derived scalars).

        The layout is a strict superset of the payload the scenario
        pipelines have always produced, so downstream row extraction and
        the golden-output suite keep working unchanged; the additions
        (``schema_version``, ``kind``, ``config``, the optional
        ``position_history``) make the payload lossless.
        """
        payload: Dict[str, Any] = {
            "schema_version": RESULT_FORMAT_VERSION,
            "kind": self.kind,
            "node_count": len(self.final_positions),
            "converged": bool(self.converged),
            "rounds_executed": int(self.rounds_executed),
            "initial_positions": _point_list(self.initial_positions),
            "final_positions": _point_list(self.final_positions),
            "sensing_ranges": [float(r) for r in self.sensing_ranges],
            "max_sensing_range": float(self.max_sensing_range),
            "min_sensing_range": float(self.min_sensing_range),
            "total_movement": float(self.total_distance_traveled()),
            "history": [dataclasses.asdict(stats) for stats in self.history],
            "config": dataclasses.asdict(self.config) if self.config is not None else None,
        }
        if self.position_history is not None:
            payload["position_history"] = [
                _point_list(snapshot) for snapshot in self.position_history
            ]
        if self.communication is not None:
            payload["communication"] = self.communication.to_dict()
        if self.killed_nodes is not None:
            payload["killed_nodes"] = [int(i) for i in self.killed_nodes]
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SimulationResult":
        """Rebuild a result from :meth:`to_dict` output (lossless inverse).

        Derived scalars (``node_count``, ``max_sensing_range``, ...) are
        ignored — they are recomputed from the carried fields.
        """
        from repro.core.config import LaacadConfig

        version = payload.get("schema_version", RESULT_FORMAT_VERSION)
        if version != RESULT_FORMAT_VERSION:
            raise ValueError(
                f"unsupported SimulationResult schema_version {version!r} "
                f"(this build reads version {RESULT_FORMAT_VERSION})"
            )
        config_payload = payload.get("config")
        position_history = payload.get("position_history")
        communication = payload.get("communication")
        killed_nodes = payload.get("killed_nodes")
        return cls(
            config=(
                LaacadConfig.from_mapping(config_payload)
                if config_payload is not None
                else None
            ),
            initial_positions=_tuple_points(payload["initial_positions"]),
            final_positions=_tuple_points(payload["final_positions"]),
            sensing_ranges=[float(r) for r in payload["sensing_ranges"]],
            converged=bool(payload["converged"]),
            rounds_executed=int(payload["rounds_executed"]),
            history=[round_stats_from_dict(entry) for entry in payload["history"]],
            position_history=(
                [_tuple_points(snapshot) for snapshot in position_history]
                if position_history is not None
                else None
            ),
            kind=str(payload.get("kind", "laacad")),
            communication=(
                CommunicationSummary.from_dict(communication)
                if communication is not None
                else None
            ),
            killed_nodes=(
                [int(i) for i in killed_nodes] if killed_nodes is not None else None
            ),
        )
