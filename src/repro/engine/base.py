"""The ``RoundEngine`` protocol and shared per-round summarisation.

A *round engine* computes, for one synchronous LAACAD round, every alive
node's dominating region (and, derived from it, the Chebyshev centers
and the per-round statistics the runner records).  The runner in
``repro.core.laacad`` is engine-agnostic: it asks the configured engine
for an :class:`EngineRound` and only keeps the movement / convergence /
bookkeeping logic for itself.

Backends register themselves with :func:`register_engine` under a short
name; :func:`make_engine` instantiates by name.  Adding a backend is a
three-step affair (see DESIGN.md): subclass :class:`RoundEngine`,
implement :meth:`RoundEngine.compute_regions`, decorate with
``@register_engine``.

The derived quantities (Chebyshev centers, circumradii, displacements)
are deliberately computed by the *shared* :func:`summarize_regions`
helper in both built-in backends: once two engines produce identical
region polygons, everything downstream is identical by construction.
"""

from __future__ import annotations

import abc
import dataclasses
from typing import TYPE_CHECKING, Dict, List, Tuple, Type

from repro.geometry.primitives import Point, distance
from repro.voronoi.dominating import DominatingRegion

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.config import LaacadConfig
    from repro.network.network import SensorNetwork


@dataclasses.dataclass
class EngineRound:
    """Everything one round of region computation produces.

    Attributes:
        regions: dominating region of every alive node (keyed by node id,
            in alive-node order).
        centers: Chebyshev center of every region (same keys/order).
        circumradii: Chebyshev radius per region, in alive-node order.
        ranges_from_position: distance from each node's *current*
            position to the farthest point of its region (the paper's
            ``R-hat``), in alive-node order.
        displacements: node-to-Chebyshev-center distance per node, in
            alive-node order (the stopping-rule quantity).
        max_ring_hops: deepest expanding-ring search of the round (only
            populated by the localized Algorithm-2 backend).
    """

    regions: Dict[int, DominatingRegion]
    centers: Dict[int, Point]
    circumradii: List[float]
    ranges_from_position: List[float]
    displacements: List[float]
    max_ring_hops: int = 0


def summarize_regions(
    network: "SensorNetwork",
    regions: Dict[int, DominatingRegion],
    max_ring_hops: int = 0,
) -> EngineRound:
    """Derive centers and per-round statistics from computed regions.

    Shared by every engine so the derived floats are bitwise identical
    whenever the regions are.
    """
    centers: Dict[int, Point] = {}
    circumradii: List[float] = []
    ranges_from_position: List[float] = []
    displacements: List[float] = []
    for node_id, region in regions.items():
        node = network.node(node_id)
        center, radius = region.chebyshev_center()
        centers[node_id] = center
        circumradii.append(radius)
        ranges_from_position.append(region.circumradius(node.position))
        displacements.append(distance(node.position, center))
    return EngineRound(
        regions=regions,
        centers=centers,
        circumradii=circumradii,
        ranges_from_position=ranges_from_position,
        displacements=displacements,
        max_ring_hops=max_ring_hops,
    )


class RoundEngine(abc.ABC):
    """Computes all per-round dominating regions for a network.

    Engines are constructed once per deployment session (see
    :class:`repro.api.deployers.CentralizedDeployer`) and queried every
    round; they may cache anything derivable from the network and
    config but must re-read node positions each call (the deployer moves
    nodes between rounds).
    """

    #: Short name used by ``LaacadConfig.engine`` / :func:`make_engine`.
    name: str = "abstract"

    def __init__(self, network: "SensorNetwork", config: "LaacadConfig") -> None:
        self.network = network
        self.config = config

    @abc.abstractmethod
    def compute_regions(self) -> Tuple[Dict[int, DominatingRegion], int]:
        """Dominating regions of every alive node; returns (regions, max ring hops)."""

    def compute_round(self) -> EngineRound:
        """One full round of region computation plus derived statistics."""
        regions, max_hops = self.compute_regions()
        return summarize_regions(self.network, regions, max_hops)


_REGISTRY: Dict[str, Type[RoundEngine]] = {}


def register_engine(cls: Type[RoundEngine]) -> Type[RoundEngine]:
    """Class decorator adding an engine to the backend registry."""
    if not getattr(cls, "name", None) or cls.name == "abstract":
        raise ValueError("engine classes must define a unique 'name'")
    _REGISTRY[cls.name] = cls
    return cls


def available_engines() -> List[str]:
    """Names of all registered round-engine backends."""
    return sorted(_REGISTRY)


def make_engine(
    name: str, network: "SensorNetwork", config: "LaacadConfig"
) -> RoundEngine:
    """Instantiate a registered engine backend by name."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown round engine {name!r}; available: {', '.join(available_engines())}"
        ) from None
    return cls(network, config)
