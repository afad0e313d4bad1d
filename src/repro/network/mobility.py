"""Mobility constraints for autonomous deployment.

LAACAD moves nodes by a fraction ``alpha`` of the vector towards the
Chebyshev center of their dominating region.  The mobility model applies
the physical constraints around that intent: motion targets are projected
back into the free area (nodes cannot enter obstacles or leave ``A``) and
an optional per-round speed limit caps the displacement, which models
slow actuators and also gives an ablation knob independent of ``alpha``.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Mapping, Optional, Tuple

import numpy as np

from repro.geometry.primitives import Point, hypot_exact
from repro.regions.region import Region


@dataclasses.dataclass(frozen=True)
class MobilityModel:
    """Movement constraints applied to every per-round relocation.

    Attributes:
        max_step: maximum displacement per round (``None`` = unlimited).
        keep_in_region: project motion targets back into the free area.
    """

    max_step: Optional[float] = None
    keep_in_region: bool = True

    def __post_init__(self) -> None:
        if self.max_step is not None and self.max_step <= 0:
            raise ValueError("max_step must be positive when given")

    @classmethod
    def from_dict(cls, spec: Mapping[str, Any]) -> "MobilityModel":
        """Scenario-driven constructor from a plain mobility dict.

        ``{}`` yields the default model; recognised keys are ``max_step``
        and ``keep_in_region``.
        """
        unknown = set(spec) - {"max_step", "keep_in_region"}
        if unknown:
            raise ValueError(f"unknown mobility options: {sorted(unknown)}")
        max_step = spec.get("max_step")
        return cls(
            max_step=float(max_step) if max_step is not None else None,
            keep_in_region=bool(spec.get("keep_in_region", True)),
        )

    def constrain_many(
        self, region: Region, current: np.ndarray, targets: np.ndarray
    ) -> np.ndarray:
        """Apply the mobility constraints to many desired moves at once.

        Args:
            region: the target area providing the free-space geometry.
            current: ``(M, 2)`` current node positions.
            targets: ``(M, 2)`` unconstrained motion targets.

        Returns:
            The ``(M, 2)`` admissible positions for this round (a new
            array).  A step longer than ``max_step`` (measured with
            ``math.hypot``) is scaled back along its own direction; a
            position outside the free area is projected onto it.
        """
        out = np.array(targets, dtype=float).reshape(-1, 2)
        if self.max_step is not None and out.shape[0]:
            current = np.asarray(current, dtype=float).reshape(-1, 2)
            step = hypot_exact(current[:, 0] - out[:, 0], current[:, 1] - out[:, 1])
            over = np.nonzero(step > self.max_step)[0]
            fraction = self.max_step / step[over]
            cur = current[over]
            out[over] = cur + fraction[:, None] * (out[over] - cur)
        if self.keep_in_region:
            out = region.nearest_free_points(out)
        return out

    def constrain(
        self, region: Region, current: Point, target: Point
    ) -> Point:
        """:meth:`constrain_many` for a single move."""
        out = self.constrain_many(region, np.array([current]), np.array([target]))
        x, y = out[0].tolist()
        return (x, y)
