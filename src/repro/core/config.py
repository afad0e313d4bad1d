"""Configuration of a LAACAD run."""

from __future__ import annotations

import dataclasses
from typing import Any, Mapping, Optional


@dataclasses.dataclass(frozen=True)
class LaacadConfig:
    """All knobs of Algorithm 1 / Algorithm 2.

    Attributes:
        k: required coverage order (``k``-coverage).
        alpha: motion step size in ``(0, 1]`` (line 5 of Algorithm 1).
        epsilon: stopping tolerance on the node-to-Chebyshev-center
            distance (``ε`` in Algorithm 1).
        max_rounds: hard cap on the number of rounds executed, so that
            parameter sweeps always terminate in bounded time even for
            adversarial configurations.
        tau_ms: the nominal period of one round in milliseconds; only
            used for reporting (the simulation is round-driven).
        ring_granularity: the expanding-ring step of Algorithm 2, in
            units of the transmission range ``gamma``; the paper argues
            for exactly ``1.0`` (one hop) and that is the default.
        circle_check_samples: how many sample points to place on the
            half-radius circle in Algorithm 2's domination check.
        prefilter: enable the expanding-radius competitor pre-filter in
            the exact engine (no effect on results, only on speed).
        seed: RNG seed for reproducibility (Welzl shuffling, noise, ...).
        record_positions: store the full position history in the result
            (memory-heavy for large sweeps, so off by default).
        convergence_patience: number of consecutive rounds with all
            displacements below ``epsilon`` required before declaring
            convergence; 1 reproduces the paper's stopping rule.
        engine: which round-execution backend drives the deployment:
            ``"sparse"`` (the default: grid-bucketed candidate pairs
            and chunked kernels, never materialising an N×N matrix,
            and one whole-network clip for small N), ``"legacy"`` (the
            original per-node scalar paths), or ``"batched"`` (the
            dense array-native centralized engine).  ``legacy`` and
            ``batched`` are bitwise identical; ``sparse`` is held to a
            1e-9 tolerance contract with identical round counts and
            exact communication counters (see DESIGN.md, "The sparse
            engine tier").  The distributed pipeline runs ``batched``
            as ``sparse``: its dense round-level backend was retired
            because the sparse one was faster at every measured size.
    """

    k: int = 1
    alpha: float = 1.0
    epsilon: float = 1e-3
    max_rounds: int = 200
    tau_ms: float = 100.0
    ring_granularity: float = 1.0
    circle_check_samples: int = 72
    prefilter: bool = True
    seed: Optional[int] = 0
    record_positions: bool = False
    convergence_patience: int = 1
    engine: str = "sparse"

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("coverage order k must be >= 1")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("step size alpha must be in (0, 1]")
        if self.epsilon <= 0:
            raise ValueError("stopping tolerance epsilon must be positive")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be at least 1")
        if self.tau_ms <= 0:
            raise ValueError("tau_ms must be positive")
        if self.ring_granularity <= 0:
            raise ValueError("ring_granularity must be positive")
        if self.circle_check_samples < 8:
            raise ValueError("circle_check_samples must be at least 8")
        if self.convergence_patience < 1:
            raise ValueError("convergence_patience must be at least 1")
        if not self.engine or not isinstance(self.engine, str):
            raise ValueError("engine must be a non-empty backend name")

    @classmethod
    def from_mapping(cls, options: Mapping[str, Any]) -> "LaacadConfig":
        """Scenario-driven constructor: build a config from plain options.

        Unknown keys raise immediately so a typo in a scenario spec
        cannot silently fall back to a default.

        Payloads written by 1.x (results, checkpoints, scenario
        overrides) carry the removed ``use_localized`` option.  Its
        ``False`` value names the only behaviour left and is dropped;
        ``True`` selected centralized rounds computed through Algorithm
        2, which the distributed pipeline now owns, so it raises rather
        than quietly running a different engine.
        """
        options = dict(options)
        if options.pop("use_localized", False):
            raise ValueError(
                "use_localized=True was removed in 2.0; run Algorithm 2 "
                "through the distributed pipeline instead: "
                'Simulation(kind="distributed") or pipeline="distributed"'
            )
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(options) - known
        if unknown:
            raise ValueError(f"unknown LaacadConfig options: {sorted(unknown)}")
        return cls(**options)

    def with_k(self, k: int) -> "LaacadConfig":
        """A copy of this configuration with a different coverage order."""
        return dataclasses.replace(self, k=k)

    def with_alpha(self, alpha: float) -> "LaacadConfig":
        """A copy of this configuration with a different step size."""
        return dataclasses.replace(self, alpha=alpha)

    def with_engine(self, engine: str) -> "LaacadConfig":
        """A copy of this configuration with a different round-engine backend."""
        return dataclasses.replace(self, engine=engine)
