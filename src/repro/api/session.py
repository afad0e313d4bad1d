"""The :class:`Simulation` session — the v1 entry point for every run.

A session wraps a :class:`~repro.api.deployers.Deployer` and adds the
public ergonomics: flexible construction (from a
:class:`~repro.scenarios.spec.ScenarioSpec`, a
:class:`~repro.core.config.LaacadConfig` plus a network/positions, or
plain scenario kwargs), a typed observable event stream, and
checkpoint/resume.

Quickstart::

    from repro.api import Simulation

    sim = Simulation(node_count=40, k=2, seed=7)           # kwargs
    sim.add_observer(lambda e: print(e.round_index, e.stats.max_circumradius))
    result = sim.run()

    sim = Simulation.from_spec(make_scenario("corner_cluster", k=2))
    for event in sim.events():                              # steppable
        if event.stats.max_displacement < 0.01:
            break
    sim.save_checkpoint("run.ckpt.json")                    # preemptible
    ...
    result = Simulation.restore("run.ckpt.json").run()      # bitwise resume
"""

from __future__ import annotations

import logging
import time
import warnings
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Union

from repro.api.checkpoint import SimulationCheckpoint, region_from_dict
from repro.api.deployers import (
    DEPLOYERS,
    CentralizedDeployer,
    Deployer,
    DistributedDeployer,
    SessionState,
    StaticDeployer,
)
from repro.api.events import RoundEvent
from repro.api.results import SimulationResult
from repro.core.config import LaacadConfig
from repro.network.mobility import MobilityModel
from repro.network.network import SensorNetwork
from repro.obs import trace as _trace

Observer = Callable[[RoundEvent], None]

logger = logging.getLogger(__name__)

#: Sentinel distinguishing "not passed" from an explicit default value,
#: so construction-form dispatch can route shared keywords (comm_range,
#: drop_probability, mobility) to the right destination or reject them.
_UNSET: Any = object()


class Simulation:
    """A steppable, observable, resumable deployment session.

    Construction forms (all equivalent in power):

    * ``Simulation(spec)`` / ``Simulation.from_spec(spec)`` — from a
      declarative scenario; the spec's ``pipeline`` selects the deployer
      (``laacad``, ``distributed`` or ``static``).
    * ``Simulation(network=..., config=...)`` — from live objects;
      ``kind`` selects the deployer (default ``"laacad"``), and the
      distributed extras (``drop_probability``, ``failure_injector``,
      ``rng``) apply when ``kind="distributed"``.
    * ``Simulation(region=..., positions=..., config=...)`` — builds the
      network for you.
    * ``Simulation(node_count=40, k=2, ...)`` — any
      :class:`~repro.scenarios.spec.ScenarioSpec` fields as kwargs.

    The session mutates its network in place: positions evolve every
    round and ``result()`` writes the final sensing ranges back, so the
    network afterwards *is* the converged deployment.
    """

    def __init__(
        self,
        source: Any = None,
        *,
        deployer: Optional[Deployer] = None,
        network: Optional[SensorNetwork] = None,
        config: Optional[LaacadConfig] = None,
        region: Any = None,
        positions: Any = None,
        comm_range: Any = _UNSET,
        mobility: Any = _UNSET,
        kind: Optional[str] = None,
        drop_probability: Any = _UNSET,
        failure_injector: Any = None,
        rng: Any = None,
        expose_regions: bool = False,
        **scenario_kwargs: Any,
    ) -> None:
        self._observers: List[Observer] = []
        self.spec = None
        self._idle_since = time.monotonic()

        if deployer is not None:
            self.deployer = deployer
            return
        if source is not None:
            if isinstance(source, Deployer):
                self.deployer = source
                return
            # Anything else positional is treated as a scenario spec.
            if scenario_kwargs:
                raise TypeError(
                    f"unexpected keyword arguments with a scenario spec: "
                    f"{sorted(scenario_kwargs)}; derive a new spec with "
                    "spec.replace(...) instead"
                )
            self.deployer = self._deployer_from_spec(
                source, kind=kind, expose_regions=expose_regions
            )
            return
        if network is None and region is not None and positions is not None:
            network = SensorNetwork(
                region,
                list(positions),
                comm_range=0.25 if comm_range is _UNSET else comm_range,
            )
            comm_range = _UNSET
        if network is not None:
            if comm_range is not _UNSET:
                raise TypeError(
                    "comm_range cannot be overridden for an existing network"
                )
            if config is None:
                config = (
                    LaacadConfig.from_mapping(scenario_kwargs)
                    if scenario_kwargs
                    else LaacadConfig()
                )
            elif scenario_kwargs:
                raise TypeError(
                    f"unexpected keyword arguments alongside an explicit "
                    f"config: {sorted(scenario_kwargs)}"
                )
            self.deployer = self._make_deployer(
                kind or "laacad",
                network,
                config,
                mobility=None if mobility is _UNSET else mobility,
                drop_probability=(
                    0.0 if drop_probability is _UNSET else drop_probability
                ),
                failure_injector=failure_injector,
                rng=rng,
                expose_regions=expose_regions,
            )
            return
        # kwargs form: build a ScenarioSpec from the keywords.  Shared
        # keywords that are also spec fields are folded in explicitly —
        # they must not be silently shadowed by this signature.
        from repro.scenarios.spec import ScenarioSpec

        if failure_injector is not None or rng is not None:
            raise TypeError(
                "failure_injector/rng are only accepted together with a "
                "network; in the kwargs form describe failures with the "
                "'failures' spec field (and seeds with 'seed')"
            )
        if kind is not None and "pipeline" not in scenario_kwargs:
            scenario_kwargs["pipeline"] = kind
        if comm_range is not _UNSET:
            scenario_kwargs.setdefault("comm_range", comm_range)
        if drop_probability is not _UNSET:
            scenario_kwargs.setdefault("drop_probability", drop_probability)
        if mobility is not _UNSET and mobility is not None:
            if isinstance(mobility, MobilityModel):
                mobility = {
                    "max_step": mobility.max_step,
                    "keep_in_region": mobility.keep_in_region,
                }
            scenario_kwargs.setdefault("mobility", mobility)
        spec = ScenarioSpec(**scenario_kwargs)
        self.deployer = self._deployer_from_spec(spec, expose_regions=expose_regions)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_spec(cls, spec: Any, expose_regions: bool = False) -> "Simulation":
        """Build a session from a declarative scenario spec."""
        return cls(spec, expose_regions=expose_regions)

    def _deployer_from_spec(
        self, spec: Any, kind: Optional[str] = None, expose_regions: bool = False
    ) -> Deployer:
        self.spec = spec
        deployer_kind = kind or spec.pipeline
        if deployer_kind not in DEPLOYERS:
            raise ValueError(
                f"scenario pipeline {deployer_kind!r} is not a deployment; "
                f"Simulation supports: {', '.join(sorted(DEPLOYERS))} "
                "(analysis pipelines run via spec.run())"
            )
        return self._make_deployer(
            deployer_kind,
            spec.build_network(),
            spec.build_config(),
            mobility=spec.build_mobility(),
            drop_probability=spec.drop_probability,
            failure_injector=spec.build_failure_injector(),
            expose_regions=expose_regions,
        )

    @staticmethod
    def _make_deployer(
        kind: str,
        network: SensorNetwork,
        config: LaacadConfig,
        mobility: Optional[MobilityModel] = None,
        drop_probability: float = 0.0,
        failure_injector: Any = None,
        rng: Any = None,
        expose_regions: bool = False,
    ) -> Deployer:
        if kind == "laacad":
            return CentralizedDeployer(
                network, config, mobility=mobility, expose_regions=expose_regions
            )
        if kind == "distributed":
            return DistributedDeployer(
                network,
                config,
                mobility=mobility,
                drop_probability=drop_probability,
                failure_injector=failure_injector,
                rng=rng,
            )
        if kind == "static":
            return StaticDeployer(network, config, mobility=mobility)
        raise ValueError(
            f"unknown deployer kind {kind!r}; available: {', '.join(sorted(DEPLOYERS))}"
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def network(self) -> SensorNetwork:
        """The live network the session is deploying."""
        return self.deployer.network

    @property
    def config(self) -> LaacadConfig:
        """The run configuration."""
        return self.deployer.config

    @property
    def state(self) -> SessionState:
        """Where the run stands (rounds, convergence, positions)."""
        return self.deployer.state

    @property
    def done(self) -> bool:
        """True once the run is complete (converged or at the round cap)."""
        return self.deployer.done

    @property
    def idle_since(self) -> float:
        """Monotonic timestamp of the last driving activity.

        Updated on construction, every :meth:`step` and every
        :meth:`touch`.  ``time.monotonic() - sim.idle_since`` is how
        long the session has sat idle — what an eviction policy ranks
        sessions by (see ``repro.service``) without serializing them.
        """
        return self._idle_since

    def touch(self) -> None:
        """Mark the session as just-used (resets :attr:`idle_since`)."""
        self._idle_since = time.monotonic()

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def add_observer(self, observer: Observer) -> Observer:
        """Attach a per-round callback; returns it (decorator-friendly)."""
        self._observers.append(observer)
        return observer

    def remove_observer(self, observer: Observer) -> None:
        """Detach a previously attached callback (no-op if absent)."""
        if observer in self._observers:
            self._observers.remove(observer)

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def step(self) -> RoundEvent:
        """Execute one round and fan the event out to the observers.

        Observer exceptions cannot corrupt the session: the round has
        already completed by the time observers run, and a raising
        observer is logged and detached so the remaining observers (and
        all future rounds) keep receiving events.
        """
        with _trace.span("round", index=self.deployer.rounds_executed):
            event = self.deployer.step()
        self._idle_since = time.monotonic()
        for observer in list(self._observers):
            try:
                with _trace.span("observer", round=event.round_index):
                    observer(event)
            except Exception:
                logger.exception(
                    "observer %r raised on round %d; detaching it "
                    "(session state is unaffected)",
                    observer,
                    event.round_index,
                )
                self.remove_observer(observer)
        return event

    def events(self, until: Optional[int] = None) -> Iterator[RoundEvent]:
        """Iterate rounds lazily: ``for event in sim.events(): ...``."""
        while not self.done and (
            until is None or self.deployer.rounds_executed < until
        ):
            yield self.step()

    def run(
        self,
        until: Optional[int] = None,
        checkpoint_every: Optional[int] = None,
        checkpoint_path: Optional[Union[str, Path]] = None,
    ) -> SimulationResult:
        """Run to completion (or to ``until`` rounds) and finalize.

        With ``checkpoint_every`` and ``checkpoint_path`` the session
        writes a full checkpoint every N rounds (and once more when the
        run completes), making long runs preemption-safe.
        """
        if (checkpoint_every is None) != (checkpoint_path is None):
            raise ValueError(
                "checkpoint_every and checkpoint_path must be given together"
            )
        for event in self.events(until=until):
            if (
                checkpoint_every
                and event.round_index % checkpoint_every == checkpoint_every - 1
            ):
                self.save_checkpoint(checkpoint_path)
        if checkpoint_every and self.done:
            self.save_checkpoint(checkpoint_path)
        return self.deployer.result()

    def result(self) -> SimulationResult:
        """Finalize sensing ranges and return the result (cached once done)."""
        return self.deployer.result()

    # ------------------------------------------------------------------
    # Checkpoint / resume
    # ------------------------------------------------------------------
    def checkpoint(self) -> SimulationCheckpoint:
        """Snapshot the complete session state (round-boundary exact)."""
        payload = self.deployer.checkpoint_payload()
        if self.spec is not None:
            payload["spec"] = self.spec.to_dict()
            payload["spec_digest"] = self.spec.digest()
        return SimulationCheckpoint(payload)

    def save_checkpoint(self, path: Union[str, Path]) -> Path:
        """Snapshot and write to ``path`` atomically."""
        return self.checkpoint().save(path)

    @classmethod
    def restore(
        cls, checkpoint: Union[SimulationCheckpoint, Dict[str, Any], str, Path]
    ) -> "Simulation":
        """Rebuild a session from a checkpoint (object, dict, or path).

        The restored session continues bitwise-identically to the
        uninterrupted run: positions, RNG streams, convergence state and
        history are all part of the snapshot.
        """
        if isinstance(checkpoint, (str, Path)):
            checkpoint = SimulationCheckpoint.load(checkpoint)
        elif isinstance(checkpoint, dict):
            checkpoint = SimulationCheckpoint.from_dict(checkpoint)
        payload = checkpoint.payload

        region = region_from_dict(payload["region"])
        nodes = payload["nodes"]
        network = SensorNetwork(
            region, nodes["positions"], comm_range=float(payload["comm_range"])
        )
        columns = network.columns
        columns.alive[:] = nodes["alive"]
        columns.sensing_ranges[:] = nodes["sensing_ranges"]
        columns.distance_traveled[:] = nodes["distance_traveled"]
        network._invalidate()

        config = LaacadConfig.from_mapping(payload["config"])
        mobility = MobilityModel.from_dict(payload["mobility"])
        kind = payload["kind"]
        runtime = payload.get("runtime") or {}
        deployer = cls._make_deployer(
            kind,
            network,
            config,
            mobility=mobility,
            drop_probability=float(runtime.get("drop_probability", 0.0)),
        )
        deployer.restore_payload(payload)

        session = cls(deployer=deployer)
        if payload.get("spec") is not None:
            from repro.scenarios.spec import ScenarioSpec

            session.spec = ScenarioSpec.from_dict(payload["spec"])
        return session

    @classmethod
    def resume_or_start(
        cls, spec: Any, checkpoint_path: Union[str, Path]
    ) -> "Simulation":
        """Resume ``spec`` from a checkpoint file when one matches, else start fresh.

        A checkpoint is only adopted when its recorded scenario digest
        matches the spec (a stale file from another scenario is ignored),
        so this is safe to call unconditionally in pipelines.
        """
        path = Path(checkpoint_path)
        if path.exists():
            try:
                checkpoint = SimulationCheckpoint.load(path)
            except (OSError, ValueError, KeyError):
                checkpoint = None
            if checkpoint is not None and checkpoint.spec_digest == spec.digest():
                return cls.restore(checkpoint)
            warnings.warn(
                f"ignoring checkpoint {path} (it belongs to a different "
                "scenario or is unreadable); starting fresh",
                stacklevel=2,
            )
        return cls.from_spec(spec)


def deploy(
    region: Any,
    initial_positions: Any,
    config: LaacadConfig,
    comm_range: float = 0.25,
    mobility: Optional[MobilityModel] = None,
) -> SimulationResult:
    """One-call centralized deployment over a network built from ``initial_positions``."""
    return Simulation(
        region=region,
        positions=initial_positions,
        config=config,
        comm_range=comm_range,
        mobility=mobility,
    ).run()
