"""The :class:`Deployer` protocol and its three built-in implementations.

A *deployer* drives one deployment run incrementally: ``step()``
executes exactly one synchronous round and returns a typed
:class:`~repro.api.events.RoundEvent`; ``run(until=...)`` loops;
``state`` reports where the run stands; ``result()`` finalizes sensing
ranges and produces a :class:`~repro.api.results.SimulationResult`.
The three built-ins are every execution path the codebase has:

* :class:`CentralizedDeployer` — Algorithm 1 with global knowledge;
* :class:`DistributedDeployer` — the message-passing protocol
  (Algorithms 1+2);
* :class:`StaticDeployer` — no movement, ranges sized to the
  dominating regions (the lifetime baselines).

Every round runs the same order of operations (region computation →
stats recording → convergence check → synchronous move), so a sequence
of ``step()`` calls — with or without a checkpoint/restore in the
middle — produces bitwise the same trajectories, histories and sensing
ranges as one uninterrupted ``run()``.

Deployers also know how to snapshot and restore their complete mid-run
state (positions, RNG streams, convergence tracker, counters) — see
``repro.api.checkpoint``.
"""

from __future__ import annotations

import abc
import dataclasses
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.api.checkpoint import (
    CHECKPOINT_VERSION,
    region_to_dict,
    rng_from_state,
    rng_state_to_dict,
)
from repro.api.events import RoundEvent
from repro.api.results import (
    CommunicationSummary,
    DistributedRoundStats,
    RoundStats,
    SimulationResult,
    round_stats_from_dict,
)
from repro.core.config import LaacadConfig
from repro.core.convergence import ConvergenceTracker
from repro.engine.pieces import region_vertices, vertex_circumradii
from repro.geometry.primitives import Point, hypot_exact
from repro.network.mobility import MobilityModel
from repro.network.network import SensorNetwork
from repro.obs import trace as _trace


def _point_table(points: Dict[int, Point]) -> Tuple[np.ndarray, np.ndarray]:
    """A ``{node id: point}`` dict as ``(ids, (M, 2) float array)``."""
    ids = np.fromiter(points.keys(), dtype=np.intp, count=len(points))
    return ids, np.array(list(points.values()), dtype=float).reshape(-1, 2)


@dataclasses.dataclass(frozen=True)
class SessionState:
    """Read-only snapshot of where a deployment session stands.

    Attributes:
        kind: deployer kind (``"laacad"``, ``"distributed"``, ``"static"``).
        rounds_executed: rounds completed so far.
        converged: whether the stopping rule has been satisfied.
        done: whether the session is complete (converged or round cap).
        positions: current positions of all nodes.
        alive_count: number of operational nodes.
    """

    kind: str
    rounds_executed: int
    converged: bool
    done: bool
    positions: List[Point]
    alive_count: int


class Deployer(abc.ABC):
    """Drives one deployment run, one synchronous round at a time."""

    #: Deployer kind; doubles as the registry key and the result tag.
    kind: str = "abstract"

    def __init__(
        self,
        network: SensorNetwork,
        config: LaacadConfig,
        mobility: Optional[MobilityModel] = None,
    ) -> None:
        self.network = network
        self.config = config
        self.mobility = mobility if mobility is not None else MobilityModel()
        self._initial_positions: List[Point] = network.positions()
        self._history: List[RoundStats] = []
        self._tracker = ConvergenceTracker(
            epsilon=config.epsilon, patience=config.convergence_patience
        )
        self._rounds = 0
        self._converged = False
        self._result: Optional[SimulationResult] = None

    # ------------------------------------------------------------------
    # The protocol
    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        """True once the run is complete (converged or at the round cap)."""
        return self._converged or self._rounds >= self.config.max_rounds

    @property
    def rounds_executed(self) -> int:
        """Rounds completed so far."""
        return self._rounds

    @property
    def state(self) -> SessionState:
        """Current session state (cheap, safe to poll every round)."""
        return SessionState(
            kind=self.kind,
            rounds_executed=self._rounds,
            converged=self._converged,
            done=self.done,
            positions=self.network.positions(),
            alive_count=self.network.alive_count(),
        )

    @abc.abstractmethod
    def step(self) -> RoundEvent:
        """Execute exactly one synchronous round.

        Raises:
            RuntimeError: when called on a completed session.
        """

    def run(self, until: Optional[int] = None) -> SimulationResult:
        """Step until completion (or until ``rounds_executed == until``).

        Returns :meth:`result` for the state reached; when stopped early
        by ``until`` the result reflects the current mid-run deployment
        (finalizing does not perturb the run — stepping may continue).
        """
        while not self.done and (until is None or self._rounds < until):
            self.step()
        return self.result()

    @abc.abstractmethod
    def result(self) -> SimulationResult:
        """Finalize sensing ranges and return the (cached) result."""

    def _move(self, ids: np.ndarray, targets: np.ndarray) -> None:
        """The synchronous move: nodes ``ids`` head for ``targets`` at once.

        The mobility model constrains every ``(M, 2)`` target, then one
        :meth:`SensorNetwork.apply_moves` applies them all, so the
        spatial caches are invalidated once, not per node.  The move
        clamps into the free area only when the model keeps nodes there
        (``keep_in_region``); otherwise a node may leave it.
        """
        network = self.network
        mobility = self.mobility
        current = network.columns.positions[ids]
        constrained = mobility.constrain_many(network.region, current, targets)
        network.apply_moves(
            constrained, clamp_to_region=mobility.keep_in_region, ids=ids
        )

    def _final_sensing_ranges(self, regions: Dict[int, Any]) -> List[float]:
        """Size every alive node to its region from where it stands.

        The circumradius of each alive node's dominating region measured
        from its current position, computed over the regions' flat
        vertex block (no polygon is materialised) and written into the
        network; nodes that are dead or have no region read 0.0.
        """
        columns = self.network.columns
        vertices = region_vertices(regions)
        radii = vertex_circumradii(vertices, columns.positions[vertices.ids])
        live = columns.alive[vertices.ids]
        ids, radii = vertices.ids[live], radii[live]
        columns.sensing_ranges[ids] = radii
        ranges = np.zeros(len(columns))
        ranges[ids] = radii
        return ranges.tolist()

    def _require_active(self) -> int:
        if self.done:
            raise RuntimeError(
                f"the {self.kind} session is complete after "
                f"{self._rounds} round(s); create a new Simulation to re-run"
            )
        round_index = self._rounds
        self._rounds += 1
        self._result = None
        return round_index

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def checkpoint_payload(self) -> Dict[str, Any]:
        """Complete JSON-compatible snapshot of the session state."""
        result_payload = None
        if self.done:
            # A completed session carries its finalized result verbatim,
            # so restoring it never needs to recompute regions (which,
            # for a lossy distributed run, would re-draw from the RNG).
            # Finalize *before* snapshotting the nodes: result() writes
            # the final sensing ranges back into the network.
            result_payload = self.result().to_dict()
        network = self.network
        columns = network.columns
        payload: Dict[str, Any] = {
            "checkpoint_version": CHECKPOINT_VERSION,
            "kind": self.kind,
            "config": dataclasses.asdict(self.config),
            "mobility": {
                "max_step": self.mobility.max_step,
                "keep_in_region": self.mobility.keep_in_region,
            },
            "region": region_to_dict(network.region),
            "comm_range": float(network.comm_range),
            "nodes": {
                "positions": columns.positions.tolist(),
                "alive": columns.alive.tolist(),
                "sensing_ranges": columns.sensing_ranges.tolist(),
                "distance_traveled": columns.distance_traveled.tolist(),
            },
            "initial_positions": [
                [float(x), float(y)] for x, y in self._initial_positions
            ],
            "rounds_executed": int(self._rounds),
            "converged": bool(self._converged),
            "history": [dataclasses.asdict(stats) for stats in self._history],
            "runtime": self._checkpoint_runtime(),
        }
        if result_payload is not None:
            payload["result"] = result_payload
        return payload

    def restore_payload(self, payload: Dict[str, Any]) -> None:
        """Adopt a snapshot produced by :meth:`checkpoint_payload`.

        The deployer must have been constructed over a network rebuilt
        from the same checkpoint (the session layer does this).
        """
        self._initial_positions = [
            (float(p[0]), float(p[1])) for p in payload["initial_positions"]
        ]
        self._rounds = int(payload["rounds_executed"])
        self._converged = bool(payload["converged"])
        self._history = [round_stats_from_dict(entry) for entry in payload["history"]]
        self._restore_runtime(payload.get("runtime"))
        if payload.get("result") is not None:
            self._result = SimulationResult.from_dict(payload["result"])

    def _checkpoint_runtime(self) -> Optional[Dict[str, Any]]:
        """Deployer-specific extras (RNG streams, counters); None if none."""
        return None

    def _restore_runtime(self, payload: Optional[Dict[str, Any]]) -> None:
        """Inverse of :meth:`_checkpoint_runtime`."""

    def _tracker_state(self) -> Dict[str, Any]:
        """Snapshot of the convergence tracker (shared by all deployers)."""
        return {
            "streak": self._tracker._streak,
            "max_displacement_history": list(self._tracker.max_displacement_history),
        }

    def _restore_tracker_state(self, payload: Optional[Dict[str, Any]]) -> None:
        payload = payload or {}
        self._tracker._streak = int(payload.get("streak", 0))
        self._tracker.max_displacement_history = [
            float(v) for v in payload.get("max_displacement_history", [])
        ]


class CentralizedDeployer(Deployer):
    """Algorithm 1 with global knowledge, driven round by round.

    The round engine backend is selected by ``config.engine``.
    """

    kind = "laacad"

    def __init__(
        self,
        network: SensorNetwork,
        config: LaacadConfig,
        mobility: Optional[MobilityModel] = None,
        expose_regions: bool = False,
    ) -> None:
        from repro.engine import make_engine

        if network.alive_count() < config.k:
            raise ValueError(
                "the network needs at least k alive nodes to attempt k-coverage"
            )
        super().__init__(network, config, mobility)
        self.engine = make_engine(config.engine, network, config)
        self.expose_regions = expose_regions
        #: Regions measured in the last executed round; ``None`` after a
        #: restore (they are recomputed on demand — deterministically,
        #: so the refreshed values are bitwise identical).
        self._last_regions: Optional[Dict[int, Any]] = {}
        self._position_history: Optional[List[List[Point]]] = (
            [network.positions()] if config.record_positions else None
        )

    def step(self) -> RoundEvent:
        round_index = self._require_active()
        config = self.config
        network = self.network

        engine_round = self.engine.compute_round()
        self._last_regions = engine_round.regions
        centers = engine_round.centers
        circumradii = engine_round.circumradii
        ranges_from_position = engine_round.ranges_from_position
        displacements = engine_round.displacements

        stats = RoundStats(
            round_index=round_index,
            max_circumradius=max(circumradii) if circumradii else 0.0,
            min_circumradius=min(circumradii) if circumradii else 0.0,
            max_range_from_position=max(ranges_from_position) if ranges_from_position else 0.0,
            min_range_from_position=min(ranges_from_position) if ranges_from_position else 0.0,
            max_displacement=max(displacements) if displacements else 0.0,
            mean_displacement=(sum(displacements) / len(displacements)) if displacements else 0.0,
        )
        self._history.append(stats)

        moved = False
        if self._tracker.observe(displacements):
            self._converged = True
        else:
            with _trace.span("move"):
                self._move_to_centers(engine_round)
            moved = True
            if config.record_positions and self._position_history is not None:
                self._position_history.append(network.positions())

        return RoundEvent(
            round_index=round_index,
            stats=stats,
            displacements=displacements,
            ranges_from_position=ranges_from_position,
            centers=centers,
            positions=network.positions(),
            moved=moved,
            converged=self._converged,
            done=self.done,
            regions=engine_round.regions if self.expose_regions else None,
        )

    def _move_to_centers(self, engine_round: Any) -> None:
        """Synchronous move: nodes off their Chebyshev center step alpha of the way.

        A node moves when it is farther than epsilon from its center,
        measured with ``math.hypot`` as the scalar loop did; its target
        keeps the ``pos + alpha * (center - pos)`` grouping per
        coordinate.
        """
        config = self.config
        ids, center_xy = _point_table(engine_round.centers)
        pos = self.network.columns.positions[ids]
        offset = hypot_exact(pos[:, 0] - center_xy[:, 0], pos[:, 1] - center_xy[:, 1])
        movers = ~(offset <= config.epsilon)
        pos = pos[movers]
        self._move(ids[movers], pos + config.alpha * (center_xy[movers] - pos))

    def result(self) -> SimulationResult:
        if self._result is not None:
            return self._result
        with _trace.span("result"):
            return self._finalize()

    def _finalize(self) -> SimulationResult:
        network = self.network
        # Final sensing ranges: the circumradius of each node's dominating
        # region measured from its final position.  Recompute the regions
        # unless the last executed round converged (a converged round does
        # not move, so its measurements are still current).
        regions = self._last_regions
        if not self._converged or regions is None:
            regions = self.engine.compute_regions()
        sensing_ranges = self._final_sensing_ranges(regions)

        self._result = SimulationResult(
            config=self.config,
            initial_positions=self._initial_positions,
            final_positions=network.positions(),
            sensing_ranges=sensing_ranges,
            converged=self._converged,
            rounds_executed=self._rounds,
            history=self._history,
            position_history=self._position_history,
            kind=self.kind,
        )
        return self._result

    # -- checkpointing ---------------------------------------------------
    def _checkpoint_runtime(self) -> Optional[Dict[str, Any]]:
        return {
            "tracker": self._tracker_state(),
            "position_history": (
                [[[float(x), float(y)] for x, y in snapshot] for snapshot in self._position_history]
                if self._position_history is not None
                else None
            ),
        }

    def _restore_runtime(self, payload: Optional[Dict[str, Any]]) -> None:
        payload = payload or {}
        self._restore_tracker_state(payload.get("tracker"))
        history = payload.get("position_history")
        self._position_history = (
            [[(float(p[0]), float(p[1])) for p in snapshot] for snapshot in history]
            if history is not None
            else None
        )
        self._last_regions = None


class DistributedDeployer(Deployer):
    """The message-passing protocol, driven round by round.

    Each round runs failure injection, the expanding-ring gather +
    region computation for every node (ring queries and position
    replies accounted — and loss-sampled — through the scheduler),
    statistics, convergence check, simultaneous move application.

    The gather/compute phase is delegated to a pluggable
    :class:`~repro.runtime.engines.DistributedRoundEngine` selected by
    ``config.engine`` — ``"sparse"`` (also what ``"batched"`` selects)
    simulates the protocol at the round level over grid-bucketed
    candidate pairs, ``"legacy"`` executes one scalar agent per node.
    The sparse backend matches the legacy one within the 1e-9 tolerance
    contract, with identical communication counters and the same
    scheduler RNG draw order on lossy channels (see
    ``repro.runtime.engines``).
    """

    kind = "distributed"

    def __init__(
        self,
        network: SensorNetwork,
        config: LaacadConfig,
        mobility: Optional[MobilityModel] = None,
        drop_probability: float = 0.0,
        failure_injector: Optional[Any] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        from repro.runtime.engines import make_distributed_engine
        from repro.runtime.scheduler import SynchronousScheduler

        if network.alive_count() < config.k:
            raise ValueError("the network needs at least k alive nodes")
        super().__init__(network, config, mobility)
        self.scheduler = SynchronousScheduler(
            drop_probability=drop_probability,
            rng=rng if rng is not None else np.random.default_rng(config.seed),
        )
        self.failure_injector = failure_injector
        self.protocol = make_distributed_engine(
            config.engine, network, config, self.scheduler
        )
        #: False right after a restore: the engine's last regions are gone
        #: and must be refreshed before sensing ranges can be finalized.
        self._have_regions = True

    def step(self) -> RoundEvent:
        round_index = self._require_active()
        network = self.network
        self.scheduler.begin_round()
        if self.failure_injector is not None:
            self.failure_injector.apply(network, round_index)

        messages_before = self.scheduler.stats.messages
        transmissions_before = self.scheduler.stats.transmissions
        bytes_before = self.scheduler.stats.bytes_sent

        engine_round = self.protocol.run_round(round_index)
        displacements = engine_round.displacements
        circumradii = engine_round.circumradii
        ranges_from_position = engine_round.ranges_from_position
        centers = engine_round.centers

        stats = DistributedRoundStats(
            round_index=round_index,
            max_circumradius=max(circumradii) if circumradii else 0.0,
            min_circumradius=min(circumradii) if circumradii else 0.0,
            max_range_from_position=max(ranges_from_position) if ranges_from_position else 0.0,
            min_range_from_position=min(ranges_from_position) if ranges_from_position else 0.0,
            max_displacement=max(displacements) if displacements else 0.0,
            mean_displacement=(sum(displacements) / len(displacements)) if displacements else 0.0,
            messages=self.scheduler.stats.messages - messages_before,
            transmissions=self.scheduler.stats.transmissions - transmissions_before,
            bytes_sent=self.scheduler.stats.bytes_sent - bytes_before,
        )
        self._history.append(stats)
        self.scheduler.end_round()
        self._have_regions = True

        moved = False
        if self._tracker.observe(displacements):
            self._converged = True
        else:
            # Apply the proposed moves simultaneously.
            with _trace.span("move"):
                self._move(*_point_table(engine_round.proposed_targets))
            moved = True

        return RoundEvent(
            round_index=round_index,
            stats=stats,
            displacements=displacements,
            ranges_from_position=ranges_from_position,
            centers=centers,
            positions=network.positions(),
            moved=moved,
            converged=self._converged,
            done=self.done,
        )

    def result(self) -> SimulationResult:
        """Finalize sensing ranges and summarize the protocol run.

        Mid-run, the communication totals include the region-refresh
        round that sized the preview's sensing ranges — the same
        convention the finished result uses when the round cap binds —
        while the protocol state (RNG stream, counters) is restored so
        continued stepping is unaffected.
        """
        if self._result is not None:
            return self._result
        with _trace.span("result"):
            return self._finalize()

    def _finalize(self) -> SimulationResult:
        network = self.network
        needs_refresh = (not self._converged) or not self._have_regions
        snapshot = None
        if needs_refresh and not self.done:
            # Finalizing mid-run must not perturb the protocol: the
            # refresh round consumes scheduler RNG draws and counters,
            # so both are restored afterwards and stepping continues
            # bitwise-identically.
            snapshot = self._scheduler_snapshot()
        if needs_refresh:
            # The round cap was hit after a move (or the session was just
            # restored): refresh every node's region once so the final
            # sensing ranges refer to the current positions.
            self.scheduler.begin_round()
            self.protocol.run_round(self._rounds)
            self.scheduler.end_round()
            self._have_regions = True

        sensing_ranges = self._final_sensing_ranges(self.protocol.last_regions)

        communication = CommunicationSummary.from_stats(self.scheduler.stats)
        if snapshot is not None:
            self._scheduler_restore(snapshot)

        result = SimulationResult(
            config=self.config,
            initial_positions=self._initial_positions,
            final_positions=network.positions(),
            sensing_ranges=sensing_ranges,
            converged=self._converged,
            rounds_executed=self._rounds,
            history=self._history,
            kind=self.kind,
            communication=communication,
            killed_nodes=(
                [int(i) for i in self.failure_injector.killed]
                if self.failure_injector is not None
                else []
            ),
        )
        if self.done:
            self._result = result
        return result

    # -- scheduler snapshots (mid-run finalization) ----------------------
    def _scheduler_snapshot(self) -> Dict[str, Any]:
        stats = self.scheduler.stats
        return {
            "rng_state": self.scheduler._rng.bit_generator.state,
            "stats": dataclasses.replace(
                stats, per_round_messages=list(stats.per_round_messages)
            ),
            "round_messages": self.scheduler._round_messages,
            "current_round": self.scheduler.current_round,
        }

    def _scheduler_restore(self, snapshot: Dict[str, Any]) -> None:
        self.scheduler._rng.bit_generator.state = snapshot["rng_state"]
        self.scheduler.stats = snapshot["stats"]
        self.scheduler._round_messages = snapshot["round_messages"]
        self.scheduler.current_round = snapshot["current_round"]

    # -- checkpointing ---------------------------------------------------
    def _checkpoint_runtime(self) -> Optional[Dict[str, Any]]:
        injector = self.failure_injector
        return {
            "tracker": self._tracker_state(),
            "drop_probability": float(self.scheduler.drop_probability),
            "scheduler": {
                "rng_state": rng_state_to_dict(self.scheduler._rng),
                "current_round": int(self.scheduler.current_round),
                "stats": {
                    "messages": int(self.scheduler.stats.messages),
                    "transmissions": int(self.scheduler.stats.transmissions),
                    "bytes_sent": int(self.scheduler.stats.bytes_sent),
                    "dropped": int(self.scheduler.stats.dropped),
                    "per_round_messages": [
                        int(v) for v in self.scheduler.stats.per_round_messages
                    ],
                },
            },
            "failures": (
                {
                    "scheduled": {
                        str(round_index): [int(i) for i in node_ids]
                        for round_index, node_ids in injector.scheduled.items()
                    },
                    "random_failure_rate": float(injector.random_failure_rate),
                    "rng_state": rng_state_to_dict(injector.rng),
                    "killed": [int(i) for i in injector.killed],
                }
                if injector is not None
                else None
            ),
        }

    def _restore_runtime(self, payload: Optional[Dict[str, Any]]) -> None:
        from repro.runtime.failures import FailureInjector

        payload = payload or {}
        self._restore_tracker_state(payload.get("tracker"))

        scheduler_payload = payload.get("scheduler")
        if scheduler_payload is not None:
            self.scheduler.drop_probability = float(
                payload.get("drop_probability", self.scheduler.drop_probability)
            )
            self.scheduler._rng = rng_from_state(scheduler_payload["rng_state"])
            self.scheduler.current_round = int(scheduler_payload["current_round"])
            stats_payload = scheduler_payload["stats"]
            self.scheduler.stats.messages = int(stats_payload["messages"])
            self.scheduler.stats.transmissions = int(stats_payload["transmissions"])
            self.scheduler.stats.bytes_sent = int(stats_payload["bytes_sent"])
            self.scheduler.stats.dropped = int(stats_payload["dropped"])
            self.scheduler.stats.per_round_messages = [
                int(v) for v in stats_payload["per_round_messages"]
            ]

        failures_payload = payload.get("failures")
        if failures_payload is not None:
            injector = FailureInjector(
                scheduled={
                    int(round_index): [int(i) for i in node_ids]
                    for round_index, node_ids in failures_payload["scheduled"].items()
                },
                random_failure_rate=float(failures_payload["random_failure_rate"]),
                rng=rng_from_state(failures_payload["rng_state"]),
            )
            injector.killed = [int(i) for i in failures_payload["killed"]]
            self.failure_injector = injector

        self._have_regions = False


class StaticDeployer(Deployer):
    """No movement: ranges sized to the dominating regions in place.

    One ``step()`` completes the run; the result reports zero rounds
    and an empty history — exactly the shape the static pipeline (the
    lifetime baselines) has always produced.
    """

    kind = "static"

    def step(self) -> RoundEvent:
        from repro.voronoi.dominating import compute_dominating_region

        self._require_active()
        network = self.network
        region = network.region
        positions = network.positions()
        ranges: List[float] = []
        for i, pos in enumerate(positions):
            others = [p for j, p in enumerate(positions) if j != i]
            dom = compute_dominating_region(pos, others, region, self.config.k)
            ranges.append(float(dom.circumradius(pos)))
        for node_id, r in enumerate(ranges):
            network.set_sensing_range(node_id, r)
        self._ranges = ranges
        self._converged = True
        stats = RoundStats(
            round_index=0,
            max_circumradius=0.0,
            min_circumradius=0.0,
            max_range_from_position=max(ranges) if ranges else 0.0,
            min_range_from_position=min(ranges) if ranges else 0.0,
            max_displacement=0.0,
            mean_displacement=0.0,
        )
        return RoundEvent(
            round_index=0,
            stats=stats,
            displacements=[0.0] * len(ranges),
            ranges_from_position=ranges,
            centers={},
            positions=positions,
            moved=False,
            converged=True,
            done=True,
        )

    def result(self) -> SimulationResult:
        if self._result is not None:
            return self._result
        if not self._converged:
            self.step()
        self._result = SimulationResult(
            config=self.config,
            initial_positions=self._initial_positions,
            final_positions=list(self.network.positions()),
            sensing_ranges=self._ranges,
            converged=True,
            rounds_executed=0,
            history=[],
            kind=self.kind,
        )
        return self._result


#: Deployer classes by kind — the kinds double as scenario pipelines.
DEPLOYERS: Dict[str, type] = {
    CentralizedDeployer.kind: CentralizedDeployer,
    DistributedDeployer.kind: DistributedDeployer,
    StaticDeployer.kind: StaticDeployer,
}
