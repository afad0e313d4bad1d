"""The async multi-tenant session manager (simulation-as-a-service core).

One :class:`SessionManager` hosts thousands of named
:class:`~repro.api.Simulation` sessions on a single asyncio event loop:

* **Bounded compute.** CPU-bound ``step()`` calls run on a bounded
  thread pool (``max_workers``), so one heavy N=10k session queues
  behind the pool instead of starving the event loop — the loop stays
  free to accept requests, serve checkpoints and flush event batches.
* **Checkpoint-backed eviction.** Idle sessions are transparently
  serialized to their versioned :class:`~repro.api.SimulationCheckpoint`
  JSON blob and the live object dropped; the next request resurrects
  them via :meth:`Simulation.restore`, which is bitwise-identical by
  the PR 3 contract.  An idle session therefore costs ~the blob
  (:attr:`SimulationCheckpoint.nbytes`), not the live numpy state.
  Eviction is LRU by :attr:`Simulation.idle_since` and triggers on
  either a live-session cap or a live-byte budget.
* **Batched event delivery.** Subscribers receive coalesced round-event
  batches through :class:`~repro.service.batching.EventBatcher` instead
  of per-event callbacks; see that module for the flush-window
  semantics.

Every public coroutine must run on the manager's event loop (the HTTP
front end in :mod:`repro.service.http` does; tests drive the manager
under ``asyncio.run``).  Per-session :class:`asyncio.Lock`\\ s serialize
step/evict/resurrect per session while letting distinct sessions
proceed concurrently.
"""

from __future__ import annotations

import asyncio
import contextvars
import itertools
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, List, Optional

from repro.api.session import Simulation
from repro.obs import trace as _trace
from repro.obs.metrics import MetricsRegistry
from repro.service.batching import (
    DEFAULT_MAX_EVENTS,
    DEFAULT_MAX_LATENCY,
    DEFAULT_MAX_PENDING,
    EventBatcher,
    Subscriber,
)

#: Live-session resident-size estimator (bytes).  The eviction budget
#: needs a *ranking-stable* estimate that is cheap at create time; the
#: constants are calibrated against the tracemalloc measurements in
#: ``benchmarks/test_bench_service.py`` (a live idle session allocates
#: roughly an order of magnitude more than its checkpoint blob).
LIVE_SESSION_BASE_BYTES = 64 * 1024
LIVE_BYTES_PER_NODE = 2048

#: Environment knobs the ``repro serve`` CLI and tests share.
MAX_LIVE_SESSIONS_ENV = "REPRO_SERVICE_MAX_LIVE"
LIVE_BYTES_BUDGET_ENV = "REPRO_SERVICE_LIVE_BYTES"


class UnknownSessionError(KeyError):
    """No session with that name (maps to HTTP 404)."""


class DuplicateSessionError(ValueError):
    """A session with that name already exists (maps to HTTP 409)."""


class SessionCompletedError(RuntimeError):
    """The session is done; it cannot be stepped further (HTTP 409)."""


def estimate_live_nbytes(node_count: int) -> int:
    """Estimated resident cost of one live session (see module constants)."""
    return LIVE_SESSION_BASE_BYTES + LIVE_BYTES_PER_NODE * int(node_count)


class SessionRecord:
    """Bookkeeping for one hosted session: live object *or* evicted blob."""

    def __init__(self, name: str, simulation: Simulation, batcher: EventBatcher) -> None:
        self.name = name
        self.simulation: Optional[Simulation] = simulation
        self.blob: Optional[str] = None
        self.batcher = batcher
        self.lock = asyncio.Lock()
        self.created_at = time.monotonic()
        self.node_count = len(simulation.network.nodes)
        self.kind = simulation.deployer.kind
        self.rounds_executed = 0
        self.done = False
        self.evictions = 0
        self.resurrections = 0
        self.steps = 0
        self._evicted_idle_since = time.monotonic()

    @property
    def live(self) -> bool:
        return self.simulation is not None

    @property
    def idle_since(self) -> float:
        """Monotonic last-use timestamp, live or evicted."""
        if self.simulation is not None:
            return self.simulation.idle_since
        return self._evicted_idle_since

    @property
    def nbytes(self) -> int:
        """Resident cost: blob size when evicted, estimate when live."""
        if self.simulation is None:
            return len(self.blob.encode("utf-8")) if self.blob else 0
        return estimate_live_nbytes(self.node_count)

    def info(self) -> Dict[str, Any]:
        """JSON-compatible status row (the ``GET /sessions/{name}`` body)."""
        return {
            "name": self.name,
            "kind": self.kind,
            "live": self.live,
            "done": self.done,
            "rounds_executed": self.rounds_executed,
            "node_count": self.node_count,
            "nbytes": self.nbytes,
            "evictions": self.evictions,
            "resurrections": self.resurrections,
            "steps": self.steps,
            "subscribers": self.batcher.subscriber_count,
            "idle_seconds": max(0.0, time.monotonic() - self.idle_since),
        }


class SessionManager:
    """Hosts many concurrent sessions with eviction and batched events."""

    def __init__(
        self,
        *,
        max_live_sessions: Optional[int] = None,
        max_live_bytes: Optional[int] = None,
        max_workers: Optional[int] = None,
        batch_max_events: int = DEFAULT_MAX_EVENTS,
        batch_max_latency: float = DEFAULT_MAX_LATENCY,
        max_pending_batches: int = DEFAULT_MAX_PENDING,
    ) -> None:
        if max_live_sessions is None:
            env = os.environ.get(MAX_LIVE_SESSIONS_ENV, "").strip()
            max_live_sessions = int(env) if env else 128
        if max_live_bytes is None:
            env = os.environ.get(LIVE_BYTES_BUDGET_ENV, "").strip()
            max_live_bytes = int(env) if env else None
        if max_live_sessions < 1:
            raise ValueError("max_live_sessions must be >= 1")
        self.max_live_sessions = max_live_sessions
        self.max_live_bytes = max_live_bytes
        self.batch_max_events = batch_max_events
        self.batch_max_latency = batch_max_latency
        self.max_pending_batches = max_pending_batches
        workers = max_workers if max_workers else min(8, (os.cpu_count() or 1) + 2)
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-service"
        )
        self.max_workers = workers
        self._sessions: Dict[str, SessionRecord] = {}
        self._reserved: set = set()
        self._names = itertools.count(1)
        self._closed = False
        # Per-manager registry: the single source of truth for hosting
        # counters (stats() and /metrics both read it), private so tests
        # running many managers in one process never share state.
        self.metrics = MetricsRegistry()
        self._created_total = self.metrics.counter(
            "repro_service_sessions_created_total", "Sessions created or adopted"
        )
        self._steps_total = self.metrics.counter(
            "repro_service_session_steps_total", "Simulation rounds executed"
        )
        self._evictions_total = self.metrics.counter(
            "repro_service_session_evictions_total",
            "Sessions checkpoint-evicted to free the live budget",
        )
        self._resurrections_total = self.metrics.counter(
            "repro_service_session_resurrections_total",
            "Evicted sessions restored from their checkpoint blob",
        )
        self._batcher_drops_total = self.metrics.counter(
            "repro_service_batcher_dropped_batches_total",
            "Event batches dropped on saturated subscriber queues",
        )
        self.metrics.gauge(
            "repro_service_live_sessions", "Sessions currently resident"
        ).set_function(
            lambda: sum(1 for r in self._sessions.values() if r.live)
        )
        self.metrics.gauge(
            "repro_service_evicted_sessions", "Sessions currently evicted"
        ).set_function(
            lambda: sum(1 for r in self._sessions.values() if not r.live)
        )
        self.metrics.gauge(
            "repro_service_live_bytes_estimate",
            "Estimated resident bytes of the live sessions",
        ).set_function(
            lambda: sum(r.nbytes for r in self._sessions.values() if r.live)
        )

    # ------------------------------------------------------------------
    # Counter-backed totals (the registry is the single source of truth)
    # ------------------------------------------------------------------
    @property
    def total_created(self) -> int:
        return int(self._created_total.value)

    @property
    def total_evictions(self) -> int:
        return int(self._evictions_total.value)

    @property
    def total_resurrections(self) -> int:
        return int(self._resurrections_total.value)

    @property
    def total_steps(self) -> int:
        return int(self._steps_total.value)

    @property
    def batcher_dropped_batches(self) -> int:
        return int(self._batcher_drops_total.value)

    # ------------------------------------------------------------------
    # Lookup / listing
    # ------------------------------------------------------------------
    def _record(self, name: str) -> SessionRecord:
        try:
            return self._sessions[name]
        except KeyError:
            raise UnknownSessionError(name) from None

    def info(self, name: str) -> Dict[str, Any]:
        return self._record(name).info()

    def list_sessions(self) -> List[Dict[str, Any]]:
        return [record.info() for record in self._sessions.values()]

    def stats(self) -> Dict[str, Any]:
        """Aggregate hosting stats (the ``GET /stats`` body)."""
        live = [r for r in self._sessions.values() if r.live]
        evicted = [r for r in self._sessions.values() if not r.live]
        return {
            "sessions": len(self._sessions),
            "live_sessions": len(live),
            "evicted_sessions": len(evicted),
            "live_bytes_estimate": sum(r.nbytes for r in live),
            "evicted_bytes": sum(r.nbytes for r in evicted),
            "max_live_sessions": self.max_live_sessions,
            "max_live_bytes": self.max_live_bytes,
            "max_workers": self.max_workers,
            "total_created": self.total_created,
            "total_evictions": self.total_evictions,
            "total_resurrections": self.total_resurrections,
            "total_steps": self.total_steps,
            "batcher_dropped_batches": self.batcher_dropped_batches,
        }

    # ------------------------------------------------------------------
    # Session lifecycle
    # ------------------------------------------------------------------
    async def create(
        self, name: Optional[str] = None, /, **scenario_kwargs: Any
    ) -> Dict[str, Any]:
        """Create and register a session from ``Simulation`` kwargs.

        ``scenario_kwargs`` is anything the kwargs construction form of
        :class:`Simulation` accepts (``node_count``, ``k``, ``seed``,
        ``pipeline``, ...).  Construction runs on the worker pool — it
        builds networks and can be arbitrarily heavy.
        """
        self._require_open()
        if name is None:
            name = f"session-{next(self._names)}"
        if name in self._sessions or name in self._reserved:
            raise DuplicateSessionError(f"session {name!r} already exists")
        # Reserve the name before awaiting so concurrent creates of the
        # same name cannot both pass the duplicate check.
        self._reserved.add(name)
        try:
            simulation = await self._run_in_pool(
                lambda: Simulation(**scenario_kwargs)
            )
        finally:
            self._reserved.discard(name)
        batcher = EventBatcher(
            name,
            max_events=self.batch_max_events,
            max_latency=self.batch_max_latency,
            max_pending=self.max_pending_batches,
            drop_counter=self._batcher_drops_total,
        )
        record = SessionRecord(name, simulation, batcher)
        self._sessions[name] = record
        self._created_total.inc()
        await self._maybe_evict(exclude=name)
        return record.info()

    async def adopt(self, name: str, simulation: Simulation) -> Dict[str, Any]:
        """Register an already-built session object (in-process callers)."""
        self._require_open()
        if name in self._sessions:
            raise DuplicateSessionError(f"session {name!r} already exists")
        batcher = EventBatcher(
            name,
            max_events=self.batch_max_events,
            max_latency=self.batch_max_latency,
            max_pending=self.max_pending_batches,
            drop_counter=self._batcher_drops_total,
        )
        record = SessionRecord(name, simulation, batcher)
        record.rounds_executed = simulation.state.rounds_executed
        record.done = simulation.done
        self._sessions[name] = record
        self._created_total.inc()
        await self._maybe_evict(exclude=name)
        return record.info()

    async def delete(self, name: str) -> None:
        """Drop a session: subscribers are closed, state is discarded."""
        record = self._record(name)
        async with record.lock:
            record.batcher.close()
            record.simulation = None
            record.blob = None
            self._sessions.pop(name, None)

    def _run_in_pool(self, fn: Callable[[], Any]) -> "asyncio.Future[Any]":
        """Run ``fn`` on the worker pool under a copy of the caller's context.

        ``run_in_executor`` does not carry contextvars into the worker,
        so without the copy every span a pooled call opens (a ``round``
        under ``step``, say) would be a root instead of a child of the
        request that caused it.
        """
        return asyncio.get_running_loop().run_in_executor(
            self._pool, contextvars.copy_context().run, fn
        )

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    async def step(
        self, name: str, rounds: int = 1, include_events: bool = True
    ) -> Dict[str, Any]:
        """Execute up to ``rounds`` rounds (stops early when done).

        Returns the session info plus (optionally) the wire form of the
        events produced.  The compute runs on the worker pool; the
        events are published to the session's subscribers on the loop.
        """
        if rounds < 1:
            raise ValueError("rounds must be >= 1")
        record = self._record(name)
        async with record.lock:
            simulation = await self._ensure_live(record)
            if simulation.done:
                raise SessionCompletedError(
                    f"session {name!r} is complete after "
                    f"{record.rounds_executed} round(s)"
                )

            def run_rounds() -> List[Any]:
                events = []
                for _ in range(rounds):
                    if simulation.done:
                        break
                    events.append(simulation.step())
                return events

            with _trace.span("step", session=name, rounds=rounds):
                events = await self._run_in_pool(run_rounds)
            self._after_step(record, simulation, events)
        await self._maybe_evict(exclude=name)
        payload = {"session": record.info()}
        if include_events:
            from repro.service.events import event_to_dict

            payload["events"] = [event_to_dict(e) for e in events]
        return payload

    async def run_to_round(
        self, name: str, round_target: int, include_events: bool = False
    ) -> Dict[str, Any]:
        """Step until ``rounds_executed >= round_target`` (or done)."""
        if round_target < 0:
            raise ValueError("round_target must be >= 0")
        record = self._record(name)
        async with record.lock:
            simulation = await self._ensure_live(record)

            def run_rounds() -> List[Any]:
                events = []
                while (
                    not simulation.done
                    and simulation.state.rounds_executed < round_target
                ):
                    events.append(simulation.step())
                return events

            with _trace.span("step", session=name, until=round_target):
                events = await self._run_in_pool(run_rounds)
            self._after_step(record, simulation, events)
        await self._maybe_evict(exclude=name)
        payload = {"session": record.info()}
        if include_events:
            from repro.service.events import event_to_dict

            payload["events"] = [event_to_dict(e) for e in events]
        return payload

    def _after_step(
        self, record: SessionRecord, simulation: Simulation, events: List[Any]
    ) -> None:
        record.steps += len(events)
        if events:
            self._steps_total.inc(len(events))
        record.rounds_executed = simulation.state.rounds_executed
        record.done = simulation.done
        for event in events:
            record.batcher.publish(event)
        if record.done:
            # The stream is over: close out partial batches immediately
            # instead of making the last subscribers wait out the window.
            record.batcher.flush_all()

    async def result(self, name: str) -> Dict[str, Any]:
        """Finalized (or mid-run) result of the session, wire form."""
        record = self._record(name)
        async with record.lock:
            simulation = await self._ensure_live(record)
            result = await self._run_in_pool(lambda: simulation.result().to_dict())
        await self._maybe_evict(exclude=name)
        return result

    async def checkpoint(self, name: str) -> Dict[str, Any]:
        """The session's full checkpoint payload.

        An evicted session answers straight from its blob — serving a
        checkpoint never forces a resurrection.
        """
        record = self._record(name)
        async with record.lock:
            if record.simulation is None:
                return json.loads(record.blob or "null")
            simulation = record.simulation
            return await self._run_in_pool(lambda: simulation.checkpoint().payload)

    # ------------------------------------------------------------------
    # Subscriptions
    # ------------------------------------------------------------------
    async def subscribe(
        self,
        name: str,
        *,
        max_events: Optional[int] = None,
        max_latency: Optional[float] = None,
        include_positions: bool = False,
    ) -> str:
        """Attach a batch subscriber to a session; returns its id."""
        record = self._record(name)
        subscriber = record.batcher.attach(
            max_events=max_events,
            max_latency=max_latency,
            include_positions=include_positions,
        )
        return subscriber.id

    async def next_batch(
        self, name: str, subscriber_id: str, timeout: Optional[float] = None
    ) -> Optional[Dict[str, Any]]:
        """Long-poll the next coalesced batch for one subscriber."""
        record = self._record(name)
        try:
            subscriber: Subscriber = record.batcher.get(subscriber_id)
        except KeyError:
            raise UnknownSessionError(f"{name}/{subscriber_id}") from None
        return await subscriber.next_batch(timeout)

    async def unsubscribe(self, name: str, subscriber_id: str) -> None:
        record = self._record(name)
        try:
            record.batcher.detach(subscriber_id)
        except KeyError:
            raise UnknownSessionError(f"{name}/{subscriber_id}") from None

    # ------------------------------------------------------------------
    # Eviction / resurrection
    # ------------------------------------------------------------------
    async def _ensure_live(self, record: SessionRecord) -> Simulation:
        """Resurrect an evicted session (caller holds the record lock)."""
        if record.simulation is not None:
            record.simulation.touch()
            return record.simulation
        blob = record.blob
        if blob is None:  # pragma: no cover - delete() holds the lock
            raise UnknownSessionError(record.name)
        simulation = await self._run_in_pool(
            lambda: Simulation.restore(json.loads(blob))
        )
        simulation.touch()
        record.simulation = simulation
        record.blob = None
        record.resurrections += 1
        self._resurrections_total.inc()
        return simulation

    def _over_budget(self, live: List[SessionRecord]) -> bool:
        if len(live) > self.max_live_sessions:
            return True
        if self.max_live_bytes is not None:
            return sum(r.nbytes for r in live) > self.max_live_bytes
        return False

    async def _maybe_evict(self, exclude: Optional[str] = None) -> int:
        """Evict LRU idle live sessions until back under budget.

        Sessions currently holding their lock (stepping/resurrecting)
        and the just-touched ``exclude`` session are skipped; when every
        candidate is busy the manager stays temporarily over budget
        rather than blocking — the next request re-checks.
        """
        evicted = 0
        while True:
            live = [r for r in self._sessions.values() if r.live]
            if not self._over_budget(live):
                return evicted
            # The just-touched session sorts last, so it is only evicted
            # when the budget cannot even hold one session — a hard byte
            # budget stays hard.
            candidates = sorted(
                (r for r in live if not r.lock.locked()),
                key=lambda r: (r.name == exclude, r.idle_since),
            )
            if not candidates:
                return evicted
            await self._evict(candidates[0])
            evicted += 1

    async def _evict(self, record: SessionRecord) -> None:
        """Serialize one session to its checkpoint blob and drop it."""
        async with record.lock:
            simulation = record.simulation
            if simulation is None:
                return
            blob = await self._run_in_pool(lambda: simulation.checkpoint().to_json())
            record.blob = blob
            record.simulation = None
            record._evicted_idle_since = time.monotonic()
            record.evictions += 1
            self._evictions_total.inc()

    async def evict(self, name: str) -> Dict[str, Any]:
        """Force-evict one session (testing / admin endpoint)."""
        record = self._record(name)
        await self._evict(record)
        return record.info()

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def _require_open(self) -> None:
        if self._closed:
            raise RuntimeError("the session manager is closed")

    async def close(self) -> None:
        """Close every subscriber and release the worker pool."""
        self._closed = True
        for record in list(self._sessions.values()):
            record.batcher.close()
        self._sessions.clear()
        self._pool.shutdown(wait=True)
