"""Layer spans recorded from outside the program.

The traced run installs wrappers around the public entry points of each
layer and records one span per call: name, start, end, parent (the
span open on the same logical context) and a few counts read off the
call's arguments and return value.  Nothing under ``src/`` is edited;
every wrapper is installed on the name its callers look up (for
example ``repro.engine.sparse.clip_cells_batch`` and
``repro.runtime.sparse.clip_cells_batch`` are patched separately).

Spans live in memory (:data:`ROWS`) and are exported at the end as a
Chrome trace that :func:`repro.obs.trace.validate_chrome_trace` accepts.
A layer's *self time* is its span's duration minus the durations of its
child spans.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import os
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Optional

#: Id of the span open on the current logical context (0 at the root).
_CURRENT: "contextvars.ContextVar[int]" = contextvars.ContextVar(
    "perfbench_span", default=0
)
_IDS = itertools.count(1)
#: Closed spans: dicts with id, parent, name, t0, t1, pid, tid, attrs.
ROWS: List[Dict[str, Any]] = []
#: Where forked sweep workers leave their span rows (set by the sweep).
CELL_DUMP_DIR: Optional[Path] = None
_PID = os.getpid()
_WORKER_PID: Optional[int] = None

Counter = Callable[[tuple, dict, Any], Optional[Dict[str, Any]]]


def _record(sid, parent, name, t0, t1, attrs) -> None:
    ROWS.append(
        {
            "id": sid,
            "parent": parent,
            "name": name,
            "t0": t0,
            "t1": t1,
            "pid": os.getpid(),
            "tid": threading.get_ident(),
            "attrs": attrs or {},
        }
    )


def _sync_wrapper(fn: Callable, name: str, counter: Optional[Counter]) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        parent = _CURRENT.get()
        sid = next(_IDS)
        token = _CURRENT.set(sid)
        t0 = perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            _CURRENT.reset(token)
        _record(sid, parent, name, t0, t1, counter(args, kwargs, out) if counter else None)
        return out

    return wrapper


def _async_wrapper(fn: Callable, name: str, counter: Optional[Counter]) -> Callable:
    @functools.wraps(fn)
    async def wrapper(*args, **kwargs):
        parent = _CURRENT.get()
        sid = next(_IDS)
        token = _CURRENT.set(sid)
        t0 = perf_counter()
        try:
            out = await fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            _CURRENT.reset(token)
        _record(sid, parent, name, t0, t1, counter(args, kwargs, out) if counter else None)
        return out

    return wrapper


def wrap(owner: Any, attr: str, name: str, counter: Optional[Counter] = None) -> None:
    """Replace ``owner.attr`` by a span-recording wrapper.

    ``owner`` is a module or a class; class- and static methods keep
    their descriptor type, coroutine functions get an async wrapper.
    """
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    descriptor = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
    fn = raw.__func__ if descriptor else raw
    make = _async_wrapper if inspect.iscoroutinefunction(fn) else _sync_wrapper
    wrapped = make(fn, name, counter)
    setattr(owner, attr, descriptor(wrapped) if descriptor else wrapped)


def wrap_defining(base: type, attr: str, name: str, counter: Optional[Counter] = None) -> None:
    """Wrap ``attr`` on ``base`` and every subclass that defines it itself."""
    seen, todo = set(), [base]
    while todo:
        cls = todo.pop()
        if cls in seen:
            continue
        seen.add(cls)
        todo.extend(cls.__subclasses__())
        fn = cls.__dict__.get(attr)
        if fn is not None and not getattr(fn, "__isabstractmethod__", False):
            wrap(cls, attr, name, counter)


# ----------------------------------------------------------------------
# Counters read off arguments and results
# ----------------------------------------------------------------------
def _clip_counts(args, kwargs, out):
    rows = int(args[0].shape[0])
    verts = int(out[0].shape[0])
    return {"rows": rows, "verts": verts}


def _query_counts(args, kwargs, out):
    return {"candidates": int(out[0].shape[0]), "queries": int(len(args[1]))}


def _move_counts(args, kwargs, out):
    return {"moved": len(out)}


def _step_counts(args, kwargs, out):
    attrs = {"alive": len(out.displacements)}
    session = getattr(args[0], "_perfbench_session", None)
    if session is not None:
        attrs["session"] = session
    return attrs


def _session_of_self(args, kwargs, out):
    session = getattr(args[0], "_perfbench_session", None)
    return {"session": session} if session is not None else None


def _checkpoint_counts(args, kwargs, out):
    session = getattr(args[0], "_perfbench_session", None)
    if session is not None:
        out._perfbench_session = session
        return {"session": session}
    return None


def _json_counts(args, kwargs, out):
    attrs = {"bytes": len(out)}
    session = getattr(args[0], "_perfbench_session", None)
    if session is not None:
        attrs["session"] = session
    return attrs


def _restore_counts(args, kwargs, out):
    return {"sim_id": id(out)}


def _manager_name(args, kwargs, out):
    return {"session": args[1]}


def _record_name(args, kwargs, out):
    record = args[1]
    return {"session": record.name}


def _ensure_live_counts(args, kwargs, out):
    # Runs on the event loop once the (possibly resurrected) session is
    # back: tag it so its worker-thread spans can be linked by session.
    record = args[1]
    out._perfbench_session = record.name
    for row in reversed(ROWS[-256:]):
        if row["name"] == "api.restore" and row["attrs"].get("sim_id") == id(out):
            row["attrs"]["session"] = record.name
            break
    return {"session": record.name}


# ----------------------------------------------------------------------
# Installation
# ----------------------------------------------------------------------
def install_engine_layers() -> None:
    """api, engine, runtime, sparse kernels, neighbors, network, spec."""
    import repro.engine.batch  # noqa: F401  (registers the engines)
    import repro.engine.legacy  # noqa: F401
    import repro.engine.sparse as engine_sparse
    import repro.runtime.sparse as runtime_sparse
    from repro.api.checkpoint import SimulationCheckpoint
    from repro.api.session import Simulation
    from repro.engine.base import RoundEngine
    from repro.network.neighbors import SpatialGrid
    from repro.network.network import SensorNetwork
    from repro.runtime.engines import DistributedRoundEngine
    from repro.scenarios.spec import ScenarioSpec

    for module in (engine_sparse, runtime_sparse):
        wrap(module, "clip_cells_batch", "sparse_kernels.clip", _clip_counts)
        wrap(module, "mec_batch", "sparse_kernels.mec")
    wrap(SpatialGrid, "query_radius_many", "neighbors.query", _query_counts)
    wrap(SensorNetwork, "apply_moves", "network.apply_moves", _move_counts)
    wrap_defining(RoundEngine, "compute_regions", "engine.compute_regions")
    wrap_defining(RoundEngine, "compute_round", "engine.compute_round")
    wrap_defining(DistributedRoundEngine, "run_round", "runtime.run_round")
    wrap(Simulation, "__init__", "api.construct")
    wrap(Simulation, "step", "api.step", _step_counts)
    wrap(Simulation, "result", "api.result", _session_of_self)
    wrap(Simulation, "checkpoint", "api.checkpoint", _checkpoint_counts)
    wrap(Simulation, "restore", "api.restore", _restore_counts)
    wrap(SimulationCheckpoint, "to_json", "api.checkpoint_json", _json_counts)
    wrap(ScenarioSpec, "build_network", "spec.build_network")


def install_service_layers() -> None:
    """The session manager (server side; the loadgen times the HTTP layer)."""
    from repro.service.manager import SessionManager, SessionRecord

    for method in ("step", "result", "checkpoint"):
        wrap(SessionManager, method, f"manager.{method}", _manager_name)
    wrap(SessionManager, "_evict", "manager.evict", _record_name)
    wrap(SessionManager, "_ensure_live", "manager.ensure_live", _ensure_live_counts)

    # Tag every hosted session with its name (no span): a session that
    # is evicted before it is ever stepped still links its checkpoint.
    init = SessionRecord.__init__

    @functools.wraps(init)
    def tagging_init(self, name, simulation, batcher):
        init(self, name, simulation, batcher)
        simulation._perfbench_session = name

    SessionRecord.__init__ = tagging_init


def install_sweep_layers() -> None:
    """The scenarios layer: cache reads/writes, the run, pooled cells."""
    import repro.scenarios.sweep as sweep_module
    from repro.scenarios.sweep import SweepRunner

    wrap(SweepRunner, "run", "sweep.run")
    wrap(SweepRunner, "load_cached", "sweep.cache_load")
    wrap(SweepRunner, "store", "sweep.cache_store")
    cell = sweep_module._execute_spec_dict
    traced_cell = _sync_wrapper(cell, "sweep.cell", None)

    @functools.wraps(cell)
    def cell_in_worker(payload):
        # A forked pool worker inherits the parent's rows, ids and open
        # span: it records each cell as a root span in a private id
        # space and leaves the rows on disk for the parent to adopt.
        global _IDS, _WORKER_PID
        pid = os.getpid()
        if pid == _PID:
            return traced_cell(payload)
        if _WORKER_PID != pid:
            _WORKER_PID = pid
            _IDS = itertools.count(pid * 1_000_000 + 1)
        del ROWS[:]
        token = _CURRENT.set(0)
        try:
            return traced_cell(payload)
        finally:
            _CURRENT.reset(token)
            path = CELL_DUMP_DIR / f"cell-{pid}-{next(_IDS)}.json"
            path.write_text(json.dumps(ROWS))
            del ROWS[:]

    sweep_module._execute_spec_dict = cell_in_worker


def adopt_cell_dumps(directory: Path) -> None:
    """Merge the span rows forked sweep workers left in ``directory``."""
    for path in sorted(directory.glob("cell-*.json")):
        ROWS.extend(json.loads(path.read_text()))
        path.unlink()


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def self_times(rows: Iterable[Dict[str, Any]]) -> Dict[int, float]:
    """Span id -> duration minus the durations of its children."""
    rows = list(rows)
    child = defaultdict(float)
    for row in rows:
        if row["parent"]:
            child[row["parent"]] += row["t1"] - row["t0"]
    return {row["id"]: row["t1"] - row["t0"] - child[row["id"]] for row in rows}


def totals(rows: Iterable[Dict[str, Any]]):
    """Per span name: (inclusive seconds, self seconds, calls)."""
    rows = list(rows)
    selfs = self_times(rows)
    incl = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    for row in rows:
        incl[row["name"]] += row["t1"] - row["t0"]
        own[row["name"]] += selfs[row["id"]]
        calls[row["name"]] += 1
    return incl, own, calls


def union_seconds(rows: Iterable[Dict[str, Any]]) -> float:
    """Seconds during which at least one of the spans is open."""
    total, end = 0.0, float("-inf")
    for row in sorted(rows, key=lambda r: r["t0"]):
        if row["t1"] > end:
            total += row["t1"] - max(row["t0"], end)
            end = row["t1"]
    return total


def attr_sum(rows: Iterable[Dict[str, Any]], name: str, key: str) -> int:
    return sum(r["attrs"].get(key, 0) for r in rows if r["name"] == name)


def engine_layer_metrics(rows: List[Dict[str, Any]]) -> Dict[str, float]:
    """Per-layer metrics of the api / engine / runtime / kernel stack."""
    incl, own, calls = totals(rows)
    clip_rows = attr_sum(rows, "sparse_kernels.clip", "rows")
    clip_verts = attr_sum(rows, "sparse_kernels.clip", "verts")
    steps = calls["api.step"]
    step_node_rounds = attr_sum(rows, "api.step", "alive")
    passes = calls["engine.compute_regions"] + calls["runtime.run_round"]
    node_rounds = step_node_rounds / steps * passes if steps else 0
    moved = attr_sum(rows, "network.apply_moves", "moved")
    json_calls = calls["api.checkpoint_json"]
    return {
        "engine.compute_regions_s": own["engine.compute_regions"],
        "engine.summary_s": own["engine.compute_round"],
        "sparse_kernels.clip_s": incl["sparse_kernels.clip"],
        "sparse_kernels.clip_calls": calls["sparse_kernels.clip"],
        "sparse_kernels.clip_rows": clip_rows,
        "sparse_kernels.clip_verts_out": clip_verts,
        # Two float64 coordinates per emitted vertex.
        "sparse_kernels.clip_bytes_out": clip_verts * 16,
        "sparse_kernels.clip_rows_per_node_round": (
            clip_rows / node_rounds if node_rounds else 0.0
        ),
        "sparse_kernels.mec_s": incl["sparse_kernels.mec"],
        "neighbors.query_s": incl["neighbors.query"],
        "neighbors.query_calls": calls["neighbors.query"],
        "neighbors.candidates": attr_sum(rows, "neighbors.query", "candidates"),
        "network.apply_moves_s": incl["network.apply_moves"],
        "network.moved_nodes": moved,
        "api.step_self_s": own["api.step"],
        "api.result_s": incl["api.result"],
        "api.rounds": steps,
        "api.moved_fraction": moved / step_node_rounds if step_node_rounds else 0.0,
        "api.checkpoint_s": incl["api.checkpoint"] + incl["api.checkpoint_json"],
        "api.restore_s": incl["api.restore"],
        "api.checkpoint_bytes": (
            attr_sum(rows, "api.checkpoint_json", "bytes") / json_calls
            if json_calls
            else 0.0
        ),
        "runtime.run_round_s": incl["runtime.run_round"],
        "runtime.gather_s": own["runtime.run_round"],
        "spec.build_network_s": incl["spec.build_network"],
    }


def communication_metrics(communication: Optional[Dict[str, int]]) -> Dict[str, float]:
    """The protocol counters of a result (zeros for centralized runs)."""
    if not communication:
        return {}
    messages = communication["messages"]
    return {
        "runtime.messages": messages,
        "runtime.transmissions": communication["transmissions"],
        "runtime.dropped": communication["dropped"],
        "runtime.delivery_ratio": (
            1.0 - communication["dropped"] / messages if messages else 0.0
        ),
    }


def chrome_trace(rows: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Chrome trace-event JSON (complete events, microseconds)."""
    rows = list(rows)
    base = min((r["t0"] for r in rows), default=0.0)
    events = []
    for r in rows:
        args = {k: v for k, v in r["attrs"].items() if k != "sim_id"}
        args["span_id"] = r["id"]
        if r["parent"]:
            args["parent_id"] = r["parent"]
        events.append(
            {
                "name": r["name"],
                "cat": r["name"].split(".")[0],
                "ph": "X",
                "ts": (r["t0"] - base) * 1e6,
                "dur": (r["t1"] - r["t0"]) * 1e6,
                "pid": r["pid"],
                "tid": r["tid"],
                "args": args,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(rows: Iterable[Dict[str, Any]], path: Path) -> int:
    """Write and schema-check the trace; returns its event count."""
    from repro.obs.trace import validate_chrome_trace

    payload = chrome_trace(rows)
    count = validate_chrome_trace(payload)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload))
    return count
