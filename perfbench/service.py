"""``service-1k``: ``repro serve`` over real HTTP, driven by an open loop.

Set-up starts the server as its own process (``--max-live-sessions 64``,
default engine and workers) and creates 1000 sessions over HTTP (N=40,
k=2, one seed each).  A single-process open loop then sends a seeded
Poisson schedule of ``RATE_RPS * seconds`` requests at :data:`RATE_RPS`
with at most ``nproc`` requests in flight: 70% ``POST /step``
("steps"), 20% ``GET /result`` and 10% ``GET /checkpoint`` ("reads").
Every latency is timed from the request's *due* time, so a stall also
charges the requests queued behind it.  The "deployment" is the whole
schedule; its time is the summed service time (send to reply) of all
requests, which the server determines, not the schedule's length.
Set-ups are timed in calibrated seconds (:func:`perfbench.common.timed`);
the open loop's times are scaled by calibrations taken right before and
right after it.

With tracing the server runs under ``perfbench.serve_traced``; its
manager spans are matched to the client's requests by session and time
(``perf_counter`` is the system-wide monotonic clock on Linux), and the
worker-thread ``api`` spans are linked to the manager call of their
session, because the executor hop drops span parentage.
"""

from __future__ import annotations

import asyncio
import bisect
import json
import os
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from perfbench import common, layers

SESSIONS = 1000
NODES = 40
K = 2
MAX_LIVE = 64
#: Offered load: about a quarter of the capacity measured on the
#: reference box (2 cores, no numba: ~55 requests/s saturated), where
#: queueing stays small enough that latency tracks service time (see
#: README.md).
RATE_RPS = 14.0
#: Latency limit for goodput, from the due time.
LIMIT_MS = 250.0
#: Shares of the schedule: steps, then result reads; the rest are
#: checkpoint reads.  Result reads outnumber checkpoint reads two to
#: one so the read median sits inside one mode: a checkpoint of an
#: evicted session is served from its blob in ~3 ms, a result
#: resurrects the session (~15 ms).
STEP_SHARE = 0.7
RESULT_SHARE = 0.2
SETUP_REPS = 3
#: Calibration loops timed before and after the open loop.
CAL_REPEATS = 15
CHECK_SESSIONS = 8
INFLIGHT = os.cpu_count() or 1


def _scenario(seed: int, index: int) -> Dict[str, Any]:
    return {"node_count": NODES, "k": K, "seed": seed * SESSIONS + index}


def _server_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([str(common.ROOT), str(common.ROOT / "src")])
    env["PYTHONUNBUFFERED"] = "1"
    return env


class Server:
    """One ``repro serve`` process on an ephemeral port."""

    def __init__(self, out_dir: Path, dump: Optional[Path] = None) -> None:
        serve = ["serve", "--port", "0", "--max-live-sessions", str(MAX_LIVE)]
        if dump is None:
            cmd = [sys.executable, "-m", "repro", *serve]
        else:
            cmd = [sys.executable, "-m", "perfbench.serve_traced", "--dump", str(dump), "--", *serve]
        self.dump = dump
        self.log = open(out_dir / "server.log", "a")
        self.proc = subprocess.Popen(
            cmd, cwd=common.ROOT, env=_server_env(), stdout=subprocess.PIPE,
            stderr=self.log, text=True,
        )
        line = self.proc.stdout.readline()
        if "listening on http://" not in line:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        url = line.split("listening on http://", 1)[1].split()[0]
        host, _, port = url.partition(":")
        self.host, self.port = host, int(port)

    def peak_rss_mib(self) -> float:
        return common.process_peak_rss_mib(self.proc.pid)

    def stop(self) -> List[Dict[str, Any]]:
        """Stop the server and wait for it; returns its span rows (if traced)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()
        if self.dump is not None and self.dump.exists():
            rows = json.loads(self.dump.read_text())
            self.dump.unlink()
            return rows
        return []


async def _http(server: Server, method: str, path: str, body: Any = None) -> Tuple[int, bytes]:
    reader, writer = await asyncio.open_connection(server.host, server.port)
    data = json.dumps(body).encode() if body is not None else b""
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: {server.host}\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(data)}\r\n"
        "Connection: close\r\n\r\n"
    )
    try:
        writer.write(head.encode("ascii") + data)
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
    status_line, _, rest = raw.partition(b"\r\n")
    _, _, payload = rest.partition(b"\r\n\r\n")
    return int(status_line.split()[1]), payload


def _request(server: Server, method: str, path: str, body: Any = None) -> Tuple[int, Any]:
    status, payload = asyncio.run(_http(server, method, path, body))
    return status, json.loads(payload)


# ----------------------------------------------------------------------
# Set-up: start the server and create the sessions
# ----------------------------------------------------------------------
def _setup(seed: int, out_dir: Path, outcome: common.Outcome, dump: Optional[Path] = None) -> Server:
    server = Server(out_dir, dump)

    async def create_all() -> List[int]:
        gate = asyncio.Semaphore(INFLIGHT)

        async def create(i: int) -> int:
            async with gate:
                body = {"name": f"s{i}", "scenario": _scenario(seed, i)}
                status, _ = await _http(server, "POST", "/sessions", body)
                return status

        return await asyncio.gather(*(create(i) for i in range(SESSIONS)))

    try:
        statuses = asyncio.run(create_all())
    except BaseException:
        server.stop()
        raise
    bad = [s for s in statuses if s != 201]
    outcome.check([f"{len(bad)} creates failed: {sorted(set(bad))}"] if bad else [])
    return server


# ----------------------------------------------------------------------
# The open loop
# ----------------------------------------------------------------------
def schedule(seed: int, seconds: float) -> List[Tuple[float, str, int]]:
    """Seeded Poisson arrivals: (offset s, kind, session index).

    The schedule has a fixed size, ``RATE_RPS * seconds`` requests, and a
    fixed mix of kinds in seeded order, so every seed offers the server
    the same amount of work.
    """
    rng = np.random.default_rng([seed, 0x5E55])
    count = round(RATE_RPS * seconds)
    steps = round(STEP_SHARE * count)
    results = round(RESULT_SHARE * count)
    kinds = ["step"] * steps + ["result"] * results + ["checkpoint"] * (count - steps - results)
    order = rng.permutation(count)
    offsets = np.cumsum(rng.exponential(1.0 / RATE_RPS, size=count))
    sessions = rng.integers(SESSIONS, size=count)
    return [(float(offsets[i]), kinds[order[i]], int(sessions[i])) for i in range(count)]


async def _open_loop(server: Server, plan) -> Tuple[float, List[Dict[str, Any]]]:
    gate = asyncio.Semaphore(INFLIGHT)
    done = set()
    records: List[Dict[str, Any]] = []
    tasks = []

    async def send(rec: Dict[str, Any]) -> None:
        name = f"s{rec['session']}"
        if rec["kind"] == "step" and rec["session"] in done:
            rec["kind"] = "result"  # never step a session known to be done
        method, path = {
            "step": ("POST", f"/sessions/{name}/step"),
            "checkpoint": ("GET", f"/sessions/{name}/checkpoint"),
            "result": ("GET", f"/sessions/{name}/result"),
        }[rec["kind"]]
        rec["send"] = perf_counter()
        try:
            status, payload = await _http(server, method, path, {} if method == "POST" else None)
            rec["status"] = status
            if status == 200 and rec["kind"] == "step":
                if json.loads(payload)["session"]["done"]:
                    done.add(rec["session"])
        except (OSError, ValueError, IndexError, KeyError) as exc:
            rec["status"] = 0
            rec["error"] = repr(exc)
        finally:
            rec["recv"] = perf_counter()
            gate.release()

    start = perf_counter()
    for offset, kind, session in plan:
        due = start + offset
        delay = due - perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        await gate.acquire()
        rec = {"due": due, "kind": kind, "session": session}
        records.append(rec)
        tasks.append(asyncio.create_task(send(rec)))
    await asyncio.gather(*tasks)
    return start, records


def _latency_metrics(records, seconds: float) -> Dict[str, float]:
    steps = [(r["recv"] - r["due"]) * 1e3 for r in records if r["kind"] == "step"]
    reads = [(r["recv"] - r["due"]) * 1e3 for r in records if r["kind"] != "step"]
    good = sum(
        1 for r in records if r["status"] == 200 and (r["recv"] - r["due"]) * 1e3 <= LIMIT_MS
    )
    return {
        "step_p50_ms": common.percentile(steps, 50),
        "step_p99_ms": common.percentile(steps, 99),
        "read_p50_ms": common.percentile(reads, 50),
        "read_p99_ms": common.percentile(reads, 99),
        "goodput_rps": good / seconds,
        "lag_p99_ms": common.percentile([(r["send"] - r["due"]) * 1e3 for r in records], 99),
    }


def _check_requests(records, outcome: common.Outcome) -> None:
    for r in records:
        ok = 200 <= r["status"] < 300
        outcome.check([] if ok else [f"{r['kind']} s{r['session']}: status {r['status']} {r.get('error', '')}"])


def _check_sample(server: Server, seed: int, records, outcome: common.Outcome) -> None:
    """A seeded sample of stepped sessions, re-run in-process, must match bitwise."""
    from repro.api import Simulation

    stepped = sorted({r["session"] for r in records if r["kind"] == "step" and r["status"] == 200})
    if not stepped:
        outcome.check(["no session was stepped"])
        return
    rng = np.random.default_rng([seed, 0xC4EC])
    for index in rng.choice(stepped, size=min(CHECK_SESSIONS, len(stepped)), replace=False):
        status, served = _request(server, "GET", f"/sessions/s{int(index)}/result")
        sim = Simulation(**_scenario(seed, int(index)))
        rounds = served.get("rounds_executed", -1) if status == 200 else -1
        for _ in range(max(rounds, 0)):
            sim.step()
        direct = json.loads(json.dumps(sim.result().to_dict()))
        outcome.check([] if status == 200 and served == direct else [f"s{int(index)}: /result differs from an in-process run"])


def _stats(server: Server) -> Dict[str, Any]:
    return _request(server, "GET", "/stats")[1]


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------
def run(workload: str, seed: int, seconds: float, trace: bool, out_dir: Path) -> Dict[str, Any]:
    outcome = common.Outcome()
    if trace:
        return _run_traced(seed, seconds, out_dir, outcome)
    setups = []
    server = None
    try:
        for _ in range(SETUP_REPS):
            if server is not None:
                server.stop()
            server, elapsed, _ = common.timed(lambda: _setup(seed, out_dir, outcome))
            setups.append(elapsed)
        plan = schedule(seed, seconds)
        steal = common.steal_seconds()
        # The loop cannot pause for calibrations without delaying its
        # requests, so it is calibrated as a whole, from both sides.
        before = common.calibration_s(CAL_REPEATS)
        _, records = asyncio.run(_open_loop(server, plan))
        scale = 2.0 * common.CAL_REF_S / (before + common.calibration_s(CAL_REPEATS))
        steal = common.steal_seconds() - steal
        _check_requests(records, outcome)
        _check_sample(server, seed, records, outcome)
        peak = server.peak_rss_mib()
    finally:
        if server is not None:
            server.stop()
    lat = _latency_metrics(records, seconds)
    service_s = sum(r["recv"] - r["send"] for r in records)
    metrics = {
        "setup_s": common.median(setups),
        # Summed service time (send -> reply) of the fixed-size schedule.
        "deploy_s": service_s * scale,
        "step_p50_ms": lat["step_p50_ms"] * scale,
        "peak_rss_mib": peak,
    }
    return outcome.result(
        metrics,
        service_wall_s=service_s,
        speed_scale=scale,
        steal_s=steal,
        samples={"requests": len(records), "setups": len(setups)},
        latency=lat,
    )


def _run_traced(seed: int, seconds: float, out_dir: Path, outcome: common.Outcome) -> Dict[str, Any]:
    # Half the time untraced, half traced, on the same schedule prefix.
    plan = schedule(seed, seconds / 2)
    server = _setup(seed, out_dir, outcome)
    try:
        _, untraced = asyncio.run(_open_loop(server, plan))
        _check_requests(untraced, outcome)
    finally:
        server.stop()

    dump = out_dir / f"server-spans-{os.getpid()}.json"
    server = _setup(seed, out_dir, outcome, dump=dump)
    try:
        before = _stats(server)
        start, records = asyncio.run(_open_loop(server, plan))
        after = _stats(server)
        _check_requests(records, outcome)
        _check_sample(server, seed, records, outcome)
    finally:
        rows = server.stop()

    window = [r for r in rows if r["t0"] >= start]
    values = layers.engine_layer_metrics(window)
    manager_self, http_self, attributed, inner, client_rows = _attribute(window, records)
    latency = sum(r["recv"] - r["due"] for r in records)
    lat = _latency_metrics(records, seconds / 2)
    base = _latency_metrics(untraced, seconds / 2)
    steps = after["total_steps"] - before["total_steps"]
    values.update(
        {
            "manager.self_ms_p50": common.percentile(manager_self, 50),
            "manager.self_ms_p99": common.percentile(manager_self, 99),
            "manager.resurrections_per_step": (
                (after["total_resurrections"] - before["total_resurrections"]) / steps
                if steps
                else 0.0
            ),
            "manager.evictions": after["total_evictions"] - before["total_evictions"],
            "http.self_ms_p50": common.percentile(http_self, 50),
            "http.self_ms_p99": common.percentile(http_self, 99),
            "loadgen.step_p99_ms": lat["step_p99_ms"],
            "loadgen.read_p50_ms": lat["read_p50_ms"],
            "loadgen.read_p99_ms": lat["read_p99_ms"],
            "loadgen.lag_p99_ms": lat["lag_p99_ms"],
            "loadgen.goodput_rps": lat["goodput_rps"],
            "trace.coverage": attributed / latency,
            "trace.inner_coverage": inner / latency,
            "trace.overhead": lat["step_p50_ms"] / base["step_p50_ms"] - 1.0,
        }
    )
    outcome.check(
        []
        if values["trace.coverage"] >= 0.95
        else [f"layer self times cover only {values['trace.coverage']:.3f} of end-to-end time"]
    )
    events = layers.write_chrome_trace(
        client_rows + window, out_dir / f"service-1k-seed{seed}.trace.json"
    )
    return outcome.result(values, samples={"requests": len(records), "spans": len(window), "trace_events": events})


def _attribute(rows, records):
    """Match each request to its manager span and link worker spans by session.

    Returns per-request manager and HTTP self times (ms), the attributed
    seconds (the whole latency of each matched request: lag, HTTP self
    time and manager span), the inner seconds (the manager spans alone,
    the part below the HTTP layer) and the client-side request rows for
    the Chrome trace.
    """
    children: Dict[int, List[Dict[str, Any]]] = {}
    for r in rows:
        children.setdefault(r["parent"], []).append(r)
    # Worker-thread api spans are roots: index them by session for linking.
    api_roots: Dict[str, List[Dict[str, Any]]] = {}
    for r in rows:
        if r["parent"] == 0 and r["name"].startswith("api.") and "session" in r["attrs"]:
            api_roots.setdefault(r["attrs"]["session"], []).append(r)
    for spans in api_roots.values():
        spans.sort(key=lambda r: r["t0"])
    tops: Dict[Tuple[str, str], List[Dict[str, Any]]] = {}
    for r in rows:
        if r["name"] in ("manager.step", "manager.result", "manager.checkpoint"):
            tops.setdefault((r["attrs"]["session"], r["name"].split(".")[1]), []).append(r)

    def subtree(span):
        todo, out = [span], []
        while todo:
            s = todo.pop()
            out.append(s)
            todo.extend(children.get(s["id"], []))
        return out

    manager_self, http_self, client_rows = [], [], []
    attributed = inner = 0.0
    next_id = 10**13
    for rec in records:
        next_id += 1
        session = f"s{rec['session']}"
        client = {
            "id": next_id, "parent": 0, "name": "http.request", "t0": rec["due"],
            "t1": rec["recv"], "pid": os.getpid(), "tid": 0,
            "attrs": {"kind": rec["kind"], "session": session, "status": rec["status"]},
        }
        client_rows.append(client)
        match = next(
            (m for m in tops.get((session, rec["kind"]), [])
             if rec["send"] <= m["t0"] and m["t1"] <= rec["recv"]),
            None,
        )
        if match is None:
            continue
        match["parent"] = client["id"]
        linked = 0.0
        for span in subtree(match):
            if span["name"].startswith("api."):
                continue
            owner = span["attrs"].get("session")
            candidates = api_roots.get(owner, [])
            lo = bisect.bisect_left([c["t0"] for c in candidates], span["t0"])
            for api in candidates[lo:]:
                if api["t0"] > span["t1"]:
                    break
                if api["t1"] <= span["t1"] and api["parent"] == 0:
                    api["parent"] = span["id"]
                    linked += api["t1"] - api["t0"]
        duration = match["t1"] - match["t0"]
        manager_self.append((duration - linked) * 1e3)
        http_self.append(((rec["recv"] - rec["send"]) - duration) * 1e3)
        attributed += rec["recv"] - rec["due"]
        inner += duration
    return manager_self or [0.0], http_self or [0.0], attributed, inner, client_rows
