"""Row shards on the helper process are invisible in every output.

``repro.engine.shard.split_rows`` runs half of a large stage's rows on
one helper process.  The claim is exactness, so everything here
compares with ``==``: a run whose stages were split equals the inline
run bit for bit — positions, ranges, round history, communication
counters, RNG state and the Prometheus totals — and so does a run whose
helper died in the middle of a call.  The shard is forced at small N by
patching the private row threshold and core count, never through the
environment.  The process rules are pinned too: no helper outlives a
``SIGKILL``ed parent, none starts in a sweep pool worker or on one
core, and concurrent callers never wait on each other.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import repro.engine.sparse as engine_sparse
import repro.runtime.sparse as runtime_sparse
from repro.api import Simulation
from repro.core.config import LaacadConfig
from repro.engine import shard
from repro.engine.sparse_kernels import mec_batch
from repro.network.network import SensorNetwork
from repro.obs import trace
from repro.obs.metrics import REGISTRY
from repro.regions.shapes import figure8_region_one, unit_square
from repro.scenarios import SweepRunner, expand_grid, make_scenario

_HELPER_ROWS = REGISTRY.counter("repro_shard_rows_total").labels("helper")
_FALLBACKS = REGISTRY.counter("repro_shard_fallbacks_total")
_TOTALS = (
    "repro_grid_candidates_total",
    "repro_piece_pool_freezes_total",
    "repro_piece_pool_pieces_total",
)
_CIRCLE_CHECKS = REGISTRY.counter(
    "repro_lossy_circle_checks_total", labelnames=("path",)
)
_PATHS = ("vacuous", "open", "slack", "exact", "replay")


def _start_helper(timeout: float = 30.0) -> shard._Helper:
    """Start this process's helper and wait for its ready frame."""
    assert shard._claim(shard._MIN_ROWS) is None
    helper = shard._HELPER
    assert helper is not None and not helper.dead
    deadline = time.monotonic() + timeout
    while not helper.poll_ready():
        assert time.monotonic() < deadline, "helper never became ready"
        time.sleep(0.01)
    return helper


@pytest.fixture(autouse=True)
def _no_helper_between_tests():
    shard._shutdown()
    yield
    shard._shutdown()


def _force(monkeypatch) -> shard._Helper:
    """Shard every call of one row or more, with a ready helper."""
    monkeypatch.setattr(shard, "_MIN_ROWS", 1)
    monkeypatch.setattr(shard, "_usable_cores", lambda: 2)
    return _start_helper()


@pytest.fixture
def force_shard(monkeypatch):
    return _force(monkeypatch)


def _network(region, count, seed, comm_range=0.3):
    points = region.random_points(count, rng=np.random.default_rng(seed))
    return SensorNetwork(region, points, comm_range=comm_range)


def _kill(sim):
    alive = [n.node_id for n in sim.network.alive_nodes()]
    sim.network.kill_node(alive[len(alive) // 3])


def _restore(sim):
    return Simulation.restore(sim.checkpoint())


def _centralized(count=300, seed=3, schedule=None, after_step=None):
    """A figure-8 centralized run with a failure and a checkpoint/restore."""
    schedule = {2: _kill, 4: _restore} if schedule is None else schedule
    sim = Simulation(
        network=_network(figure8_region_one(), count, seed),
        config=LaacadConfig(k=2, engine="sparse", epsilon=0.005, max_rounds=14),
    )
    while not sim.done:
        action = schedule.get(sim.state.rounds_executed)
        if action is not None:
            sim = action(sim) or sim
        sim.step()
        if after_step is not None:
            after_step(sim)
    return _fingerprint(sim)


def _distributed(
    count=300, seed=5, drop_probability=0.1, comm_range=0.3, after_step=None
):
    sim = Simulation(
        network=_network(unit_square(), count, seed, comm_range),
        config=LaacadConfig(k=2, engine="sparse", epsilon=0.01, max_rounds=6),
        kind="distributed",
        drop_probability=drop_probability,
        rng=np.random.default_rng(seed),
    )
    while not sim.done:
        sim.step()
        if after_step is not None:
            after_step(sim)
    fingerprint = _fingerprint(sim)
    fingerprint["rng"] = sim.deployer.scheduler._rng.bit_generator.state
    return fingerprint


def _lossy():
    """A heavily lossy run over five gather chunks: with the head share
    cut, ``exact`` and ``replay`` checks fall on both sides."""
    assert 300 >= 3 * runtime_sparse._GATHER_CHUNK
    return _distributed(drop_probability=0.6, comm_range=0.15)


def _fingerprint(sim):
    result = sim.result()
    columns = sim.network.columns
    return {
        "result": result.to_dict(),
        "positions": columns.positions.tobytes(),
        "ranges": columns.sensing_ranges.tobytes(),
        "distance": columns.distance_traveled.tobytes(),
    }


def _counter_totals():
    totals = {name: REGISTRY.counter(name).value for name in _TOTALS}
    totals.update((path, _CIRCLE_CHECKS.labels(path).value) for path in _PATHS)
    return totals


def _delta(before, after):
    return {name: after[name] - before[name] for name in before}


class TestBitwiseEqualToInline:
    def test_centralized_failures_obstacles_and_restore(self, monkeypatch):
        want = _centralized()
        _force(monkeypatch)
        helper_rows = _HELPER_ROWS.value
        fallbacks = _FALLBACKS.value
        assert _centralized() == want
        assert _HELPER_ROWS.value > helper_rows
        assert _FALLBACKS.value == fallbacks

    def test_distributed_lossy_counters_and_rng(self, monkeypatch):
        want = _distributed()
        assert want["result"]["communication"]["dropped"] > 0
        _force(monkeypatch)
        helper_rows = _HELPER_ROWS.value
        assert _distributed() == want
        assert _HELPER_ROWS.value > helper_rows

    def test_prometheus_totals_equal_the_inline_run(self, monkeypatch):
        before = _counter_totals()
        _centralized(schedule={})
        want = _delta(before, _counter_totals())
        _force(monkeypatch)
        before = _counter_totals()
        _centralized(schedule={})
        assert _delta(before, _counter_totals()) == want

    def test_lossy_panels_on_both_sides_of_the_cut(self, monkeypatch):
        before = _counter_totals()
        want = _lossy()
        want_totals = _delta(before, _counter_totals())
        _force(monkeypatch)
        sides = _record_lossy_sides(monkeypatch)
        helper_rows = _HELPER_ROWS.value
        fallbacks = _FALLBACKS.value
        before = _counter_totals()
        assert _lossy() == want
        assert _delta(before, _counter_totals()) == want_totals
        assert _HELPER_ROWS.value > helper_rows
        assert _FALLBACKS.value == fallbacks
        for side in ("head", "tail"):
            assert sides[side, "exact"] > 0 and sides[side, "replay"] > 0

    def test_shard_span_explains_the_split(self, force_shard):
        with trace.tracing() as collector:
            _centralized(schedule={})
            _distributed()
        spans = [row for row in collector.rows() if row["name"] == "shard"]
        assert {row["args"]["fn"] for row in spans} == {
            "_lemma1_rows", "_clip_rows", "_lossy_panels",
        }
        for row in spans:
            attrs = row["args"]
            assert attrs["local_rows"] >= 0 and attrs["helper_rows"] > 0
            assert attrs["helper_s"] > 0.0 and attrs["wait_s"] >= 0.0


class TestSummariesInTheHalves:
    """The halves' Chebyshev circles and ranges are the one-pass summary's."""

    def test_centralized_equals_summarize_rows(self, monkeypatch):
        _force(monkeypatch)
        helper_rows = _HELPER_ROWS.value
        checked = []

        def check(sim):
            state = sim.deployer.engine._state
            oracle = dataclasses.replace(
                state,
                cx=np.zeros_like(state.cx),
                cy=np.zeros_like(state.cy),
                radius=np.zeros_like(state.radius),
                ranges=np.zeros_like(state.ranges),
                stale=np.ones_like(state.stale),
            )
            engine_sparse.SparseRoundEngine._summarize_rows(
                oracle, np.arange(state.stale.shape[0])
            )
            for field in ("cx", "cy", "radius", "ranges"):
                assert getattr(state, field).tobytes() == getattr(oracle, field).tobytes()
            checked.append(state.incremental)

        _centralized(after_step=check)
        assert _HELPER_ROWS.value > helper_rows
        assert len(checked) > 4 and all(checked)

    def test_distributed_equals_one_whole_block_mec(self, monkeypatch):
        _force(monkeypatch)
        helper_rows = _HELPER_ROWS.value
        checked = []

        def check(sim):
            last = sim.deployer.protocol.last_round
            vertices = last.regions.vertices
            ids = vertices.ids
            counts = np.diff(vertices.indptr)
            # Sited where the round saw each node, before its moves.
            sites = np.asarray([last.regions[int(i)].site for i in ids])
            cx, cy, radius = mec_batch(vertices.vx, vertices.vy, vertices.indptr)
            empty = counts == 0
            cx = np.where(empty, sites[:, 0], cx)
            cy = np.where(empty, sites[:, 1], cy)
            radius = np.where(empty, 0.0, radius)
            centers = np.asarray([last.centers[int(i)] for i in ids])
            assert centers[:, 0].tobytes() == cx.tobytes()
            assert centers[:, 1].tobytes() == cy.tobytes()
            assert np.asarray(last.circumradii).tobytes() == radius.tobytes()
            owner = np.repeat(np.arange(ids.shape[0]), counts)
            far = np.zeros(ids.shape[0])
            np.maximum.at(
                far,
                owner,
                np.hypot(vertices.vx - sites[owner, 0], vertices.vy - sites[owner, 1]),
            )
            assert np.asarray(last.ranges_from_position).tobytes() == far.tobytes()
            checked.append(ids.shape[0])

        _distributed(after_step=check)
        assert _HELPER_ROWS.value > helper_rows
        assert len(checked) > 2


class TestHelperFailure:
    def test_helper_killed_mid_call_falls_back_bitwise(self, monkeypatch):
        want = _centralized(schedule={})
        helper = _force(monkeypatch)
        original = engine_sparse._lemma1_rows

        # Same name and module as the original, so the helper resolves
        # its half to the plain function: only the parent's half kills.
        @functools.wraps(original)
        def kill_then_run(*args):
            if helper.proc.poll() is None:
                helper.proc.kill()
                helper.proc.wait()
            return original(*args)

        monkeypatch.setattr(engine_sparse, "_lemma1_rows", kill_then_run)
        fallbacks = _FALLBACKS.value
        assert _centralized(schedule={}) == want
        assert _FALLBACKS.value == fallbacks + 1
        assert helper.dead and shard._HELPER is helper
        # A dead helper stays dead: later calls run inline, no respawn.
        helper_rows = _HELPER_ROWS.value
        assert _centralized(schedule={}) == want
        assert _HELPER_ROWS.value == helper_rows

    def test_exception_from_the_helper_falls_back(self, force_shard):
        fallbacks = _FALLBACKS.value
        parts = shard.split_rows(_fails_in_helper, 4, lambda start, stop: (start, stop))
        assert parts == [[0, 1], [2, 3]]
        assert _FALLBACKS.value == fallbacks + 1
        assert force_shard.dead and not _running(force_shard.proc.pid)

    def test_error_in_the_parents_half_retires_the_helper(self, force_shard):
        # The helper's reply to that call is never read, so the helper
        # must go: a later call would otherwise read it as its own.
        with pytest.raises(ValueError, match="parent-side"):
            shard.split_rows(_fails_here, 4, lambda start, stop: (start, stop))
        assert force_shard.dead and not _running(force_shard.proc.pid)
        assert shard.split_rows(sum, 3, lambda a, b: (range(a, b),)) == [3]

    def test_helper_killed_with_panels_outstanding(self, monkeypatch):
        want = _lossy()
        helper = _force(monkeypatch)
        original = runtime_sparse._lossy_panels

        # The parent's first head chunk kills the helper after the tail
        # was submitted; the helper resolves its call to the original.
        @functools.wraps(original)
        def kill_then_run(*args):
            if helper.proc.poll() is None:
                helper.proc.kill()
                helper.proc.wait()
            return original(*args)

        monkeypatch.setattr(runtime_sparse, "_lossy_panels", kill_then_run)
        fallbacks = _FALLBACKS.value
        assert _lossy() == want
        assert _FALLBACKS.value == fallbacks + 1
        assert helper.dead and not _running(helper.proc.pid)

    def test_error_in_the_walk_with_panels_outstanding(self, monkeypatch):
        want = _lossy()
        helper = _force(monkeypatch)
        original = runtime_sparse.SparseDistributedEngine._lossy_dominated
        raised = []

        def fails_once(self, *args):
            if not raised:
                raised.append(not helper.dead)
                raise ValueError("walk failure")
            return original(self, *args)

        monkeypatch.setattr(
            runtime_sparse.SparseDistributedEngine, "_lossy_dominated", fails_once
        )
        with pytest.raises(ValueError, match="walk failure"):
            _lossy()
        # The error came from the head walk, with the tail outstanding.
        assert raised == [True]
        assert helper.dead and not _running(helper.proc.pid)
        # Nothing reads the stale reply: later calls run inline, bitwise.
        assert shard.split_rows(sum, 3, lambda a, b: (range(a, b),)) == [3]
        assert _lossy() == want

    def test_failed_spawn_runs_lossy_panels_inline(self, monkeypatch):
        want = _lossy()
        monkeypatch.setattr(shard, "_MIN_ROWS", 1)
        monkeypatch.setattr(shard, "_usable_cores", lambda: 2)
        monkeypatch.setattr(shard.sys, "executable", "/nonexistent/python")
        fallbacks = _FALLBACKS.value
        assert _lossy() == want
        assert shard._HELPER.dead
        assert _FALLBACKS.value == fallbacks + 1

    def test_failed_spawn_runs_inline(self, monkeypatch):
        monkeypatch.setattr(shard, "_MIN_ROWS", 1)
        monkeypatch.setattr(shard, "_usable_cores", lambda: 2)
        monkeypatch.setattr(shard.sys, "executable", "/nonexistent/python")
        fallbacks = _FALLBACKS.value
        assert shard._claim(1) is None
        assert shard._HELPER.dead
        assert _FALLBACKS.value == fallbacks + 1
        assert shard.split_rows(sum, 3, lambda a, b: (range(a, b),)) == [3]


class TestProcessRules:
    def test_helper_exits_when_the_parent_is_killed(self, tmp_path):
        src = Path(shard.__file__).resolve().parents[2]
        script = textwrap.dedent(
            f"""
            import sys, time
            sys.path.insert(0, {str(src)!r})
            from repro.engine import shard
            shard._MIN_ROWS = 1
            shard._usable_cores = lambda: 2
            shard._claim(1)
            while not shard._HELPER.poll_ready():
                time.sleep(0.01)
            print(shard._HELPER.proc.pid, flush=True)
            time.sleep(60)
            """
        )
        parent = subprocess.Popen(
            [sys.executable, "-c", script], stdout=subprocess.PIPE, text=True
        )
        try:
            helper_pid = int(parent.stdout.readline())
            assert _running(helper_pid)
            parent.send_signal(signal.SIGKILL)
            parent.wait()
            deadline = time.monotonic() + 2.0
            while _running(helper_pid) and time.monotonic() < deadline:
                time.sleep(0.02)
            assert not _running(helper_pid)
        finally:
            parent.kill()
            parent.wait()
            parent.stdout.close()

    def test_shutdown_leaves_no_process(self, force_shard):
        pid = force_shard.proc.pid
        shard._shutdown()
        assert not _running(pid)

    def test_no_helper_in_a_sweep_pool_worker(self, tmp_path, monkeypatch):
        import repro.scenarios.sweep as sweep_module

        marker = tmp_path / "spawned"
        real = shard._Helper

        def recording_helper():
            with open(marker, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return real()

        monkeypatch.setattr(shard, "_Helper", recording_helper)
        monkeypatch.setattr(shard, "_MIN_ROWS", 1)
        monkeypatch.setattr(shard, "_usable_cores", lambda: 2)
        monkeypatch.setattr(sweep_module, "_usable_cores", lambda: 2)
        base = make_scenario("corner_cluster", node_count=150, max_rounds=3)
        specs = expand_grid(base, {"k": [1, 2]})
        pooled = SweepRunner(jobs=2).run(specs)
        assert not marker.exists()
        # The same cells in this process do start one.
        serial = SweepRunner(jobs=1).run(specs)
        assert marker.read_text().split() == [str(os.getpid())]
        assert pooled.results == serial.results

    def test_no_helper_on_one_core(self, monkeypatch):
        monkeypatch.setattr(shard, "_MIN_ROWS", 1)
        monkeypatch.setattr(shard, "_usable_cores", lambda: 1)
        _centralized(schedule={})
        assert shard._HELPER is None

    def test_no_helper_inside_the_helper(self, monkeypatch):
        monkeypatch.setattr(shard, "_MIN_ROWS", 1)
        monkeypatch.setattr(shard, "_usable_cores", lambda: 2)
        monkeypatch.setattr(shard, "_IN_HELPER", True)
        assert shard.split_rows(sum, 3, lambda a, b: (range(a, b),)) == [3]
        assert shard._HELPER is None

    def test_below_the_threshold_nothing_starts(self):
        assert shard._MIN_ROWS > 300
        _centralized(schedule={})
        assert shard._HELPER is None


def test_four_threads_stepping_sessions_at_once(force_shard):
    seeds = [11, 12, 13, 14]
    want = {seed: _centralized(seed=seed, schedule={}) for seed in seeds}
    got = {}

    def run(seed):
        got[seed] = _centralized(seed=seed, schedule={})

    threads = [threading.Thread(target=run, args=(seed,)) for seed in seeds]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == want


def _record_lossy_sides(monkeypatch):
    """Count the lossy walk's ``exact`` and ``replay`` checks by side of
    the cut: ``head`` before the panel request is collected (walked over
    this process's panels), ``tail`` after (over the helper's)."""
    sides = collections.Counter()
    side = ["head"]
    collect = shard.Request.collect
    engine = runtime_sparse.SparseDistributedEngine

    def collecting(self):
        side[0] = "tail" if self._fn is runtime_sparse._lossy_panels else "head"
        return collect(self)

    def counting(name, path):
        original = getattr(engine, name)

        def counted(self, *args):
            sides[side[0], path] += 1
            return original(self, *args)

        return counted

    monkeypatch.setattr(shard.Request, "collect", collecting)
    monkeypatch.setattr(engine, "_lossy_dominated", counting("_lossy_dominated", "exact"))
    monkeypatch.setattr(engine, "_replay_walk", counting("_replay_walk", "replay"))
    return sides


def _fails_in_helper(start, stop):
    """Rows ``[start, stop)`` here; an exception on the helper (which may
    not even import this module — that fails there too)."""
    if shard._IN_HELPER:
        raise RuntimeError("helper-side failure")
    return list(range(start, stop))


def _fails_here(start, stop):
    """The mirror of :func:`_fails_in_helper`: raises in the parent."""
    if not shard._IN_HELPER:
        raise ValueError("parent-side failure")
    return list(range(start, stop))


def _running(pid: int) -> bool:
    """Whether ``pid`` is a live (not zombie) process."""
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError):
        return False
    return state not in ("Z", "X")
