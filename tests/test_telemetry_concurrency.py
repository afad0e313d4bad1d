"""Telemetry under concurrency: spans must follow the work, not break it.

Two invariants, per the observability contract:

* every execution seam that fans work out (kernel chunk tasks, the
  multiprocessing sweep pool) yields *complete, correctly parented*
  spans for the fanned-out units; and
* turning tracing on changes no computed output, bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.scenarios.sweep as sweep_module
from repro.core.config import LaacadConfig
from repro.engine import make_engine
from repro.network.network import SensorNetwork
from repro.obs import trace
from repro.regions.shapes import unit_square
from repro.runtime import SynchronousScheduler, make_distributed_engine
from repro.scenarios import SweepRunner, expand_grid, make_scenario


@pytest.fixture(autouse=True)
def _tracing_off():
    trace.stop_tracing()
    yield
    trace.stop_tracing()


def _network(n=300, seed=11):
    region = unit_square()
    return SensorNetwork(
        region,
        region.random_points(n, rng=np.random.default_rng(seed)),
        comm_range=0.25,
    )


def _sparse_round(network):
    engine = make_engine("sparse", network, LaacadConfig(k=2, engine="sparse"))
    return engine.compute_round()


def _lossy_distributed_round(network):
    scheduler = SynchronousScheduler(
        drop_probability=0.1, rng=np.random.default_rng(3)
    )
    engine = make_distributed_engine(
        "sparse", network, LaacadConfig(k=2, engine="sparse"), scheduler
    )
    return engine.run_round(0)


def _round_arrays(result):
    return (
        result.circumradii,
        result.ranges_from_position,
        result.displacements,
    )


class TestChunkSpans:
    @pytest.mark.parametrize("threads", [1, 2, 7])
    def test_chunk_spans_complete_and_parented(self, threads, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_THREADS", str(threads))
        network = _network()
        with trace.tracing() as collector:
            _sparse_round(network)
        rows = collector.rows()
        ids = {row["id"] for row in rows}
        chunks = [row for row in rows if row["name"] == "chunk"]
        assert chunks, "a traced sparse round must emit chunk spans"
        for row in chunks:
            assert row["dur"] >= 0.0  # closed, hence complete
            assert row["parent"] in ids  # parented to a recorded stage span
            assert "seq" in row["args"]
        # Chunk geometry is a pure function of (n, worker count), so the
        # span count is deterministic for a fixed configuration.
        with trace.tracing() as again:
            _sparse_round(_network())
        repeat = [r for r in again.rows() if r["name"] == "chunk"]
        assert len(repeat) == len(chunks)

    @pytest.mark.parametrize(
        "run_round, stages",
        [
            pytest.param(
                _sparse_round,
                {"query", "candidates", "clip", "emit", "summary"},
                id="centralized",
            ),
            pytest.param(
                _lossy_distributed_round,
                {"gather", "circle_check", "clip", "summary"},
                id="lossy-distributed",
            ),
        ],
    )
    def test_stage_spans_present(self, run_round, stages):
        with trace.tracing() as collector:
            run_round(_network())
        names = {row["name"] for row in collector.rows()}
        assert stages <= names, sorted(stages - names)

    @pytest.mark.parametrize("threads", [1, 2, 7])
    def test_round_outputs_identical_with_tracing_on(self, threads, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_THREADS", str(threads))
        baseline = _round_arrays(_sparse_round(_network()))
        with trace.tracing():
            traced = _round_arrays(_sparse_round(_network()))
        for base, got in zip(baseline, traced):
            assert np.array_equal(base, got)  # bitwise, not approx


class TestSweepTracing:
    def _specs(self):
        base = make_scenario("corner_cluster", node_count=10, max_rounds=6)
        return expand_grid(base, {"k": [1, 2]})

    def test_traced_pooled_sweep_matches_serial_and_stitches_spans(self, monkeypatch):
        # Pool size is capped at the usable CPUs; pretend there are two
        # so the pooled path runs on a one-CPU host too.
        monkeypatch.setattr(sweep_module, "_usable_cores", lambda: 2)
        specs = self._specs()
        serial = SweepRunner(jobs=1).run(specs)
        with trace.tracing() as collector:
            parallel = SweepRunner(jobs=2).run(specs)
        assert parallel.results == serial.results

        rows = collector.rows()
        by_id = {row["id"]: row for row in rows}
        sweeps = [row for row in rows if row["name"] == "sweep"]
        assert len(sweeps) == 1
        cells = [row for row in rows if row["name"] == "sweep_cell"]
        assert len(cells) == len(specs)
        for cell in cells:
            # Worker-recorded subtrees are adopted under the dispatching
            # sweep span: walking up from any cell must reach it.
            node = cell
            hops = 0
            while node["parent"] and hops < 100:
                node = by_id[node["parent"]]
                hops += 1
            assert node["id"] == sweeps[0]["id"]

    def test_sweep_span_absent_on_full_cache_hit(self, tmp_path):
        specs = self._specs()
        runner = SweepRunner(cache_dir=tmp_path, jobs=1)
        runner.run(specs)  # warm the cache untraced
        with trace.tracing() as collector:
            report = runner.run(specs)
        assert report.misses == 0
        assert [r for r in collector.rows() if r["name"] == "sweep"] == []
