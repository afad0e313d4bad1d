"""Unit tests for the trace-span half of ``repro.obs``.

The disabled path has a hard contract — one module-global check, no
allocation, no clock read — so these tests pin object identity and
monkeypatch the clock, not just observable timings.
"""

from __future__ import annotations

import concurrent.futures
import json
import time

import pytest

from repro.obs import trace


@pytest.fixture(autouse=True)
def _tracing_off():
    """Every test starts and ends with tracing globally off."""
    trace.stop_tracing()
    yield
    trace.stop_tracing()


def _by_name(rows, name):
    return [row for row in rows if row["name"] == name]


class TestDisabledPath:
    def test_span_returns_shared_noop(self):
        first = trace.span("anything", key="value")
        second = trace.span("other")
        assert first is second  # one shared object, no allocation

    def test_noop_span_is_inert_context_manager(self):
        with trace.span("untraced") as handle:
            assert handle is trace.span("still-untraced")

    def test_annotate_is_noop(self):
        trace.annotate(method="GET")  # must not raise, must not allocate state
        assert trace.current_collector() is None
        assert not trace.tracing_active()

    def test_disabled_span_reads_no_clock(self, monkeypatch):
        def forbidden():  # pragma: no cover - the assertion is the call
            raise AssertionError("a disabled span must not read the clock")

        monkeypatch.setattr(time, "perf_counter", forbidden)
        with trace.span("query"):
            pass

    def test_wrap_chunk_tasks_preserves_results_untraced(self):
        tasks = [lambda i=i: i * i for i in range(5)]
        wrapped = trace.wrap_chunk_tasks(tasks)
        assert [task() for task in wrapped] == [0, 1, 4, 9, 16]


class TestSpanRecording:
    def test_nesting_parents_and_attrs(self):
        with trace.tracing() as collector:
            with trace.span("outer", round=3):
                with trace.span("inner", stage="clip"):
                    pass
            with trace.span("sibling"):
                pass
        rows = collector.rows()
        outer = _by_name(rows, "outer")[0]
        inner = _by_name(rows, "inner")[0]
        sibling = _by_name(rows, "sibling")[0]
        assert outer["parent"] == 0 and sibling["parent"] == 0
        assert inner["parent"] == outer["id"]
        assert outer["args"] == {"round": 3}
        assert inner["args"] == {"stage": "clip"}
        assert all(row["dur"] >= 0.0 for row in rows)

    def test_annotate_reaches_innermost_open_span(self):
        with trace.tracing() as collector:
            with trace.span("request"):
                with trace.span("route"):
                    trace.annotate(path="/stats")
                trace.annotate(status=200)
        rows = collector.rows()
        assert _by_name(rows, "route")[0]["args"] == {"path": "/stats"}
        assert _by_name(rows, "request")[0]["args"] == {"status": 200}

    def test_start_twice_rejected(self):
        trace.start_tracing()
        with pytest.raises(RuntimeError):
            trace.start_tracing()

    def test_stop_returns_active_collector(self):
        collector = trace.start_tracing()
        assert trace.stop_tracing() is collector
        assert trace.stop_tracing() is None

    def test_span_survives_exception(self):
        with trace.tracing() as collector:
            with pytest.raises(ValueError):
                with trace.span("failing"):
                    raise ValueError("boom")
        assert len(collector) == 1  # recorded despite the raise


class TestChunkPropagation:
    def test_chunk_spans_parented_across_executor_threads(self):
        with trace.tracing() as collector:
            with trace.span("clip") as parent:
                tasks = trace.wrap_chunk_tasks(
                    [lambda i=i: i + 10 for i in range(4)]
                )
                with concurrent.futures.ThreadPoolExecutor(2) as pool:
                    results = list(pool.map(lambda t: t(), tasks))
        assert results == [10, 11, 12, 13]
        chunks = _by_name(collector.rows(), "chunk")
        assert len(chunks) == 4
        assert {row["parent"] for row in chunks} == {parent.span_id}
        assert sorted(row["args"]["seq"] for row in chunks) == [0, 1, 2, 3]


class TestCollectingAndAdopt:
    def test_collecting_isolates_and_restores(self):
        outer = trace.start_tracing()
        with trace.span("outer-open"):
            with trace.collecting() as local:
                # The worker-side collector replaces the global one and
                # clears the inherited current span: locally recorded
                # spans are roots.
                assert trace.current_collector() is local
                with trace.span("worker-span"):
                    pass
            assert trace.current_collector() is outer
        assert [row["name"] for row in local.rows()] == ["worker-span"]
        assert local.rows()[0]["parent"] == 0
        assert _by_name(outer.rows(), "worker-span") == []

    def test_adopt_remaps_ids_and_reparents_roots(self):
        with trace.tracing() as worker:
            with trace.span("cell"):
                with trace.span("stage"):
                    pass
        rows = worker.rows()

        parent = trace.TraceCollector()
        with trace.tracing(parent):
            with trace.span("sweep") as sweep:
                sweep_id = sweep.span_id
        parent.adopt(rows, parent_id=sweep_id)

        adopted = parent.rows()
        cell = _by_name(adopted, "cell")[0]
        stage = _by_name(adopted, "stage")[0]
        assert cell["parent"] == sweep_id  # foreign root re-parented
        assert stage["parent"] == cell["id"]  # internal edge remapped
        ids = [row["id"] for row in adopted]
        assert len(ids) == len(set(ids))  # no collisions after remap


class TestExport:
    def _sample_collector(self):
        collector = trace.TraceCollector()
        with trace.tracing(collector):
            with trace.span("round", index=0):
                with trace.span("clip"):
                    pass
        return collector

    def test_jsonl_round_trip(self, tmp_path):
        collector = self._sample_collector()
        path = tmp_path / "trace.jsonl"
        collector.write(str(path))
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert [row["name"] for row in rows] == ["clip", "round"]
        for row in rows:
            assert set(row) == {
                "name", "id", "parent", "ts", "dur", "pid", "tid",
                "thread", "args",
            }

    def test_chrome_export_validates_and_links_spans(self, tmp_path):
        collector = self._sample_collector()
        path = tmp_path / "trace.json"
        collector.write(str(path))
        payload = json.loads(path.read_text())
        assert trace.validate_chrome_trace(payload) == len(
            payload["traceEvents"]
        )
        complete = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        meta = [e for e in payload["traceEvents"] if e["ph"] == "M"]
        assert {e["name"] for e in complete} == {"round", "clip"}
        assert meta and all(e["name"] == "thread_name" for e in meta)
        clip = next(e for e in complete if e["name"] == "clip")
        rnd = next(e for e in complete if e["name"] == "round")
        assert clip["args"]["parent_id"] == rnd["args"]["span_id"]
        assert payload["displayTimeUnit"] == "ms"

    def test_validate_chrome_trace_rejects_malformed(self):
        with pytest.raises(ValueError, match="traceEvents"):
            trace.validate_chrome_trace({})
        with pytest.raises(ValueError, match="phase"):
            trace.validate_chrome_trace(
                {"traceEvents": [{"ph": "Q", "name": "x"}]}
            )
        with pytest.raises(ValueError, match="lacks"):
            trace.validate_chrome_trace(
                {"traceEvents": [{"ph": "X", "name": "x"}]}
            )
        with pytest.raises(ValueError, match="negative"):
            trace.validate_chrome_trace(
                {
                    "traceEvents": [
                        {
                            "name": "x", "ph": "X", "ts": -1.0, "dur": 0.0,
                            "pid": 1, "tid": 1, "args": {},
                        }
                    ]
                }
            )
