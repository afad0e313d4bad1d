"""HTTP front-end tests: endpoints, long-poll delivery, error mapping.

The server is driven exactly as a remote client would drive it — stdlib
``urllib`` over a real TCP socket against a :class:`ServiceThread` —
including the CI smoke scenario in miniature: concurrent sessions under
a forced-eviction budget whose results must match direct in-process
runs.
"""

from __future__ import annotations

import concurrent.futures
import json
import urllib.error
import urllib.request

import pytest

from repro.api import Simulation
from repro.service import ServiceThread, estimate_live_nbytes
from repro.service.cli import build_parser

SCENARIO = dict(node_count=8, k=1, seed=3, max_rounds=10, epsilon=2e-3)


def request(method, url, body=None, timeout=30):
    data = json.dumps(body).encode("utf-8") if body is not None else None
    req = urllib.request.Request(
        url, data=data, method=method, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


@pytest.fixture(scope="module")
def service():
    with ServiceThread(max_live_sessions=64, batch_max_latency=0.1) as svc:
        yield svc.base_url


class TestEndpoints:
    def test_create_info_list_delete(self, service):
        status, body = request(
            "POST", service + "/sessions", {"name": "crud", "scenario": SCENARIO}
        )
        assert status == 201 and body["name"] == "crud" and body["live"]
        status, body = request("GET", service + "/sessions/crud")
        assert status == 200 and body["rounds_executed"] == 0
        status, body = request("GET", service + "/sessions")
        assert any(s["name"] == "crud" for s in body["sessions"])
        status, body = request("DELETE", service + "/sessions/crud")
        assert status == 200
        status, _ = request("GET", service + "/sessions/crud")
        assert status == 404

    def test_step_run_result_checkpoint(self, service):
        request("POST", service + "/sessions", {"name": "drive", "scenario": SCENARIO})
        status, body = request(
            "POST", service + "/sessions/drive/step", {"rounds": 2}
        )
        assert status == 200
        assert body["session"]["rounds_executed"] == 2
        assert [e["round_index"] for e in body["events"]] == [0, 1]
        assert body["events"][0]["stats"]["max_displacement"] > 0.0
        status, body = request(
            "POST", service + "/sessions/drive/run", {"until_round": 5}
        )
        assert status == 200 and body["session"]["rounds_executed"] == 5
        status, body = request("GET", service + "/sessions/drive/result")
        assert status == 200 and body["rounds_executed"] == 5
        status, body = request("GET", service + "/sessions/drive/checkpoint")
        assert status == 200
        assert body["checkpoint_version"] == 1 and body["rounds_executed"] == 5
        # The served checkpoint is a complete restore source.
        resumed = Simulation.restore(body)
        assert resumed.state.rounds_executed == 5
        request("DELETE", service + "/sessions/drive")

    def test_evict_endpoint_and_transparent_resume(self, service):
        request("POST", service + "/sessions", {"name": "evictee", "scenario": SCENARIO})
        request("POST", service + "/sessions/evictee/step", {"rounds": 1})
        status, body = request("POST", service + "/sessions/evictee/evict")
        assert status == 200 and not body["live"]
        status, body = request("POST", service + "/sessions/evictee/step", {"rounds": 1})
        assert status == 200 and body["session"]["rounds_executed"] == 2
        assert body["session"]["resurrections"] == 1
        request("DELETE", service + "/sessions/evictee")

    def test_stats(self, service):
        status, body = request("GET", service + "/stats")
        assert status == 200
        assert body["max_live_sessions"] == 64
        assert body["total_created"] >= 1

    def test_error_mapping(self, service):
        status, _ = request("GET", service + "/sessions/ghost")
        assert status == 404
        status, _ = request("POST", service + "/sessions/ghost/step", {})
        assert status == 404
        status, _ = request("GET", service + "/no/such/route")
        assert status == 404
        status, body = request(
            "POST", service + "/sessions", {"name": "dup", "scenario": SCENARIO}
        )
        assert status == 201
        status, body = request(
            "POST", service + "/sessions", {"name": "dup", "scenario": SCENARIO}
        )
        assert status == 409 and "already exists" in body["error"]
        status, body = request(
            "POST", service + "/sessions", {"scenario": {"node_count": "many"}}
        )
        assert status == 400
        status, _ = request("DELETE", service + "/stats")
        assert status == 405
        request("DELETE", service + "/sessions/dup")

    @pytest.mark.parametrize(
        "scenario",
        [
            dict(SCENARIO, use_localized=True),
            dict(SCENARIO, extra={"config": {"use_localized": True}}),
        ],
    )
    def test_removed_use_localized_is_a_bad_request(self, service, scenario):
        status, body = request(
            "POST", service + "/sessions", {"name": "localized", "scenario": scenario}
        )
        assert status == 400 and "use_localized" in body["error"]
        status, _ = request("GET", service + "/sessions/localized")
        assert status == 404

    def test_completed_session_conflict(self, service):
        request(
            "POST",
            service + "/sessions",
            {"name": "tiny", "scenario": dict(SCENARIO, max_rounds=1)},
        )
        request("POST", service + "/sessions/tiny/run", {"until_round": 99})
        status, body = request("POST", service + "/sessions/tiny/step", {})
        assert status == 409 and "complete" in body["error"]
        request("DELETE", service + "/sessions/tiny")


class TestSubscriptions:
    def test_longpoll_batch_delivery(self, service):
        request("POST", service + "/sessions", {"name": "watched", "scenario": SCENARIO})
        status, body = request(
            "POST",
            service + "/sessions/watched/subscribers",
            {"max_events": 3, "max_latency": 30.0},
        )
        assert status == 201
        sub = body["subscriber_id"]
        request("POST", service + "/sessions/watched/step", {"rounds": 3})
        status, body = request(
            "GET", service + f"/sessions/watched/subscribers/{sub}/batch?timeout=5"
        )
        assert status == 200
        batch = body["batch"]
        assert batch["event_count"] == 3 and batch["batch_index"] == 0
        # Nothing further buffered: the long-poll times out to null.
        status, body = request(
            "GET", service + f"/sessions/watched/subscribers/{sub}/batch?timeout=0.1"
        )
        assert status == 200 and body["batch"] is None
        status, _ = request(
            "DELETE", service + f"/sessions/watched/subscribers/{sub}"
        )
        assert status == 200
        status, _ = request(
            "GET", service + f"/sessions/watched/subscribers/{sub}/batch?timeout=0.1"
        )
        assert status == 404
        request("DELETE", service + "/sessions/watched")

    def test_longpoll_wakes_on_concurrent_step(self, service):
        request("POST", service + "/sessions", {"name": "pushed", "scenario": SCENARIO})
        _, body = request(
            "POST",
            service + "/sessions/pushed/subscribers",
            {"max_events": 1},
        )
        sub = body["subscriber_id"]
        with concurrent.futures.ThreadPoolExecutor(1) as pool:
            poll = pool.submit(
                request,
                "GET",
                service + f"/sessions/pushed/subscribers/{sub}/batch?timeout=10",
            )
            request("POST", service + "/sessions/pushed/step", {})
            status, body = poll.result(timeout=15)
        assert status == 200 and body["batch"]["event_count"] == 1
        request("DELETE", service + "/sessions/pushed")


class TestSmokeScenario:
    def test_concurrent_sessions_forced_eviction_match_direct_runs(self):
        """The CI smoke in miniature: concurrent HTTP clients, a byte
        budget too small for even one live session, results equal to
        direct in-process runs."""
        budget = estimate_live_nbytes(SCENARIO["node_count"]) - 1
        with ServiceThread(max_live_bytes=budget, max_workers=4) as svc:
            base = svc.base_url

            def drive(i):
                name = f"smoke-{i}"
                scenario = dict(SCENARIO, seed=200 + i, max_rounds=4)
                status, _ = request(
                    "POST", base + "/sessions", {"name": name, "scenario": scenario}
                )
                assert status == 201
                while True:
                    status, body = request("GET", base + f"/sessions/{name}")
                    if body["done"] or body["rounds_executed"] >= 4:
                        break
                    status, body = request(
                        "POST", base + f"/sessions/{name}/step", {}
                    )
                    assert status == 200
                status, result = request("GET", base + f"/sessions/{name}/result")
                assert status == 200
                return i, result

            with concurrent.futures.ThreadPoolExecutor(8) as pool:
                results = dict(pool.map(drive, range(10)))

            _, stats = request("GET", base + "/stats")
            assert stats["total_evictions"] >= 10, "the tiny budget must force evictions"
            assert stats["live_sessions"] <= 1

        for i, served in results.items():
            direct = Simulation(**dict(SCENARIO, seed=200 + i, max_rounds=4)).run()
            assert served == direct.to_dict(), f"session smoke-{i} diverged over HTTP"


class TestCli:
    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.host == "127.0.0.1" and args.port == 8723
        assert args.max_live_sessions is None

    def test_serve_parser_all_flags(self):
        args = build_parser().parse_args(
            [
                "serve",
                "--port", "0",
                "--max-live-sessions", "16",
                "--live-bytes-budget", "1000000",
                "--workers", "2",
                "--flush-count", "8",
                "--flush-window", "0.5",
            ]
        )
        assert args.port == 0
        assert args.max_live_sessions == 16
        assert args.live_bytes_budget == 1_000_000
        assert args.workers == 2
        assert args.flush_count == 8 and args.flush_window == 0.5


class TestTraceParentage:
    def test_worker_spans_hang_under_their_request(self):
        from repro.obs import trace

        trace.stop_tracing()
        scenario = dict(node_count=30, k=2, seed=3, max_rounds=10, engine="sparse")
        with trace.tracing() as collector:
            with ServiceThread(max_live_sessions=4) as svc:
                url = svc.base_url
                request("POST", url + "/sessions", {"name": "t", "scenario": scenario})
                status, _ = request("POST", url + "/sessions/t/step", {"rounds": 1})
                assert status == 200
                status, _ = request("GET", url + "/sessions/t/result")
                assert status == 200
        rows = collector.rows()
        by_id = {row["id"]: row for row in rows}

        def ancestry(row):
            names = [row["name"]]
            while row["parent"]:
                row = by_id[row["parent"]]
                names.append(row["name"])
            return names

        # http_request -> step -> round -> engine stage, across the
        # executor hop onto the worker thread.
        clip = [r for r in rows if r["name"] == "clip"]
        assert clip
        assert ancestry(clip[0])[:4] == ["clip", "round", "step", "http_request"]
        (round_row,) = [r for r in rows if r["name"] == "round"]
        assert round_row["thread"].startswith("repro-service")
        (result_row,) = [r for r in rows if r["name"] == "result"]
        assert ancestry(result_row) == ["result", "http_request"]
