"""Plumbing of the ``export_bench.py`` gates (no timing is asserted).

The gates compare fresh measurements against committed baselines, so a
cell that silently times the wrong thing, or a gate entry whose
reference no longer exists, weakens CI without failing it.  These
tests pin the two places where that happened:

* the sparse centralized cells must build a fresh engine per repeat —
  a repeated ``compute_round`` on one engine returns its stored round;
* ``check_sparse`` must skip exactly the sparse-suite baseline entries
  that compared against the retired dense distributed engine.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import export_bench

SPARSE_BASELINE = Path(__file__).resolve().parent / "BENCH_PR7.json"


class _Clock:
    """A fake ``_CLOCK`` that advances one second per reading."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


def test_best_of_fresh_builds_each_repeat_untimed(monkeypatch):
    clock = _Clock()
    monkeypatch.setattr(export_bench, "_CLOCK", clock)
    events = []

    def build():
        events.append("build")
        clock.now += 100.0  # construction must not count
        return lambda: events.append("call")

    best = export_bench._best_of_fresh(build, repeats=3)
    assert events == ["build", "call"] * 3
    assert best == 1.0


def test_sparse_centralized_cells_time_fresh_engines(monkeypatch):
    from repro.engine.sparse import SparseRoundEngine

    engines = []
    compute_round = SparseRoundEngine.compute_round

    def counting(engine, *args, **kwargs):
        # Keep the engine itself: an id() alone can be reused once the
        # previous repeat's engine is freed.
        engines.append(engine)
        return compute_round(engine, *args, **kwargs)

    monkeypatch.setattr(SparseRoundEngine, "compute_round", counting)
    seconds = export_bench.measure_sparse_centralized_rounds(sizes=(200,))
    assert set(seconds) == {"200"}
    # One full round per repeat, each on its own engine.
    assert len(engines) == export_bench._sparse_repeats(200)
    assert len({id(engine) for engine in engines}) == len(engines)


def _current_from(baseline):
    """A measurement equal to the baseline, minus the retired entries."""
    workloads = json.loads(json.dumps(baseline["workloads"]))
    del workloads["sparse_speedup_n2000_distributed"]
    del workloads["batched_round_n2000_seconds"]["distributed"]
    return {"calibration_seconds": baseline["calibration_seconds"], "workloads": workloads}


def test_check_sparse_skips_exactly_the_retired_entries(monkeypatch, capsys):
    baseline = json.loads(SPARSE_BASELINE.read_text())
    monkeypatch.setattr(export_bench, "collect_sparse", lambda: _current_from(baseline))
    assert export_bench.check_sparse(baseline, factor=2.0) == 0
    skipped = [line for line in capsys.readouterr().out.splitlines() if "skipped" in line]
    assert len(skipped) == 2
    assert sorted(line.split()[0] for line in skipped) == sorted(
        export_bench.RETIRED_DENSE_KEYS
    )


@pytest.mark.parametrize(
    "key, sub, value",
    [
        ("sparse_speedup_n2000_centralized", None, 1.0),
        ("sparse_distributed_round_seconds", "2000", 100.0),
        ("batched_round_n2000_seconds", "centralized", 100.0),
        ("sparse_distributed_scaling_exponent", None, 2.0),
    ],
)
def test_check_sparse_still_gates_the_kept_entries(monkeypatch, key, sub, value):
    baseline = json.loads(SPARSE_BASELINE.read_text())
    current = _current_from(baseline)
    if sub is None:
        current["workloads"][key] = value
    else:
        current["workloads"][key][sub] = value
    monkeypatch.setattr(export_bench, "collect_sparse", lambda: current)
    assert export_bench.check_sparse(baseline, factor=2.0) == 1
