"""``sweep-16``: a scenario grid through ``SweepRunner(jobs=2)`` into a table.

The grid is ``pipeline in {laacad, distributed} x k in {1, 2}`` times four
scenario seeds, N=300, default engine, capped at :data:`MAX_ROUNDS`
rounds.  Every repetition starts from a fresh cache directory that
holds the results of half of the grid (seeds 0 and 1 of every
pipeline/k pair, computed once per run before any timing), so one sweep
mixes cache hits and pooled misses.  The "step" is that sweep, grid to
table; its table must equal the recorded ``jobs=1`` table.  A full
garbage collection runs (untimed) before every set-up and every sweep;
both are timed in calibrated seconds (:func:`perfbench.common.timed`).
"""

from __future__ import annotations

import gc
import math
import os
import resource
import shutil
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List

from perfbench import common, layers

PIPELINES = ("laacad", "distributed")
KS = (1, 2)
SEEDS_PER_CELL = 4
NODES = 300
MAX_ROUNDS = 4
JOBS = 2
#: Set-ups timed before the first sweep (each sweep adds its own).
SETUP_REPS = 15


def grid(index: int):
    from repro.scenarios.spec import ScenarioSpec

    return [
        ScenarioSpec(
            name=f"sweep-{pipeline}-k{k}-{i}",
            pipeline=pipeline,
            node_count=NODES,
            k=k,
            seed=index * SEEDS_PER_CELL + i,
            max_rounds=MAX_ROUNDS,
        )
        for pipeline in PIPELINES
        for k in KS
        for i in range(SEEDS_PER_CELL)
    ]


def prefilled(specs):
    """The half of the grid the cache holds before each sweep."""
    return [s for s in specs if (s.seed % SEEDS_PER_CELL) < SEEDS_PER_CELL // 2]


def table(report) -> List[List[Any]]:
    rows = []
    for outcome in report.outcomes:
        spec, result = outcome.spec, outcome.result
        communication = result.get("communication") or {}
        rows.append(
            [
                spec.pipeline, spec.k, spec.seed,
                result["rounds_executed"], result["converged"],
                result["max_sensing_range"], result["min_sensing_range"],
                result["total_movement"],
                communication.get("messages", 0),
                communication.get("transmissions", 0),
                communication.get("dropped", 0),
            ]
        )
    return rows


def reference_table(index: int) -> List[List[Any]]:
    """The table of a serial (``jobs=1``), uncached run of the grid."""
    from repro.scenarios.sweep import SweepRunner

    return table(SweepRunner(jobs=1).run(grid(index)))


def table_mismatches(got, want) -> List[str]:
    if len(got) != len(want):
        return [f"table has {len(got)} rows, reference {len(want)}"]
    for row_got, row_want in zip(got, want):
        for a, b in zip(row_got, row_want):
            same = (
                math.isclose(a, b, rel_tol=0.0, abs_tol=common.GEOMETRY_TOL)
                if isinstance(a, float)
                else a == b
            )
            if not same:
                return [f"table row {row_got} != {row_want}"]
    return []


def _peak_rss_mib() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return max(common.peak_rss_mib(), children)


class _Caches:
    """Fresh cache directories, each pre-filled with half of the grid.

    The prefilled half is computed once per run, before any timing; a
    set-up writes it into a new directory through ``SweepRunner.store``.
    """

    def __init__(self, out_dir: Path, specs) -> None:
        from repro.scenarios.sweep import SweepRunner

        self.root = out_dir / f"sweep-cache-{os.getpid()}"
        shutil.rmtree(self.root, ignore_errors=True)
        self.root.mkdir(parents=True)
        self.half = SweepRunner(jobs=JOBS).run(prefilled(specs)).outcomes
        self.count = 0

    def fresh(self) -> Path:
        from repro.scenarios.sweep import SweepRunner

        self.count += 1
        path = self.root / f"rep{self.count}"
        runner = SweepRunner(cache_dir=path)
        for outcome in self.half:
            runner.store(outcome.spec, outcome.result)
        return path

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


def _setup(index: int, caches: _Caches):
    """Build the grid and a fresh, half-filled cache.

    Returns (specs, cache directory, calibrated s, wall s).
    """
    gc.collect()
    (specs, cache), elapsed, wall = common.timed(lambda: (grid(index), caches.fresh()))
    return specs, cache, elapsed, wall


def _sweep(specs, cache: Path):
    """Grid -> table; returns (calibrated s, wall s, table, report)."""
    from repro.scenarios.sweep import SweepRunner

    def sweep():
        report = SweepRunner(cache_dir=cache, jobs=JOBS).run(specs)
        return table(report), report

    gc.collect()
    (rows, report), elapsed, wall = common.timed(sweep)
    return elapsed, wall, rows, report


def run(workload: str, seed: int, seconds: float, trace: bool, out_dir: Path) -> Dict[str, Any]:
    index = common.input_index(seed)
    want = common.load_reference("sweep-16")["tables"][str(index)]
    outcome = common.Outcome()
    caches = _Caches(out_dir, grid(index))
    try:
        if trace:
            return _run_traced(seed, index, want, caches, outcome, out_dir)
        setups, sweeps, walls = [], [], []
        for _ in range(SETUP_REPS - 1):
            _, cache, elapsed, _ = _setup(index, caches)
            setups.append(elapsed)
            shutil.rmtree(cache)
        steal = common.steal_seconds()
        start = perf_counter()
        while True:
            specs, cache, elapsed, _ = _setup(index, caches)
            setups.append(elapsed)
            elapsed, wall, rows, _ = _sweep(specs, cache)
            outcome.check(table_mismatches(rows, want))
            sweeps.append(elapsed)
            walls.append(wall)
            shutil.rmtree(cache)
            if perf_counter() - start + common.median(walls) > seconds:
                break
        steal = common.steal_seconds() - steal
    finally:
        caches.close()
    metrics = {
        "setup_s": common.median(setups),
        "deploy_s": common.median(sweeps),
        "step_p50_ms": common.median(sweeps) * 1e3,
        "peak_rss_mib": _peak_rss_mib(),
    }
    return outcome.result(
        metrics,
        input_index=index,
        sweep_wall_s=common.median(walls),
        steal_s=steal,
        samples={"sweeps": len(sweeps)},
    )


def _run_traced(seed, index, want, caches, outcome, out_dir: Path) -> Dict[str, Any]:
    # Wall seconds, which the spans measure too.
    specs, cache, _, _ = _setup(index, caches)
    _, untraced, rows, _ = _sweep(specs, cache)
    outcome.check(table_mismatches(rows, want))

    layers.install_engine_layers()
    layers.install_sweep_layers()
    layers.CELL_DUMP_DIR = caches.root
    specs, cache, _, _ = _setup(index, caches)
    del layers.ROWS[:]
    _, traced, rows, report = _sweep(specs, cache)
    outcome.check(table_mismatches(rows, want))
    parent = [r for r in layers.ROWS if r["pid"] == os.getpid()]
    layers.adopt_cell_dumps(caches.root)
    spans = list(layers.ROWS)

    runs = [r for r in parent if r["name"] == "sweep.run"]
    for cell in spans:
        if cell["name"] == "sweep.cell" and cell["parent"] == 0:
            host = next((r for r in runs if r["t0"] <= cell["t0"] <= r["t1"]), None)
            cell["parent"] = host["id"] if host else 0
    values = layers.engine_layer_metrics(spans)
    incl, _, _ = layers.totals(spans)
    _, parent_own, _ = layers.totals(parent)
    values.update(
        {
            "sweep.cache_load_s": incl["sweep.cache_load"],
            "sweep.cache_store_s": incl["sweep.cache_store"],
            "sweep.cache_hits": report.hits,
            "sweep.cache_misses": report.misses,
            "sweep.cell_s": incl["sweep.cell"],
            "sweep.pool_busy_ratio": incl["sweep.cell"] / (JOBS * traced),
            "trace.coverage": sum(parent_own.values()) / traced,
            "trace.inner_coverage": (
                layers.union_seconds(r for r in spans if r["name"] != "sweep.run") / traced
            ),
            "trace.overhead": traced / untraced - 1.0,
        }
    )
    outcome.check(
        []
        if values["trace.coverage"] >= 0.95
        else [f"layer self times cover only {values['trace.coverage']:.3f} of end-to-end time"]
    )
    events = layers.write_chrome_trace(spans, out_dir / f"sweep-16-seed{seed}.trace.json")
    return outcome.result(values, input_index=index, samples={"spans": len(spans), "trace_events": events})
