"""Perf-trajectory exporter: measure the hot paths, write a JSON baseline.

The repo's performance work (PR 1: centralized round engine, PR 4:
distributed round engine, PR 6: sparse engine tier) needs a *recorded*
trajectory to be measured against, so this runner times the canonical
workloads and writes them to a committed JSON baseline.

``--suite pr4`` (default, writes ``BENCH_PR4.json``):

* centralized round time (batched engine), N in {50, 200, 500};
* distributed round time (legacy and batched backends), N in
  {50, 200, 500}, uniform random deployment;
* the N=200 k=2 corner-cluster *distributed deployment transient*
  (6 rounds) under both backends, plus the batched-over-legacy speedup
  — the acceptance workload of the round-level backend.  The dense
  distributed backend is retired: the distributed pipeline maps
  ``engine="batched"`` to the sparse engine, so these ``batched``
  cells now time ``SparseDistributedEngine``;
* wall-clock of a small serial scenario sweep (cold cache).

``--suite sparse`` (writes ``BENCH_PR7.json``):

* sparse centralized and distributed round times at N in
  {2000, 10000, 50000} with density-scaled transmission range
  (``sqrt(12 * area / (pi * N))`` — constant expected ring population,
  the regime where the N x N wall actually bites);
* the batched centralized engine at N=2000 for the speedup row (batched
  cannot reach N=50000: the dense pairwise matrix alone would need tens
  of gigabytes — which is the point of the tier);
* the distributed scaling exponent ``log(t_50k / t_10k) / log(5)``,
  committed as evidence of sub-quadratic scaling.

``--suite pr9`` (writes ``BENCH_PR9.json``):

* the sparse centralized and distributed round times at N in
  {2000, 10000}, recorded per worker count in {1, cores} — the matrix
  the intra-round threading work (PR 9) is measured against, stored
  under the ``numpy`` kernel tier;
* a thread-scaling section over the distributed N=10000 round:
  seconds and parallel efficiency per swept worker count, plus the
  count where scaling saturates (< 10% further improvement);
* recording machines with one core simply record a smaller matrix;
  ``--check`` replays whatever the baseline recorded.

``--suite service`` (writes ``BENCH_PR8.json``):

* session-creation throughput: 1000 concurrent creates against a
  :class:`~repro.service.SessionManager` capped at 64 live sessions,
  so checkpoint-eviction is active throughout;
* p99/p50 step latency with all 1000 sessions resident (most of them
  evicted — a step typically pays a resurrection), drained through a
  bounded client pool;
* idle-session resident memory, live (tracemalloc-measured Simulation)
  vs evicted (checkpoint blob bytes) — the memory the eviction tier
  reclaims;
* the eviction-equivalence bit: a session evicted after every round
  must finish bitwise-identical to a direct in-process run.

Usage::

    PYTHONPATH=src python benchmarks/export_bench.py                # write benchmarks/BENCH_PR4.json
    PYTHONPATH=src python benchmarks/export_bench.py --suite sparse # write benchmarks/BENCH_PR7.json
    PYTHONPATH=src python benchmarks/export_bench.py --suite service # write benchmarks/BENCH_PR8.json
    PYTHONPATH=src python benchmarks/export_bench.py --suite pr9    # write benchmarks/BENCH_PR9.json
    PYTHONPATH=src python benchmarks/export_bench.py --check benchmarks/BENCH_PR4.json
    PYTHONPATH=src python benchmarks/export_bench.py --check benchmarks/BENCH_PR9.json
    PYTHONPATH=src python benchmarks/export_bench.py --check-overhead benchmarks/BENCH_PR9.json

``--check-overhead BENCH_PR9.json`` gates the *telemetry-disabled* hot
path against the committed PR9 cells — the observability hooks must
cost nothing when no trace is active.  The per-stage breakdown of a
round is its trace: every sparse engine stage runs under a span of
that name (``perfbench/run.py --trace 1`` attributes them per layer).

``--check`` re-measures the regression-relevant subset (round times and
the deployment transient; the sweep is skipped — its wall-clock is
dominated by process/cache housekeeping) and exits non-zero when any
measurement exceeds ``baseline * machine_scale * factor`` (factor
defaults to 2.0), a recorded speedup fell below half its recorded
value, or (sparse suite) the scaling exponent reaches quadratic.  The
baseline's ``label`` picks the checker, so one flag serves both
baselines.  ``machine_scale`` is the ratio of a fixed scalar-geometry
calibration workload on the checking machine vs the baseline machine,
so a uniformly slower CI runner does not trip the gate while a genuine
round-engine regression — which leaves the calibration workload
untouched — still does.  The speedup floors and the exponent ceiling
are machine-independent outright.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict

import numpy as np

DEFAULT_OUT = Path(__file__).resolve().parent / "BENCH_PR4.json"
SPARSE_OUT = Path(__file__).resolve().parent / "BENCH_PR7.json"
SERVICE_OUT = Path(__file__).resolve().parent / "BENCH_PR8.json"
PR9_OUT = Path(__file__).resolve().parent / "BENCH_PR9.json"

#: Sizes of the threads matrix (PR9 suite).  50k is left to the PR7
#: baseline — the matrix re-measures every cell, and the point here is
#: thread deltas, which 10k already resolves.
PR9_SIZES = (2000, 10000)

ROUND_SIZES = (50, 200, 500)
ENGINES = ("legacy", "batched")

#: Sparse-tier sizes: density-scaled gamma keeps the expected ring
#: population constant, so round cost tracks the candidate-pair volume
#: rather than N².  50k is far beyond the dense engines' memory wall.
SPARSE_SIZES = (2000, 10000, 50000)
#: Largest size the batched comparison row runs at (dense N×N beyond
#: this is pointlessly slow on a CI runner).
SPARSE_COMPARE_SIZE = 2000

#: The canonical N=200 k=2 corner-cluster distributed transient — the
#: round-level backend's acceptance workload.  Single source of truth,
#: shared with ``test_bench_microbenchmarks.test_distributed_deployment
#: _n200_k2`` so the committed baseline and the tracked pytest
#: benchmark can never drift onto different workloads.
TRANSIENT_WORKLOAD = dict(
    node_count=200,
    comm_range=0.25,
    placement_seed=11,
    k=2,
    alpha=1.0,
    epsilon=1e-3,
    max_rounds=6,
    seed=11,
)


def build_transient_deployment(engine_name: str) -> Callable[[], object]:
    """Zero-arg callable running the canonical distributed transient."""
    from repro.api import Simulation
    from repro.core.config import LaacadConfig
    from repro.network.network import SensorNetwork
    from repro.regions.shapes import unit_square

    region = unit_square()
    params = TRANSIENT_WORKLOAD

    def deploy():
        network = SensorNetwork.from_corner_cluster(
            region,
            params["node_count"],
            comm_range=params["comm_range"],
            rng=np.random.default_rng(params["placement_seed"]),
        )
        config = LaacadConfig(
            k=params["k"],
            alpha=params["alpha"],
            epsilon=params["epsilon"],
            max_rounds=params["max_rounds"],
            seed=params["seed"],
            engine=engine_name,
        )
        return Simulation(network=network, config=config, kind="distributed").run()

    return deploy


#: Clock behind ``_best_of``.  ``--check-overhead`` swaps in
#: ``time.process_time`` for its single-threaded cells: CPU time is
#: immune to scheduler preemption (the dominant noise on shared
#: runners) yet counts every cycle a hot-path hook would add.
_CLOCK = time.perf_counter


def _best_of(fn: Callable[[], None], repeats: int = 3) -> float:
    """Minimum wall-clock of ``repeats`` runs (noise-robust point estimate)."""
    return _best_of_fresh(lambda: fn, repeats)


def _best_of_fresh(build: Callable[[], Callable[[], None]], repeats: int = 3) -> float:
    """``_best_of`` over a fresh ``build()`` per repeat, built untimed.

    A sparse centralized engine returns its stored round when nothing
    moved since the last one, so repeating ``compute_round`` on one
    engine would time that cache, not a round.
    """
    best = float("inf")
    for _ in range(repeats):
        fn = build()
        start = _CLOCK()
        fn()
        best = min(best, _CLOCK() - start)
    return best


def _uniform_network(n: int, seed: int = 7):
    from repro.network.network import SensorNetwork
    from repro.regions.shapes import unit_square

    region = unit_square()
    return SensorNetwork(
        region, region.random_points(n, rng=np.random.default_rng(seed)), comm_range=0.25
    )


def measure_centralized_rounds() -> Dict[str, float]:
    """One batched-engine round of region computation per network size."""
    from repro.core.config import LaacadConfig
    from repro.engine import make_engine

    results: Dict[str, float] = {}
    for n in ROUND_SIZES:
        network = _uniform_network(n)
        engine = make_engine("batched", network, LaacadConfig(k=2, engine="batched"))
        results[str(n)] = _best_of(engine.compute_round)
    return results


def measure_distributed_rounds() -> Dict[str, Dict[str, float]]:
    """One protocol round (gather + regions) per backend per size."""
    from repro.core.config import LaacadConfig
    from repro.runtime.engines import make_distributed_engine
    from repro.runtime.scheduler import SynchronousScheduler

    results: Dict[str, Dict[str, float]] = {engine: {} for engine in ENGINES}
    for engine_name in ENGINES:
        for n in ROUND_SIZES:
            network = _uniform_network(n)
            config = LaacadConfig(k=2, engine=engine_name)
            scheduler = SynchronousScheduler()
            engine = make_distributed_engine(engine_name, network, config, scheduler)
            scheduler.begin_round()
            results[engine_name][str(n)] = _best_of(lambda: engine.run_round(0))
    return results


def measure_distributed_deployment() -> Dict[str, float]:
    """The N=200 k=2 corner-cluster distributed transient (6 rounds)."""
    return {
        engine_name: _best_of(build_transient_deployment(engine_name), repeats=2)
        for engine_name in ENGINES
    }


def measure_calibration() -> float:
    """Machine-speed yardstick: a fixed scalar-geometry workload.

    The regression check normalises the absolute baseline times by the
    ratio of this measurement (check machine vs baseline machine), so a
    uniformly slower runner does not trip the gate while a genuine
    round-engine regression — which leaves this scalar workload
    untouched — still does.
    """
    from repro.regions.shapes import unit_square
    from repro.voronoi.dominating import compute_dominating_region

    region = unit_square()
    sites = region.random_points(200, rng=np.random.default_rng(2))

    def workload():
        for site in sites[:60]:
            others = [p for p in sites if p is not site]
            compute_dominating_region(site, others, region, 2)

    return _best_of(workload, repeats=5)


def measure_sweep() -> float:
    """Serial 2x2 scenario sweep, cold content-addressed cache."""
    from repro.scenarios import SweepRunner, expand_grid, make_scenario

    base = make_scenario("open_field", node_count=20, max_rounds=10)
    specs = expand_grid(base, {"k": [1, 2], "node_count": [15, 25]})
    with tempfile.TemporaryDirectory() as cache_dir:
        runner = SweepRunner(cache_dir=Path(cache_dir), jobs=1)
        start = time.perf_counter()
        runner.run(specs)
        return time.perf_counter() - start


def collect(include_sweep: bool = True) -> Dict[str, object]:
    distributed_rounds = measure_distributed_rounds()
    deployment = measure_distributed_deployment()
    payload: Dict[str, object] = {
        "bench_format_version": 1,
        "label": "PR4",
        "calibration_seconds": measure_calibration(),
        "workloads": {
            "centralized_round_seconds": measure_centralized_rounds(),
            "distributed_round_seconds": distributed_rounds,
            "distributed_deployment_n200_seconds": deployment,
            "distributed_speedup_n200": deployment["legacy"] / deployment["batched"],
        },
    }
    if include_sweep:
        payload["workloads"]["sweep_2x2_seconds"] = measure_sweep()
    return payload


def _density_scaled_network(n: int, seed: int = 7):
    """Uniform deployment whose gamma shrinks with sqrt(1/N).

    ``gamma = sqrt(12 * area / (pi * N))`` keeps ~12 expected nodes per
    transmission disk at every size, the constant-density regime the
    sparse tier targets.
    """
    import math

    from repro.network.network import SensorNetwork
    from repro.regions.shapes import unit_square

    region = unit_square()
    gamma = math.sqrt(12.0 * 1.0 / (math.pi * n))
    return SensorNetwork(
        region,
        region.random_points(n, rng=np.random.default_rng(seed)),
        comm_range=gamma,
    )


def _sparse_repeats(n: int) -> int:
    # Single-shot readings are noise-prone enough (background load
    # spikes) to distort the recorded baseline, so every size takes the
    # best of several runs; small sizes are cheap enough for three.
    return 2 if n >= 50000 else 3


def measure_sparse_centralized_rounds(sizes=SPARSE_SIZES) -> Dict[str, float]:
    """One sparse-engine centralized round per density-scaled size."""
    from repro.core.config import LaacadConfig
    from repro.engine import make_engine

    config = LaacadConfig(k=2, engine="sparse")
    results: Dict[str, float] = {}
    for n in sizes:
        network = _density_scaled_network(n)
        results[str(n)] = _best_of_fresh(
            lambda: make_engine("sparse", network, config).compute_round,
            repeats=_sparse_repeats(n),
        )
    return results


def measure_sparse_distributed_rounds(sizes=SPARSE_SIZES) -> Dict[str, float]:
    """One sparse-backend distributed protocol round per size."""
    from repro.core.config import LaacadConfig
    from repro.runtime.engines import make_distributed_engine
    from repro.runtime.scheduler import SynchronousScheduler

    results: Dict[str, float] = {}
    for n in sizes:
        network = _density_scaled_network(n)
        config = LaacadConfig(k=2, engine="sparse")
        scheduler = SynchronousScheduler()
        engine = make_distributed_engine("sparse", network, config, scheduler)
        scheduler.begin_round()
        results[str(n)] = _best_of(
            lambda: engine.run_round(0), repeats=_sparse_repeats(n)
        )
    return results


def measure_batched_comparison_rounds() -> Dict[str, float]:
    """The dense reference point for the speedup row (N=2000 centralized).

    The dense distributed backend is retired, so there is no distributed
    reference cell (see ``RETIRED_DENSE_KEYS``).
    """
    from repro.core.config import LaacadConfig
    from repro.engine import make_engine

    network = _density_scaled_network(SPARSE_COMPARE_SIZE)
    engine = make_engine("batched", network, LaacadConfig(k=2, engine="batched"))
    return {"centralized": _best_of(engine.compute_round, repeats=2)}


#: Sparse-suite baseline entries that compared against the retired
#: dense distributed engine; ``check_sparse`` skips them by name.  The sparse
#: distributed round stays gated by its absolute cells and the scaling
#: exponent.
RETIRED_DENSE_KEYS = (
    "batched_round_n2000_seconds[distributed]",
    "sparse_speedup_n2000_distributed",
)


def collect_sparse() -> Dict[str, object]:
    import math

    centralized = measure_sparse_centralized_rounds()
    distributed = measure_sparse_distributed_rounds()
    batched = measure_batched_comparison_rounds()
    n_hi, n_lo = str(SPARSE_SIZES[-1]), str(SPARSE_SIZES[-2])
    exponent = math.log(distributed[n_hi] / distributed[n_lo]) / math.log(
        SPARSE_SIZES[-1] / SPARSE_SIZES[-2]
    )
    from repro.engine.jit_kernels import kernel_tier

    compare = str(SPARSE_COMPARE_SIZE)
    return {
        "bench_format_version": 1,
        "label": "PR7",
        "kernel_tier": kernel_tier(),
        "calibration_seconds": measure_calibration(),
        "workloads": {
            "sparse_centralized_round_seconds": centralized,
            "sparse_distributed_round_seconds": distributed,
            "batched_round_n2000_seconds": batched,
            "sparse_speedup_n2000_centralized": batched["centralized"]
            / centralized[compare],
            "sparse_distributed_scaling_exponent": exponent,
        },
    }


def check_sparse(baseline_payload: Dict, factor: float) -> int:
    """Regression gate for the sparse-tier baseline (data-driven).

    Absolute seconds are compared against ``baseline * machine_scale *
    factor``; ``*speedup*`` keys fail below half their recorded value;
    the scaling exponent fails at quadratic (>= 2.0) regardless of the
    baseline — sub-quadratic scaling is the tier's reason to exist.
    """
    baseline = baseline_payload["workloads"]
    current_payload = collect_sparse()
    current = current_payload["workloads"]
    failures = []

    scale = current_payload["calibration_seconds"] / baseline_payload[
        "calibration_seconds"
    ]
    print(f"machine-speed scale vs baseline: {scale:.2f}x "
          f"(calibration {current_payload['calibration_seconds']:.3f}s "
          f"vs {baseline_payload['calibration_seconds']:.3f}s)\n")

    for key, base_value in baseline.items():
        if key in RETIRED_DENSE_KEYS:
            print(f"{key:55s} skipped (retired dense distributed engine)")
            continue
        new_value = current[key]
        if "speedup" in key:
            status = "ok"
            if new_value < base_value / 2.0:
                status = "REGRESSION (speedup halved)"
                failures.append(key)
            print(f"{key:55s} baseline {base_value:8.2f}x now {new_value:8.2f}x  {status}")
        elif "scaling_exponent" in key:
            status = "ok" if new_value < 2.0 else "REGRESSION (quadratic scaling)"
            if new_value >= 2.0:
                failures.append(key)
            print(f"{key:55s} baseline {base_value:8.2f}  now {new_value:8.2f}   {status}")
        elif isinstance(base_value, dict):
            for sub, base_seconds in base_value.items():
                if f"{key}[{sub}]" in RETIRED_DENSE_KEYS:
                    print(f"{key + '[' + sub + ']':55s} skipped "
                          "(retired dense distributed engine)")
                    continue
                new_seconds = current[key][sub]
                status = "ok"
                if new_seconds > base_seconds * scale * factor:
                    status = f"REGRESSION (> {factor:.1f}x speed-scaled baseline)"
                    failures.append(f"{key}[{sub}]")
                print(f"{key + '[' + sub + ']':55s} baseline {base_seconds:8.3f}s "
                      f"now {new_seconds:8.3f}s  {status}")
        else:
            status = "ok"
            if new_value > base_value * scale * factor:
                status = f"REGRESSION (> {factor:.1f}x speed-scaled baseline)"
                failures.append(key)
            print(f"{key:55s} baseline {base_value:8.3f}s now {new_value:8.3f}s  {status}")

    if failures:
        print(f"\nFAILED: {len(failures)} regression(s): {', '.join(failures)}")
        return 1
    print("\nOK: no measurement regressed beyond the allowed factor")
    return 0


def _pr9_matrix_cell(sizes) -> Dict[str, Dict[str, float]]:
    """Round seconds for one threads cell of the PR9 matrix.

    The worker count is taken from the environment — the caller owns
    ``REPRO_KERNEL_THREADS`` so the same cell code serves recording and
    checking.
    """
    return {
        "sparse_centralized_round_seconds": measure_sparse_centralized_rounds(sizes),
        "sparse_distributed_round_seconds": measure_sparse_distributed_rounds(sizes),
    }


def collect_pr9() -> Dict[str, object]:
    """The threads matrix plus the thread-scaling sweep."""
    import os
    from unittest import mock

    from repro.engine.kernels import KERNEL_THREADS_ENV, _available_cores

    cores = _available_cores()
    per_thread: Dict[str, object] = {}
    with mock.patch.dict(os.environ):
        for threads in sorted({1, cores}):
            os.environ[KERNEL_THREADS_ENV] = str(threads)
            per_thread[str(threads)] = _pr9_matrix_cell(PR9_SIZES)

        # Thread-scaling sweep: distributed N=10k round at 1, 2, 4, ...
        # cores; saturation is the largest count still buying >= 10%
        # over the previous one.
        sweep_counts = [1]
        while sweep_counts[-1] * 2 <= cores:
            sweep_counts.append(sweep_counts[-1] * 2)
        if sweep_counts[-1] != cores:
            sweep_counts.append(cores)
        n_probe = PR9_SIZES[-1]
        seconds: Dict[str, float] = {}
        for threads in sweep_counts:
            os.environ[KERNEL_THREADS_ENV] = str(threads)
            seconds[str(threads)] = measure_sparse_distributed_rounds(
                (n_probe,)
            )[str(n_probe)]
    saturation = sweep_counts[0]
    for prev, cur in zip(sweep_counts, sweep_counts[1:]):
        if seconds[str(cur)] < seconds[str(prev)] * 0.9:
            saturation = cur
        else:
            break
    serial = seconds[str(sweep_counts[0])]
    thread_scaling = {
        "tier": "numpy",
        "workload": f"sparse_distributed_round_n{n_probe}",
        "seconds": seconds,
        "efficiency": {
            key: serial / (value * int(key)) for key, value in seconds.items()
        },
        "saturation_threads": saturation,
    }

    return {
        "bench_format_version": 1,
        "label": "PR9",
        "available_cores": cores,
        "calibration_seconds": measure_calibration(),
        "tiers": {"numpy": {"threads": per_thread}},
        "thread_scaling": thread_scaling,
    }


def check_pr9(baseline_payload: Dict, factor: float) -> int:
    """Regression gate for the threads matrix baseline.

    Every cell the baseline recorded (under its ``numpy`` tier) is
    re-measured under the same ``REPRO_KERNEL_THREADS`` setting and
    compared against ``baseline * machine_scale * factor``.
    """
    import os
    from unittest import mock

    from repro.engine.kernels import KERNEL_THREADS_ENV

    failures = []
    scale = measure_calibration() / baseline_payload["calibration_seconds"]
    print(f"machine-speed scale vs baseline: {scale:.2f}x\n")

    cells = baseline_payload["tiers"]["numpy"]["threads"]
    with mock.patch.dict(os.environ):
        for threads, base_cell in cells.items():
            os.environ[KERNEL_THREADS_ENV] = threads
            sizes = tuple(
                int(n) for n in base_cell["sparse_distributed_round_seconds"]
            )
            cell = _pr9_matrix_cell(sizes)
            for key, per_size in base_cell.items():
                for n, base_seconds in per_size.items():
                    new_seconds = cell[key][n]
                    label = f"numpy/threads={threads} {key}[{n}]"
                    status = "ok"
                    if new_seconds > base_seconds * scale * factor:
                        status = (
                            f"REGRESSION (> {factor:.1f}x speed-scaled baseline)"
                        )
                        failures.append(label)
                    print(f"{label:62s} baseline {base_seconds:8.3f}s "
                          f"now {new_seconds:8.3f}s  {status}")

    if failures:
        print(f"\nFAILED: {len(failures)} regression(s): {', '.join(failures)}")
        return 1
    print("\nOK: no measurement regressed beyond the allowed factor")
    return 0


#: Allowed telemetry-disabled slowdown vs the committed PR9 baseline:
#: the hooks' disabled path is one module-global check, so 2% covers it
#: with margin on a quiet machine.  CI passes a looser ``--overhead-
#: factor`` to absorb shared-runner noise.
OVERHEAD_FACTOR = 1.02


def check_overhead(baseline_payload: Dict, factor: float) -> int:
    """Telemetry-disabled overhead gate (``--check-overhead``).

    Replays the numpy/threads=1 N=2000 cells of a PR9-format baseline
    with tracing off — the default hot-path configuration — and fails
    when either round exceeds ``baseline * machine_scale * factor``.  This is the enforcement of the obs
    contract: with no active collector, every span site costs one
    module-global check, which must be invisible at round granularity.
    """
    import os
    from unittest import mock

    from repro.engine.kernels import KERNEL_THREADS_ENV
    from repro.obs import trace

    if trace.tracing_active():
        raise RuntimeError("--check-overhead must run with tracing off")
    base_cell = baseline_payload["tiers"]["numpy"]["threads"]["1"]

    failures = []
    # The gate's cells are single-threaded and CPU-bound, so measure
    # them on the process CPU clock: time stolen by other processes (the
    # dominant noise on shared single-core runners) does not count,
    # while an extra hot-path attribute check — pure CPU work — counts
    # in full.  The baseline's wall-clock seconds are an upper bound on
    # its CPU seconds, so the budget only gets tighter, never looser.
    global _CLOCK
    saved_clock = _CLOCK
    _CLOCK = time.process_time

    # One-sided machine calibration: a *slower* checking machine gets a
    # proportionally larger budget (as in the other gates), but a faster
    # one keeps the absolute baseline budget — hook cost cannot be
    # negative, so a run on faster hardware must still come in at or
    # under the recorded pre-telemetry seconds.  This keeps a tight
    # factor meaningful when the scalar calibration workload and the
    # numpy-bound rounds speed up by different ratios.
    raw_scale = measure_calibration() / baseline_payload["calibration_seconds"]
    scale = max(1.0, raw_scale)
    print(f"machine-speed scale vs baseline: {raw_scale:.2f}x "
          f"(applied: {scale:.2f}x, one-sided)\n")

    try:
        with mock.patch.dict(os.environ, {KERNEL_THREADS_ENV: "1"}):
            sizes = (PR9_SIZES[0],)
            # A tight factor needs a converging best-of: single-cell
            # readings wobble ±20% under background load, while the
            # floor — which is what a hot-path attribute check would
            # raise — is stable.  Replay the cell until every floor is
            # under budget or the attempts run out; retries cannot mask
            # a real regression because genuine overhead elevates the
            # floor itself.
            cell = _pr9_matrix_cell(sizes)
            for _ in range(5):
                if all(
                    cell[key][n] <= base_cell[key][n] * scale * factor
                    for key in cell
                    for n in cell[key]
                ):
                    break
                again = _pr9_matrix_cell(sizes)
                for key, per_size in again.items():
                    for n, seconds in per_size.items():
                        cell[key][n] = min(cell[key][n], seconds)
    finally:
        _CLOCK = saved_clock
    for key in sorted(cell):
        for n in cell[key]:
            base_seconds = base_cell[key][n]
            new_seconds = cell[key][n]
            label = f"telemetry-off {key}[{n}]"
            status = "ok"
            if new_seconds > base_seconds * scale * factor:
                status = f"REGRESSION (> {factor:.2f}x speed-scaled baseline)"
                failures.append(label)
            print(f"{label:62s} baseline {base_seconds:8.3f}s "
                  f"now {new_seconds:8.3f}s  {status}")

    if failures:
        print(f"\nFAILED: telemetry hooks cost measurable time when disabled: "
              f"{', '.join(failures)}")
        return 1
    print(f"\nOK: disabled telemetry within {factor:.2f}x of the "
          f"speed-scaled baseline")
    return 0


#: Concurrent sessions hosted during the service load test.  The live
#: cap keeps ~94% of them evicted at any moment, so the measured step
#: latency includes resurrection — the honest steady-state cost of a
#: multi-tenant deployment over budget.
SERVICE_SESSION_COUNT = 1000
SERVICE_MAX_LIVE = 64
#: In-flight client requests during the step-latency sweep.  Latency is
#: measured per call under this contention, not under a 1000-deep queue
#: whose p99 would just re-measure queue depth.
SERVICE_STEP_CONCURRENCY = 16
SERVICE_SCENARIO = dict(node_count=8, k=1, max_rounds=8, epsilon=2e-3)
#: Sessions sampled for the idle-memory comparison.
SERVICE_MEMORY_SAMPLE = 32


def measure_service_load() -> Dict[str, object]:
    """Creates/sec and step-latency percentiles at 1000 sessions."""
    import asyncio

    from repro.service import SessionManager

    async def main() -> Dict[str, object]:
        manager = SessionManager(
            max_live_sessions=SERVICE_MAX_LIVE, max_workers=SERVICE_STEP_CONCURRENCY
        )
        names = [f"bench-{i}" for i in range(SERVICE_SESSION_COUNT)]
        start = time.perf_counter()
        await asyncio.gather(
            *(
                manager.create(name, **dict(SERVICE_SCENARIO, seed=i))
                for i, name in enumerate(names)
            )
        )
        create_elapsed = time.perf_counter() - start

        gate = asyncio.Semaphore(SERVICE_STEP_CONCURRENCY)
        latencies: list = []

        async def step_once(name: str) -> None:
            async with gate:
                begin = time.perf_counter()
                await manager.step(name, include_events=False)
                latencies.append(time.perf_counter() - begin)

        await asyncio.gather(*(step_once(name) for name in names))
        stats = manager.stats()
        await manager.close()
        samples = np.asarray(latencies)
        return {
            "concurrent_sessions": SERVICE_SESSION_COUNT,
            "session_creates_per_second": SERVICE_SESSION_COUNT / create_elapsed,
            "step_latency_seconds": {
                "p50": float(np.percentile(samples, 50)),
                "p99": float(np.percentile(samples, 99)),
                "mean": float(samples.mean()),
            },
            "total_evictions": stats["total_evictions"],
            "total_resurrections": stats["total_resurrections"],
        }

    return asyncio.run(main())


def measure_service_idle_memory() -> Dict[str, float]:
    """Idle-session footprint: live Simulation vs evicted checkpoint blob.

    Live bytes are tracemalloc-measured over a sample of constructed
    (and briefly stepped) simulations; evicted bytes are the serialized
    checkpoint's length — exactly what the manager keeps resident for
    an evicted session.
    """
    import gc
    import tracemalloc

    from repro.api import Simulation

    gc.collect()
    tracemalloc.start()
    before, _ = tracemalloc.get_traced_memory()
    sims = [
        Simulation(**dict(SERVICE_SCENARIO, seed=i))
        for i in range(SERVICE_MEMORY_SAMPLE)
    ]
    for sim in sims:
        sim.step()
        sim.step()
    gc.collect()
    after, _ = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    live_bytes = (after - before) / len(sims)
    evicted_bytes = sum(sim.checkpoint().nbytes for sim in sims) / len(sims)
    return {
        "live_session_idle_bytes": live_bytes,
        "evicted_session_idle_bytes": evicted_bytes,
        "eviction_memory_ratio": evicted_bytes / live_bytes,
    }


def measure_service_equivalence() -> bool:
    """Evict-every-round through the manager == direct in-process run."""
    import asyncio

    from repro.api import Simulation
    from repro.service import SessionManager

    scenario = dict(SERVICE_SCENARIO, seed=17, max_rounds=12)

    async def serviced() -> Dict:
        manager = SessionManager()
        await manager.create("equiv", **scenario)
        while not manager.info("equiv")["done"]:
            await manager.step("equiv", include_events=False)
            await manager.evict("equiv")
        result = await manager.result("equiv")
        await manager.close()
        return result

    return asyncio.run(serviced()) == Simulation(**scenario).run().to_dict()


def collect_service() -> Dict[str, object]:
    workloads: Dict[str, object] = {}
    workloads.update(measure_service_load())
    workloads.update(measure_service_idle_memory())
    workloads["eviction_equivalence"] = measure_service_equivalence()
    return {
        "bench_format_version": 1,
        "label": "PR8",
        "calibration_seconds": measure_calibration(),
        "workloads": workloads,
    }


def check_service(baseline_payload: Dict, factor: float) -> int:
    """Regression gate for the service baseline.

    Throughput (creates/sec) fails below ``baseline / (machine_scale *
    factor)``; p99 step latency fails above ``baseline * machine_scale
    * factor``; the memory claim (evicted footprint below live) and the
    eviction-equivalence bit are machine-independent and must simply
    hold on the checking machine.
    """
    baseline = baseline_payload["workloads"]
    current_payload = collect_service()
    current = current_payload["workloads"]
    failures = []

    scale = current_payload["calibration_seconds"] / baseline_payload[
        "calibration_seconds"
    ]
    print(f"machine-speed scale vs baseline: {scale:.2f}x "
          f"(calibration {current_payload['calibration_seconds']:.3f}s "
          f"vs {baseline_payload['calibration_seconds']:.3f}s)\n")

    base_rate = baseline["session_creates_per_second"]
    new_rate = current["session_creates_per_second"]
    floor = base_rate / (scale * factor)
    status = "ok"
    if new_rate < floor:
        status = f"REGRESSION (< baseline / {factor:.1f}x machine scale)"
        failures.append("session_creates_per_second")
    print(f"{'session creates/sec':55s} baseline {base_rate:8.1f}  "
          f"now {new_rate:8.1f}   {status}")

    for percentile in ("p50", "p99"):
        base_value = baseline["step_latency_seconds"][percentile]
        new_value = current["step_latency_seconds"][percentile]
        status = "ok"
        if new_value > base_value * scale * factor:
            status = f"REGRESSION (> {factor:.1f}x speed-scaled baseline)"
            failures.append(f"step_latency_seconds[{percentile}]")
        print(f"{'step latency ' + percentile:55s} baseline {base_value * 1e3:8.2f}ms "
              f"now {new_value * 1e3:8.2f}ms  {status}")

    live = current["live_session_idle_bytes"]
    evicted = current["evicted_session_idle_bytes"]
    status = "ok"
    if evicted > live:
        status = "REGRESSION (evicted footprint above live)"
        failures.append("evicted_session_idle_bytes")
    print(f"{'idle memory evicted vs live':55s} evicted {evicted / 1024:8.1f}KiB "
          f"live {live / 1024:8.1f}KiB  {status}")

    status = "ok" if current["eviction_equivalence"] else "REGRESSION (diverged)"
    if not current["eviction_equivalence"]:
        failures.append("eviction_equivalence")
    print(f"{'eviction equivalence (bitwise)':55s} "
          f"{'holds' if current['eviction_equivalence'] else 'VIOLATED':>21s}   {status}")

    if failures:
        print(f"\nFAILED: {len(failures)} regression(s): {', '.join(failures)}")
        return 1
    print("\nOK: no measurement regressed beyond the allowed factor")
    return 0


def check(baseline_path: Path, factor: float) -> int:
    """Re-measure and compare; returns a process exit code."""
    baseline_payload = json.loads(baseline_path.read_text())
    if baseline_payload.get("label") == "PR9":
        return check_pr9(baseline_payload, factor)
    if baseline_payload.get("label") == "PR8":
        return check_service(baseline_payload, factor)
    if baseline_payload.get("label") in ("PR6", "PR7"):
        return check_sparse(baseline_payload, factor)
    baseline = baseline_payload["workloads"]
    current_payload = collect(include_sweep=False)
    current = current_payload["workloads"]
    failures = []

    # Normalise for machine speed: the allowed budget scales with how
    # this machine performs on the calibration workload relative to the
    # machine that recorded the baseline.
    scale = current_payload["calibration_seconds"] / baseline_payload[
        "calibration_seconds"
    ]
    print(f"machine-speed scale vs baseline: {scale:.2f}x "
          f"(calibration {current_payload['calibration_seconds']:.3f}s "
          f"vs {baseline_payload['calibration_seconds']:.3f}s)\n")

    def compare(label: str, base_value: float, new_value: float) -> None:
        status = "ok"
        if new_value > base_value * scale * factor:
            status = f"REGRESSION (> {factor:.1f}x speed-scaled baseline)"
            failures.append(label)
        print(f"{label:55s} baseline {base_value:8.3f}s now {new_value:8.3f}s  {status}")

    for n, base_value in baseline["centralized_round_seconds"].items():
        compare(
            f"centralized round n={n}",
            base_value,
            current["centralized_round_seconds"][n],
        )
    for engine_name, per_size in baseline["distributed_round_seconds"].items():
        for n, base_value in per_size.items():
            compare(
                f"distributed round [{engine_name}] n={n}",
                base_value,
                current["distributed_round_seconds"][engine_name][n],
            )
    for engine_name, base_value in baseline[
        "distributed_deployment_n200_seconds"
    ].items():
        compare(
            f"distributed deployment n=200 [{engine_name}]",
            base_value,
            current["distributed_deployment_n200_seconds"][engine_name],
        )

    base_speedup = baseline["distributed_speedup_n200"]
    new_speedup = current["distributed_speedup_n200"]
    print(f"{'distributed n=200 speedup (batched over legacy)':55s} "
          f"baseline {base_speedup:7.2f}x now {new_speedup:7.2f}x")
    if new_speedup < base_speedup / 2.0:
        failures.append("distributed_speedup_n200")
        print("REGRESSION: the deployment-transient speedup halved")

    if failures:
        print(f"\nFAILED: {len(failures)} regression(s): {', '.join(failures)}")
        return 1
    print("\nOK: no measurement regressed beyond the allowed factor")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", type=Path, default=None,
                        help="where to write the baseline JSON")
    parser.add_argument("--suite", choices=("pr4", "sparse", "service", "pr9"),
                        default="pr4",
                        help="which workload suite to record (default pr4)")
    parser.add_argument("--check", type=Path, default=None, metavar="BASELINE",
                        help="compare fresh measurements against a committed "
                             "baseline (the suite is picked from its label)")
    parser.add_argument("--factor", type=float, default=2.0,
                        help="allowed slowdown factor in --check mode (default 2.0)")
    parser.add_argument("--check-overhead", type=Path, default=None,
                        metavar="PR9_BASELINE",
                        help="gate the telemetry-disabled hot path: replay the "
                             "numpy/threads=1 N=2000 cells of a PR9-format "
                             "baseline with tracing off and fail on "
                             "any slowdown beyond --overhead-factor")
    parser.add_argument("--overhead-factor", type=float, default=OVERHEAD_FACTOR,
                        help="allowed telemetry-disabled slowdown in "
                             f"--check-overhead (default {OVERHEAD_FACTOR})")
    args = parser.parse_args(argv)

    if args.check_overhead is not None:
        return check_overhead(
            json.loads(args.check_overhead.read_text()), args.overhead_factor
        )

    if args.check is not None:
        return check(args.check, args.factor)

    if args.suite == "service":
        payload = collect_service()
        out = args.out if args.out is not None else SERVICE_OUT
        out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        workloads = payload["workloads"]
        print(f"wrote {out}")
        latency = workloads["step_latency_seconds"]
        print(f"{workloads['concurrent_sessions']} concurrent sessions "
              f"(max {SERVICE_MAX_LIVE} live): "
              f"{workloads['session_creates_per_second']:.0f} creates/s, "
              f"step p50 {latency['p50'] * 1e3:.2f}ms p99 {latency['p99'] * 1e3:.2f}ms, "
              f"{workloads['total_evictions']} evictions / "
              f"{workloads['total_resurrections']} resurrections")
        print(f"idle session: live {workloads['live_session_idle_bytes'] / 1024:.1f}KiB "
              f"-> evicted {workloads['evicted_session_idle_bytes'] / 1024:.1f}KiB "
              f"({workloads['eviction_memory_ratio']:.2f}x); "
              f"eviction equivalence "
              f"{'holds' if workloads['eviction_equivalence'] else 'VIOLATED'}")
        return 0

    if args.suite == "pr9":
        payload = collect_pr9()
        out = args.out if args.out is not None else PR9_OUT
        out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {out}")
        for threads, cell in payload["tiers"]["numpy"]["threads"].items():
            dist = cell["sparse_distributed_round_seconds"]
            print(f"threads={threads} distributed round: "
                  + ", ".join(f"n={n} {t:.2f}s" for n, t in dist.items()))
        scaling = payload["thread_scaling"]
        print(f"thread scaling ({scaling['tier']} {scaling['workload']}): "
              + ", ".join(f"{t}->{s:.2f}s" for t, s in scaling["seconds"].items())
              + f"; saturates at {scaling['saturation_threads']} thread(s)")
        return 0

    if args.suite == "sparse":
        payload = collect_sparse()
        out = args.out if args.out is not None else SPARSE_OUT
        out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        workloads = payload["workloads"]
        print(f"wrote {out}")
        dist = workloads["sparse_distributed_round_seconds"]
        print("sparse distributed round: "
              + ", ".join(f"n={n} {t:.2f}s" for n, t in dist.items()))
        print(f"n=2000 centralized speedup over batched: "
              f"{workloads['sparse_speedup_n2000_centralized']:.2f}x")
        print(f"distributed scaling exponent (10k -> 50k): "
              f"{workloads['sparse_distributed_scaling_exponent']:.2f}")
        return 0

    payload = collect()
    out = args.out if args.out is not None else DEFAULT_OUT
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    workloads = payload["workloads"]
    print(f"wrote {out}")
    print(f"distributed n=200 transient: "
          f"legacy {workloads['distributed_deployment_n200_seconds']['legacy']:.2f}s, "
          f"batched {workloads['distributed_deployment_n200_seconds']['batched']:.2f}s "
          f"({workloads['distributed_speedup_n200']:.2f}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
