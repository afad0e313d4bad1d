"""The two in-process deployment workloads: ``central-10k``, ``lossy-dist-2k``.

One repetition builds the session from its spec (set-up), steps it to
the end and finalizes it with ``result()`` (deployment).  "Steps" are
the ``Simulation.step`` calls.  The output of every repetition is
checked against the recorded reference of its bank input.

A full garbage collection runs (untimed) before every set-up and every
deployment, so neither pays for a collection that earlier garbage made
due.  Set-up, each step and ``result()`` are timed in calibrated seconds
(:func:`perfbench.common.timed`); the deployment time is the sum of its
steps and ``result()``.
"""

from __future__ import annotations

import gc
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Tuple

from perfbench import common, layers

#: Set-ups timed before the first deployment (each later repetition
#: adds its own set-up sample).
SETUP_REPS = 15


def _setup(workload: str, input_seed: int):
    """Build the session; returns (session, calibrated s, wall s)."""
    from repro.api import Simulation

    gc.collect()
    return common.timed(lambda: Simulation.from_spec(common.DEPLOY_SPECS[workload](input_seed)))


def _deploy(sim) -> Tuple[float, List[float], Any, float]:
    """Step to the end and finalize.

    Returns (calibrated seconds, calibrated step times, result, wall seconds).
    """
    steps, wall = [], 0.0
    gc.collect()
    while not sim.done:
        _, step, elapsed = common.timed(sim.step)
        steps.append(step)
        wall += elapsed
    result, finish, elapsed = common.timed(sim.result)
    return sum(steps) + finish, steps, result, wall + elapsed


def run(workload: str, seed: int, seconds: float, trace: bool, out_dir: Path) -> Dict[str, Any]:
    entry = common.bank_entry(workload, seed)
    outcome = common.Outcome()

    def check(result) -> None:
        outcome.check(common.digest_mismatches(common.deployment_digest(result), entry))

    if trace:
        return _run_traced(workload, seed, entry, check, outcome, out_dir)

    setups = []
    sim = None
    for _ in range(SETUP_REPS):
        sim, elapsed, _ = _setup(workload, entry["input_seed"])
        setups.append(elapsed)
    deploys, walls, steps = [], [], []
    steal = common.steal_seconds()
    start = perf_counter()
    while True:
        if sim is None:
            sim, elapsed, _ = _setup(workload, entry["input_seed"])
            setups.append(elapsed)
        deploy, step_times, result, wall = _deploy(sim)
        check(result)
        sim = None
        deploys.append(deploy)
        walls.append(wall)
        steps.extend(step_times)
        # Another repetition only if it fits the run's time budget.
        if perf_counter() - start + common.median(walls) > seconds * 1.2:
            break
    metrics = {
        "setup_s": common.median(setups),
        "deploy_s": common.median(deploys),
        "step_p50_ms": common.median(steps) * 1e3,
        "peak_rss_mib": common.peak_rss_mib(),
    }
    return outcome.result(
        metrics,
        input_seed=entry["input_seed"],
        deploy_wall_s=common.median(walls),
        steal_s=common.steal_seconds() - steal,
        samples={"deployments": len(walls), "steps": len(steps), "setups": len(setups)},
    )


def _run_traced(workload, seed, entry, check, outcome, out_dir: Path) -> Dict[str, Any]:
    # Untraced baseline on the same input, then the traced repetition;
    # both in wall seconds, which the spans measure too.
    def repetition():
        sim, _, setup = _setup(workload, entry["input_seed"])
        _, _, result, wall = _deploy(sim)
        check(result)
        return setup + wall, result

    untraced, _ = repetition()
    layers.install_engine_layers()
    del layers.ROWS[:]
    traced, result = repetition()
    rows = list(layers.ROWS)

    values = layers.engine_layer_metrics(rows)
    communication = result.communication
    values.update(
        layers.communication_metrics(communication.to_dict() if communication else None)
    )
    _, own, _ = layers.totals(rows)
    values["trace.coverage"] = sum(own.values()) / traced
    values["trace.inner_coverage"] = (
        layers.union_seconds(r for r in rows if not r["name"].startswith("api.")) / traced
    )
    values["trace.overhead"] = traced / untraced - 1.0
    outcome.check(
        []
        if values["trace.coverage"] >= 0.95
        else [f"layer self times cover only {values['trace.coverage']:.3f} of end-to-end time"]
    )
    events = layers.write_chrome_trace(rows, out_dir / f"{workload}-seed{seed}.trace.json")
    return outcome.result(
        values,
        input_seed=entry["input_seed"],
        samples={"spans": len(rows), "trace_events": events},
    )
