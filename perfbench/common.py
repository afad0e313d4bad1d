"""Shared pieces of the benchmark: workload inputs, references, statistics.

Every workload derives its inputs from the ``--seed`` argument only.  The
two deployment workloads draw their placement from a recorded *bank* of
input seeds (``reference/<workload>.json``): bench seed ``s`` selects
bank entry :func:`input_index` ``(s)``, and that entry also holds the
reference outputs the run is checked against.  The bank holds
:data:`BANK_SIZE` inputs the bench seeds cycle through plus one more,
the held-out input, which only :data:`HELD_OUT_SEED` selects.
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

#: Number of nodes whose final geometry a deployment reference records
#: in full (the rest is covered by coordinate sums).
SAMPLE_NODES = 64
#: Geometry tolerance of the sparse tier's equivalence contract.
GEOMETRY_TOL = 1e-9
#: Recorded inputs the bench seeds cycle through (``seed % BANK_SIZE``).
BANK_SIZE = 10
#: The one bench seed that selects the held-out input, index
#: ``BANK_SIZE``, which no other seed reaches.
HELD_OUT_SEED = 1009


def input_index(seed: int) -> int:
    """Bench seed -> index of its recorded input (bank entry or sweep grid)."""
    return BANK_SIZE if seed == HELD_OUT_SEED else seed % BANK_SIZE


# ----------------------------------------------------------------------
# Workload inputs
# ----------------------------------------------------------------------
def density_range(node_count: int) -> float:
    """Density-scaled communication range, gamma = sqrt(12 / (pi N))."""
    return math.sqrt(12.0 / (math.pi * node_count))


def central_spec(input_seed: int):
    """``central-10k``: centralized LAACAD, N=10 000, k=2, sparse engine."""
    from repro.scenarios.spec import ScenarioSpec

    return ScenarioSpec(
        name="central-10k",
        pipeline="laacad",
        node_count=10_000,
        k=2,
        alpha=1.0,
        epsilon=1e-3,
        comm_range=density_range(10_000),
        seed=input_seed,
        engine="sparse",
    )


def lossy_spec(input_seed: int):
    """``lossy-dist-2k``: the distributed protocol on a 10%-lossy channel."""
    from repro.scenarios.spec import ScenarioSpec

    return ScenarioSpec(
        name="lossy-dist-2k",
        pipeline="distributed",
        node_count=2000,
        k=2,
        comm_range=density_range(2000),
        drop_probability=0.1,
        max_rounds=8,
        seed=input_seed,
        engine="sparse",
    )


DEPLOY_SPECS = {"central-10k": central_spec, "lossy-dist-2k": lossy_spec}


# ----------------------------------------------------------------------
# References
# ----------------------------------------------------------------------
def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str) -> Dict[str, Any]:
    return json.loads(reference_path(workload).read_text())


def bank_entry(workload: str, seed: int) -> Dict[str, Any]:
    """The recorded input (and its reference outputs) for a bench seed."""
    reference = load_reference(workload)
    wanted = reference["bank"][input_index(seed)]
    return next(e for e in reference["entries"] if e["input_seed"] == wanted)


def sample_indices(node_count: int) -> List[int]:
    """Fixed node sample whose geometry a reference records verbatim."""
    import numpy as np

    rng = np.random.default_rng(20120618)
    picked = rng.choice(node_count, size=min(SAMPLE_NODES, node_count), replace=False)
    return sorted(int(i) for i in picked)


def deployment_digest(result: Any) -> Dict[str, Any]:
    """The checked outputs of one deployment (a ``SimulationResult``)."""
    positions = result.final_positions
    ranges = result.sensing_ranges
    communication = result.communication
    return {
        "node_count": len(positions),
        "rounds": int(result.rounds_executed),
        "converged": bool(result.converged),
        "sum_x": math.fsum(p[0] for p in positions),
        "sum_y": math.fsum(p[1] for p in positions),
        "sum_range": math.fsum(ranges),
        "max_range": max(ranges),
        "sample": [
            [float(positions[i][0]), float(positions[i][1]), float(ranges[i])]
            for i in sample_indices(len(positions))
        ],
        "communication": (
            communication.to_dict() if communication is not None else None
        ),
    }


def digest_mismatches(got: Dict[str, Any], want: Dict[str, Any]) -> List[str]:
    """Where a deployment digest breaks the reference contract.

    Node and round counts, convergence and the communication counters
    must match exactly; geometry must match within
    :data:`GEOMETRY_TOL` per value (sums within the tolerance times the
    node count).
    """
    problems = []
    for key in ("node_count", "rounds", "converged", "communication"):
        if got[key] != want[key]:
            problems.append(f"{key}: {got[key]!r} != {want[key]!r}")
    sum_tol = GEOMETRY_TOL * want["node_count"]
    for key in ("sum_x", "sum_y", "sum_range"):
        if abs(got[key] - want[key]) > sum_tol:
            problems.append(f"{key}: {got[key]!r} vs {want[key]!r}")
    if abs(got["max_range"] - want["max_range"]) > GEOMETRY_TOL:
        problems.append(f"max_range: {got['max_range']!r} vs {want['max_range']!r}")
    for row_got, row_want in zip(got["sample"], want["sample"]):
        if any(abs(a - b) > GEOMETRY_TOL for a, b in zip(row_got, row_want)):
            problems.append(f"sampled node {row_got} vs {row_want}")
            break
    return problems


class Outcome:
    """Attempted and failed operations of one run, with failure reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def check(self, problems: Sequence[str]) -> None:
        """Count one checked operation; it fails if ``problems`` is non-empty."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[:3])

    def result(self, metrics: Dict[str, float], **details: Any) -> Dict[str, Any]:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
            "problems": self.problems[:20],
            **details,
        }


# ----------------------------------------------------------------------
# Statistics and resources
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


# ----------------------------------------------------------------------
# Calibrated time
# ----------------------------------------------------------------------
#: Iterations of the calibration loop, and the loop's time on the
#: reference box (2 vCPUs, no numba, Python 3.11): one calibrated second
#: is a second of that box at that speed.
CAL_LOOPS = 200_000
CAL_REF_S = 0.017


def calibration_s(repeats: int = 1) -> float:
    """Wall time of a fixed pure-Python loop (median of ``repeats``): the
    box's current speed."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        acc = 0
        for i in range(CAL_LOOPS):
            acc += i * i % 7
        times.append(perf_counter() - t0)
    return statistics.median(times)


def timed(fn: Callable[[], Any]) -> Tuple[Any, float, float]:
    """Run ``fn()``; returns (its result, calibrated seconds, wall seconds).

    The box this benchmark was built on changes speed by tens of percent
    over minutes, for every process alike (CPU time drifts with wall
    time).  The calibration loop, timed right before and right after
    the call, slows with it; the call's wall time over the mean of the
    two, times :data:`CAL_REF_S`, removes most of that drift.
    """
    before = calibration_s()
    t0 = perf_counter()
    out = fn()
    wall = perf_counter() - t0
    after = calibration_s()
    return out, wall * 2.0 * CAL_REF_S / (before + after), wall


def peak_rss_mib() -> float:
    """Peak resident set size of this process, MiB (Linux ru_maxrss is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def steal_seconds() -> float:
    """CPU time the hypervisor took from this machine since boot, seconds.

    Reported next to the metrics so a noisy run can be told apart from a
    slow program; 0 where the kernel does not account steal time.
    """
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def process_peak_rss_mib(pid: int) -> float:
    """Peak resident set size (VmHWM) of another live process, MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")
