#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload central-10k --seed 0 --seconds 25 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics (from a traced run
that wraps each layer's entry points) with ``--trace 1``.  The line
before it records the environment.  Exit code 0 means every output
check held; 1 means a check failed; 2 means there was nothing to run.
Traces and full results go to ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = {
    "central-10k": "deploy",
    "lossy-dist-2k": "deploy",
    "service-1k": "service",
    "sweep-16": "sweep",
}


def _environment() -> dict:
    import numpy

    from repro.engine.jit_kernels import kernel_tier
    from repro.engine.kernels import kernel_threads

    return {
        "nproc": os.cpu_count(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "kernel_tier": kernel_tier(),
        "kernel_threads": kernel_threads(),
        "python": sys.version.split()[0],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # The program's own defaults are what gets measured: drop every
    # inherited REPRO_* knob before anything imports it.
    scrubbed = sorted(k for k in os.environ if k.startswith("REPRO_"))
    for key in scrubbed:
        del os.environ[key]
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]

    from perfbench import metrics

    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    module = importlib.import_module(f"perfbench.{WORKLOADS[args.workload]}")
    outcome = module.run(args.workload, args.seed, args.seconds, bool(args.trace), out_dir)

    catalogue = metrics.PER_LAYER if args.trace else metrics.END_TO_END
    correct = outcome["failed"] == 0 and outcome["attempted"] >= 1
    line = {
        "correct": correct,
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": metrics.render(outcome["metrics"], catalogue),
    }
    details = {k: v for k, v in outcome.items() if k not in ("attempted", "failed", "metrics")}
    environment = {**_environment(), "scrubbed_env": scrubbed}
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": environment, **details, **line}
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )
    for problem in outcome.get("problems", []):
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"environment": environment, **details}))
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
