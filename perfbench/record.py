"""Record the reference outputs the benchmark checks against.

Usage (from the repository root)::

    python3 perfbench/record.py central-10k --seeds 0-39
    python3 perfbench/record.py lossy-dist-2k --seeds 0-10
    python3 perfbench/record.py sweep-16 --seeds 0-10

For the deployment workloads every listed input seed is run once and
its output digest is stored (seeds already present are skipped, so a
screening can be extended).  The bank is then the first
``BANK_SIZE + 1`` entries whose round count equals the most common one
(the last of them is the held-out input): every bank input converges in
the same number of rounds, so the spread of ``deploy_s`` across bench
seeds measures per-round cost, not the luck of the placement.  For
``sweep-16`` the table of a ``jobs=1`` run is stored per grid index.
"""

from __future__ import annotations

import argparse
import collections
import json
import sys
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parents[1]), str(Path(__file__).resolve().parents[1] / "src")]

from perfbench import common  # noqa: E402


def _seed_range(text: str):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def record_deployment(workload: str, seeds) -> None:
    from repro.api import Simulation

    path = common.reference_path(workload)
    reference = json.loads(path.read_text()) if path.exists() else {"entries": []}
    known = {e["input_seed"] for e in reference["entries"]}
    for seed in seeds:
        if seed in known:
            continue
        result = Simulation.from_spec(common.DEPLOY_SPECS[workload](seed)).run()
        entry = {"input_seed": seed, **common.deployment_digest(result)}
        reference["entries"].append(entry)
        reference["entries"].sort(key=lambda e: e["input_seed"])
        print(f"{workload} input seed {seed}: {entry['rounds']} rounds", flush=True)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(reference, indent=1) + "\n")
    rounds = collections.Counter(e["rounds"] for e in reference["entries"])
    modal = rounds.most_common(1)[0][0]
    reference["bank_rounds"] = modal
    reference["bank"] = [
        e["input_seed"] for e in reference["entries"] if e["rounds"] == modal
    ][: common.BANK_SIZE + 1]
    path.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"{workload}: bank of {len(reference['bank'])} inputs at {modal} rounds")


def record_sweep(seeds) -> None:
    from perfbench import sweep

    path = common.reference_path("sweep-16")
    reference = json.loads(path.read_text()) if path.exists() else {"tables": {}}
    for seed in seeds:
        if str(seed) in reference["tables"]:
            continue
        reference["tables"][str(seed)] = sweep.reference_table(seed)
        print(f"sweep-16 seed {seed} recorded", flush=True)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(reference, indent=1) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=["central-10k", "lossy-dist-2k", "sweep-16"])
    parser.add_argument("--seeds", type=_seed_range, required=True)
    args = parser.parse_args()
    if args.workload == "sweep-16":
        record_sweep(args.seeds)
    else:
        record_deployment(args.workload, args.seeds)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
