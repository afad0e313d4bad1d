"""Command-line entry point for the experiment runners and scenario sweeps.

Examples::

    laacad-experiments list
    laacad-experiments run fig6_convergence
    laacad-experiments run all --output-dir results --cache-dir .cache --jobs 4
    laacad-experiments sweep corner_cluster --grid k=1,2,3 --jobs 2
    REPRO_FULL_SCALE=1 laacad-experiments run table1_minnode

Preemptible runs (full mid-run checkpoints, bitwise-identical resume)::

    laacad-experiments run fig5_deployment --checkpoint-every 10 \
        --checkpoint-dir .ckpt
    # after an interruption, either re-run with the same flags (cells
    # resume from .ckpt) or resume one simulation directly:
    laacad-experiments run --resume-from .ckpt/<digest>.ckpt.json
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

import os

from repro.experiments.ablations import (
    run_alpha_ablation,
    run_engine_ablation,
    run_localized_ablation,
    run_protocol_overhead,
)
from repro.experiments.common import (
    CACHE_DIR_ENV,
    ENGINE_ENV,
    JOBS_ENV,
    ExperimentResult,
    default_output_dir,
)
from repro.experiments.fig1_voronoi import run_fig1_voronoi
from repro.obs import trace as _trace
from repro.experiments.fig2_rings import run_fig2_rings
from repro.experiments.fig5_deployment import run_fig5_deployment
from repro.experiments.fig6_convergence import run_fig6_convergence
from repro.experiments.fig7_energy import run_fig7_energy
from repro.experiments.fig8_obstacles import run_fig8_obstacles
from repro.experiments.lifetime_comparison import run_lifetime_comparison
from repro.experiments.table1_minnode import run_table1_minnode
from repro.experiments.table2_ammari import run_table2_ammari

#: Registry of every runnable experiment, keyed by its CLI name.
EXPERIMENTS: Dict[str, Callable[[], ExperimentResult]] = {
    "fig1_voronoi": run_fig1_voronoi,
    "fig2_rings": run_fig2_rings,
    "fig5_deployment": run_fig5_deployment,
    "fig6_convergence": run_fig6_convergence,
    "fig7_energy": run_fig7_energy,
    "table1_minnode": run_table1_minnode,
    "table2_ammari": run_table2_ammari,
    "fig8_obstacles": run_fig8_obstacles,
    "ablation_alpha": run_alpha_ablation,
    "ablation_engine": run_engine_ablation,
    "ablation_localized": run_localized_ablation,
    "ablation_protocol_overhead": run_protocol_overhead,
    "lifetime_comparison": run_lifetime_comparison,
}


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _add_sweep_options(parser: argparse.ArgumentParser) -> None:
    """Options shared by every command that executes scenarios."""
    parser.add_argument(
        "--trace-out",
        default=os.environ.get(_trace.TRACE_ENV) or None,
        metavar="PATH",
        help=(
            "Record trace spans for the whole command and write them at "
            "the end: *.jsonl for span rows, anything else for Chrome "
            "trace-event JSON (open it at https://ui.perfetto.dev).  "
            f"Default: the {_trace.TRACE_ENV} environment variable."
        ),
    )
    parser.add_argument(
        "--engine",
        choices=["batched", "legacy", "sparse"],
        default=None,
        help=(
            "Round-engine backend for the LAACAD runs (default: sparse). "
            "sparse matches legacy within 1e-9 and scales "
            "sub-quadratically to large N; batched (dense) and legacy "
            "are bitwise identical."
        ),
    )
    parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=None,
        help="Worker processes for the scenario sweeps (default: 1 = serial)",
    )
    parser.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help=(
            "Directory of the content-addressed scenario-result cache; "
            "re-runs only compute missing cells (default: no cache)"
        ),
    )
    parser.add_argument(
        "--checkpoint-every",
        type=_positive_int,
        default=None,
        metavar="N",
        help=(
            "Write a full mid-run checkpoint every N rounds for every "
            "deployment scenario; interrupted runs resume "
            "bitwise-identically on re-run (default: no checkpoints)"
        ),
    )
    parser.add_argument(
        "--checkpoint-dir",
        type=Path,
        default=None,
        help=(
            "Directory for the per-scenario checkpoint files (default "
            "with --checkpoint-every: <output-dir>/checkpoints).  Given "
            "on its own it enables checkpointing every 25 rounds"
        ),
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="laacad-experiments",
        description="Reproduce the figures and tables of the LAACAD paper (ICDCS 2012).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="List available experiments and scenario families")

    run_parser = sub.add_parser("run", help="Run one experiment (or 'all')")
    run_parser.add_argument(
        "experiment",
        nargs="?",
        default=None,
        help="Experiment name (see 'list') or 'all'; optional with --resume-from FILE",
    )
    run_parser.add_argument(
        "--resume-from",
        type=Path,
        default=None,
        metavar="PATH",
        help=(
            "Resume from a checkpoint: a .ckpt.json FILE resumes that "
            "single simulation to completion; a DIRECTORY is used as the "
            "checkpoint dir, so the named experiment's interrupted "
            "scenarios resume instead of restarting"
        ),
    )
    run_parser.add_argument(
        "--output-dir",
        type=Path,
        default=None,
        help="Directory for CSV/JSON output (default: ./results)",
    )
    run_parser.add_argument(
        "--no-files",
        action="store_true",
        help="Only print the table, do not write CSV/JSON files",
    )
    run_parser.add_argument(
        "--max-rows",
        type=int,
        default=40,
        help="Maximum number of rows to print (default: 40)",
    )
    _add_sweep_options(run_parser)

    sweep_parser = sub.add_parser(
        "sweep", help="Sweep a scenario family over a parameter grid"
    )
    sweep_parser.add_argument(
        "family",
        help="Scenario family name (see 'list')",
    )
    sweep_parser.add_argument(
        "--grid",
        action="append",
        default=[],
        metavar="PARAM=V1,V2,...",
        help=(
            "Sweep axis, repeatable (e.g. --grid k=1,2,3 "
            "--grid node_count=20,40).  Dotted paths reach into dict "
            "fields (--grid placement.cluster_fraction=0.1,0.2).  "
            "Default: the family's built-in grid."
        ),
    )
    sweep_parser.add_argument(
        "--set",
        action="append",
        default=[],
        dest="overrides",
        metavar="PARAM=VALUE",
        help="Fixed override applied to every scenario, repeatable",
    )
    sweep_parser.add_argument(
        "--output-dir",
        type=Path,
        default=None,
        help="Directory for CSV/JSON output (default: ./results)",
    )
    sweep_parser.add_argument(
        "--no-files",
        action="store_true",
        help="Only print the table, do not write CSV/JSON files",
    )
    sweep_parser.add_argument(
        "--max-rows",
        type=int,
        default=40,
        help="Maximum number of rows to print (default: 40)",
    )
    _add_sweep_options(sweep_parser)
    return parser


def _run_one(
    name: str, output_dir: Optional[Path], write_files: bool, max_rows: int
) -> ExperimentResult:
    runner = EXPERIMENTS[name]
    print(f"== running {name} ==")
    result = runner()
    print(result.format_table(max_rows=max_rows))
    if write_files:
        out = output_dir if output_dir is not None else default_output_dir()
        csv_path = result.to_csv(out / f"{name}.csv")
        json_path = result.to_json(out / f"{name}.json")
        print(f"wrote {csv_path} and {json_path}")
    print()
    return result


def _apply_sweep_options(args: argparse.Namespace) -> None:
    """Thread --engine/--jobs/--cache-dir/--checkpoint-* into the environment."""
    from repro.api.checkpoint import CHECKPOINT_DIR_ENV, CHECKPOINT_EVERY_ENV

    if getattr(args, "engine", None):
        os.environ[ENGINE_ENV] = args.engine
    if getattr(args, "jobs", None):
        os.environ[JOBS_ENV] = str(args.jobs)
    if getattr(args, "cache_dir", None) is not None:
        os.environ[CACHE_DIR_ENV] = str(args.cache_dir)
    checkpoint_dir = getattr(args, "checkpoint_dir", None)
    resume_from = getattr(args, "resume_from", None)
    if resume_from is not None and resume_from.is_dir():
        checkpoint_dir = resume_from
    if getattr(args, "checkpoint_every", None):
        os.environ[CHECKPOINT_EVERY_ENV] = str(args.checkpoint_every)
        if checkpoint_dir is None:
            out = args.output_dir if getattr(args, "output_dir", None) else default_output_dir()
            checkpoint_dir = out / "checkpoints"
    if checkpoint_dir is not None:
        os.environ[CHECKPOINT_DIR_ENV] = str(checkpoint_dir)
        # A checkpoint dir without an explicit frequency (e.g. bare
        # --resume-from DIR) still checkpoints, at a conservative cadence.
        os.environ.setdefault(CHECKPOINT_EVERY_ENV, "25")


@contextlib.contextmanager
def _maybe_tracing(args: argparse.Namespace):
    """Trace the whole command when ``--trace-out`` (or the env) asks.

    ``""``/``"0"`` mean off; ``"1"`` collects without writing (the env
    knob's collect-only form); anything else is the output path.
    """
    trace_out = getattr(args, "trace_out", None)
    if trace_out in (None, "", "0"):
        yield
        return
    with _trace.tracing() as collector:
        yield
    if trace_out != "1":
        collector.write(trace_out)
        print(f"trace written to {trace_out} ({len(collector)} spans)")


def _resume_single(args: argparse.Namespace) -> int:
    """Resume one checkpointed simulation to completion and report it."""
    import json as _json

    from repro.api.checkpoint import resolve_checkpoint_every
    from repro.api.session import Simulation

    path: Path = args.resume_from
    try:
        session = Simulation.restore(path)
    except (OSError, ValueError, KeyError) as exc:
        print(f"cannot restore checkpoint {path}: {exc}", file=sys.stderr)
        return 2
    state = session.state
    print(
        f"== resuming {state.kind} session from {path} "
        f"(round {state.rounds_executed}, {state.alive_count} alive nodes) =="
    )
    every = resolve_checkpoint_every()
    if every:
        result = session.run(checkpoint_every=every, checkpoint_path=path)
    else:
        result = session.run()
    print(
        f"converged: {result.converged} after {result.rounds_executed} rounds; "
        f"R* = {result.max_sensing_range:.6f}, "
        f"min range = {result.min_sensing_range:.6f}"
    )
    if not args.no_files:
        out = args.output_dir if args.output_dir is not None else default_output_dir()
        out.mkdir(parents=True, exist_ok=True)
        stem = path.name
        for suffix in (".ckpt.json", ".json", ".ckpt"):
            if stem.endswith(suffix):
                stem = stem[: -len(suffix)]
                break
        result_path = out / f"{stem}.result.json"
        result_path.write_text(_json.dumps(result.to_dict(), indent=2))
        print(f"wrote {result_path}")
    return 0


def _parse_grid_value(text: str) -> Any:
    """One grid value: JSON when it parses, bare string otherwise."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _parse_grid_args(items: List[str]) -> Dict[str, List[Any]]:
    """``["k=1,2", "placement.kind=random"]`` -> ``{"k": [1, 2], ...}``."""
    grid: Dict[str, List[Any]] = {}
    for item in items:
        if "=" not in item:
            raise ValueError(f"grid axis {item!r} is not of the form PARAM=V1,V2,...")
        param, _, values = item.partition("=")
        grid[param.strip()] = [_parse_grid_value(v) for v in values.split(",")]
    return grid


def _sweep_rows(report) -> List[Dict[str, Any]]:
    """Flatten sweep outcomes into printable/CSV-able rows.

    Each row carries the scenario's varying knobs plus every scalar the
    pipeline reported (lists/dicts such as positions and histories stay
    in the cache files, addressed by the digest column).
    """
    rows: List[Dict[str, Any]] = []
    for outcome in report.outcomes:
        row: Dict[str, Any] = {
            "scenario": outcome.spec.name,
            "pipeline": outcome.spec.pipeline,
            "k": outcome.spec.k,
            "node_count": outcome.spec.node_count,
            "seed": outcome.spec.seed,
            "digest": outcome.spec.digest()[:12],
            "cached": outcome.cached,
        }
        for key, value in outcome.result.items():
            if isinstance(value, (int, float, bool, str)):
                row[key] = value
        rows.append(row)
    return rows


def _run_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.common import resolve_cache_dir, resolve_jobs
    from repro.scenarios import SweepRunner, get_family

    try:
        family = get_family(args.family)
    except KeyError:
        print(
            f"unknown scenario family {args.family!r}; use 'list' to see choices",
            file=sys.stderr,
        )
        return 2
    try:
        grid = _parse_grid_args(args.grid)
        overrides = {
            param.strip(): _parse_grid_value(value)
            for param, _, value in (item.partition("=") for item in args.overrides)
        }
        # Overridden parameters are pinned: they drop out of the default
        # grid instead of being swept away (see ScenarioFamily.grid).
        effective_grid = grid or {
            key: values
            for key, values in family.default_grid.items()
            if key not in overrides
        }
        specs = family.grid(effective_grid, **overrides)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    runner = SweepRunner(cache_dir=resolve_cache_dir(), jobs=resolve_jobs())
    print(f"== sweeping {family.name}: {len(specs)} scenarios ==")
    report = runner.run(specs)
    result = ExperimentResult(
        name=f"sweep_{family.name}",
        description=family.description,
        rows=_sweep_rows(report),
        metadata={
            "family": family.name,
            "grid": {k: list(v) for k, v in effective_grid.items()},
            "jobs": report.jobs,
            "cache_hits": report.hits,
            "cache_misses": report.misses,
            "elapsed_seconds": report.elapsed_seconds,
        },
    )
    print(result.format_table(max_rows=args.max_rows))
    print(report.summary())
    if not args.no_files:
        out = args.output_dir if args.output_dir is not None else default_output_dir()
        csv_path = result.to_csv(out / f"{result.name}.csv")
        json_path = result.to_json(out / f"{result.name}.json")
        print(f"wrote {csv_path} and {json_path}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "list":
        from repro.scenarios import available_families, get_family

        print("experiments:")
        for name in EXPERIMENTS:
            print(f"  {name}")
        print()
        print("scenario families (for 'sweep'):")
        for name in available_families():
            print(f"  {name}: {get_family(name).description}")
        return 0

    if args.command == "run":
        _apply_sweep_options(args)
        if args.resume_from is not None and args.resume_from.is_file():
            with _maybe_tracing(args):
                return _resume_single(args)
        if args.experiment is None:
            print(
                "an experiment name is required unless --resume-from points "
                "at a checkpoint file; use 'list' to see choices",
                file=sys.stderr,
            )
            return 2
        if args.resume_from is not None and not args.resume_from.exists():
            print(f"--resume-from path {args.resume_from} does not exist", file=sys.stderr)
            return 2
        if args.experiment != "all" and args.experiment not in EXPERIMENTS:
            print(
                f"unknown experiment {args.experiment!r}; use 'list' to see choices",
                file=sys.stderr,
            )
            return 2
        names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
        with _maybe_tracing(args):
            for name in names:
                _run_one(name, args.output_dir, not args.no_files, args.max_rows)
        return 0

    if args.command == "sweep":
        _apply_sweep_options(args)
        with _maybe_tracing(args):
            return _run_sweep(args)

    return 2  # pragma: no cover - argparse enforces valid commands


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
