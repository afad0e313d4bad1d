"""Shared infrastructure for the experiment runners."""

from __future__ import annotations

import csv
import dataclasses
import json
import os
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

#: Environment variable that switches the runners to the paper's full
#: problem sizes (large node counts, long round budgets).  The default
#: "reduced" scale preserves the qualitative shapes while completing in
#: CI-friendly time; see DESIGN.md.
FULL_SCALE_ENV = "REPRO_FULL_SCALE"

#: Environment variable selecting the round-engine backend every
#: experiment runner uses ("sparse", "legacy" or "batched"); the CLI's
#: ``--engine`` flag sets it.  "sparse", the default, is held to a 1e-9
#: tolerance contract against the scalar "legacy" oracle and never
#: builds an N×N matrix; "batched" (dense) and "legacy" produce
#: bitwise identical centralized results (see DESIGN.md, "The sparse
#: engine tier").  Distributed runners run "batched" as "sparse".
ENGINE_ENV = "REPRO_ENGINE"

#: Worker processes every runner's scenario sweep uses; the CLI's
#: ``--jobs`` flag sets it.  The default (1) runs serially in-process.
JOBS_ENV = "REPRO_JOBS"

#: Directory of the content-addressed scenario-result cache; the CLI's
#: ``--cache-dir`` flag sets it.  Unset disables caching.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def resolve_scale() -> str:
    """Return ``"full"`` when REPRO_FULL_SCALE is set to a truthy value, else ``"reduced"``."""
    value = os.environ.get(FULL_SCALE_ENV, "").strip().lower()
    if value in {"1", "true", "yes", "full"}:
        return "full"
    return "reduced"


def resolve_engine() -> str:
    """Round-engine backend from REPRO_ENGINE (default ``"sparse"``).

    Raises:
        ValueError: if REPRO_ENGINE is set to an unknown backend name —
            failing fast mirrors the engine registry, so a typo cannot
            silently benchmark the wrong backend.
    """
    value = os.environ.get(ENGINE_ENV, "").strip().lower()
    if not value:
        return "sparse"
    from repro.engine import available_engines

    if value not in available_engines():
        raise ValueError(
            f"{ENGINE_ENV}={value!r} is not a known round engine; "
            f"available: {', '.join(available_engines())}"
        )
    return value


def resolve_jobs() -> int:
    """Sweep worker count from REPRO_JOBS (default 1 = serial).

    Raises:
        ValueError: for non-integer or non-positive settings.
    """
    value = os.environ.get(JOBS_ENV, "").strip()
    if not value:
        return 1
    jobs = int(value)
    if jobs < 1:
        raise ValueError(f"{JOBS_ENV} must be >= 1, got {jobs}")
    return jobs


def resolve_cache_dir() -> Optional[Path]:
    """Scenario cache directory from REPRO_CACHE_DIR (unset = no cache)."""
    value = os.environ.get(CACHE_DIR_ENV, "").strip()
    return Path(value) if value else None


def execute_scenarios(
    specs: Sequence["ScenarioSpec"],
    jobs: Optional[int] = None,
    cache_dir: Optional[Path] = None,
) -> List[Dict[str, Any]]:
    """Run a scenario list through the sweep orchestrator.

    Every experiment runner funnels its grid through here, so the CLI's
    ``--jobs`` / ``--cache-dir`` flags (via the environment) apply to all
    of them uniformly.  Results come back in input order.
    """
    from repro.scenarios.sweep import run_scenarios

    return run_scenarios(
        specs,
        cache_dir=resolve_cache_dir() if cache_dir is None else cache_dir,
        jobs=resolve_jobs() if jobs is None else jobs,
    )


@dataclasses.dataclass
class ExperimentResult:
    """Rows + metadata produced by one experiment runner.

    Attributes:
        name: experiment identifier (e.g. ``"fig6_convergence"``).
        description: one-line description of what the rows contain.
        rows: list of flat dictionaries — one per output series point.
        metadata: run parameters (node counts, k values, seeds, scale).
    """

    name: str
    description: str
    rows: List[Dict[str, Any]]
    metadata: Dict[str, Any] = dataclasses.field(default_factory=dict)

    # ------------------------------------------------------------------
    def columns(self) -> List[str]:
        """Union of row keys, in first-appearance order."""
        cols: List[str] = []
        for row in self.rows:
            for key in row:
                if key not in cols:
                    cols.append(key)
        return cols

    def to_csv(self, path: Path | str) -> Path:
        """Write the rows to a CSV file; returns the path written."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=self.columns())
            writer.writeheader()
            for row in self.rows:
                writer.writerow(row)
        return path

    def to_json(self, path: Path | str) -> Path:
        """Write rows + metadata to a JSON file; returns the path written."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "name": self.name,
            "description": self.description,
            "metadata": self.metadata,
            "rows": self.rows,
        }
        path.write_text(json.dumps(payload, indent=2, default=float))
        return path

    def format_table(self, max_rows: Optional[int] = None) -> str:
        """Render the rows as a fixed-width ASCII table (for the CLI)."""
        columns = self.columns()
        rows = self.rows if max_rows is None else self.rows[:max_rows]
        rendered: List[List[str]] = [columns]
        for row in rows:
            rendered.append([_format_value(row.get(col, "")) for col in columns])
        widths = [max(len(r[i]) for r in rendered) for i in range(len(columns))]
        lines = []
        for idx, row in enumerate(rendered):
            lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
            if idx == 0:
                lines.append("  ".join("-" * widths[i] for i in range(len(columns))))
        if max_rows is not None and len(self.rows) > max_rows:
            lines.append(f"... ({len(self.rows) - max_rows} more rows)")
        return "\n".join(lines)

    def filter_rows(self, **criteria: Any) -> List[Dict[str, Any]]:
        """Rows whose values match every keyword criterion."""
        selected = []
        for row in self.rows:
            if all(row.get(key) == value for key, value in criteria.items()):
                selected.append(row)
        return selected


def _format_value(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def default_output_dir() -> Path:
    """Directory where the CLI writes result files (``./results``)."""
    return Path(os.environ.get("REPRO_RESULTS_DIR", "results"))
