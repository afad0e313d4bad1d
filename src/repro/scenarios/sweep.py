"""The sweep orchestrator: run many scenarios with caching and workers.

The :class:`SweepRunner` executes a list of :class:`ScenarioSpec`s and
returns their results in input order.  Two orthogonal features:

* **Content-addressed cache** — with a ``cache_dir``, every result is
  stored as ``<digest-prefix>/<digest>.json`` keyed by the scenario's
  canonical-dict sha256.  Re-running a sweep only computes the missing
  cells, so interrupted or extended sweeps resume for free, and two
  experiments sharing a cell (e.g. Figures 5 and 6 run the identical
  deployments) compute it once.
* **Worker pool** — ``jobs > 1`` fans the missing cells out over a
  ``multiprocessing`` pool of at most one worker per usable CPU.
  Scenarios cross the process boundary as
  canonical dicts and every pipeline is a pure function of its spec, so
  the parallel results are bit-identical to the serial ones; ``jobs=1``
  (the default) runs in-process with no pool at all.

Duplicate scenarios inside one sweep are computed once and fanned back
out to every position they occupy.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import multiprocessing
import os
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.scenarios.spec import RESULT_SCHEMA_VERSION, ScenarioSpec

#: Cache accounting, process-wide: the same hit/miss totals the
#: :class:`SweepReport` carries per sweep, accumulated across sweeps so
#: the ``/metrics`` endpoint (and any long-lived orchestrator) can watch
#: cache effectiveness over time.
_CACHE_HITS = _metrics.counter(
    "repro_sweep_cache_hits_total", "Sweep cells served from the result cache"
)
_CACHE_MISSES = _metrics.counter(
    "repro_sweep_cache_misses_total", "Sweep cells computed (cache misses)"
)


def _usable_cores() -> int:
    """CPUs this process may run on: more pool workers than that only queue."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - platforms without affinity
        return os.cpu_count() or 1


def _execute_spec_dict(payload: Tuple[str, Dict[str, Any]]) -> Tuple[str, Dict[str, Any]]:
    """Worker entry point: rebuild the spec from its dict and run it.

    Module-level (not a closure) so it pickles into pool workers.
    """
    digest, spec_dict = payload
    spec = ScenarioSpec.from_dict(spec_dict)
    with _trace.span("sweep_cell", digest=digest[:12]):
        return digest, spec.run()


def _execute_spec_dict_traced(
    payload: Tuple[str, Dict[str, Any]],
) -> Tuple[str, Dict[str, Any], List[Dict[str, Any]]]:
    """Traced worker entry: also returns the cell's span rows.

    A forked worker inherits the parent's collector object, but its rows
    would die with the child process — so the traced dispatch records
    into a private collector and ships the rows home with the result for
    the parent to :meth:`~repro.obs.trace.TraceCollector.adopt`.
    """
    with _trace.collecting() as local:
        digest, result = _execute_spec_dict(payload)
    return digest, result, local.rows()


@dataclasses.dataclass
class SweepOutcome:
    """One executed (or cache-served) sweep cell."""

    spec: ScenarioSpec
    result: Dict[str, Any]
    cached: bool


@dataclasses.dataclass
class SweepReport:
    """Everything a sweep produced, in input order."""

    outcomes: List[SweepOutcome]
    hits: int
    misses: int
    elapsed_seconds: float
    jobs: int

    @property
    def results(self) -> List[Dict[str, Any]]:
        """Result dicts in the order the scenarios were submitted."""
        return [outcome.result for outcome in self.outcomes]

    def summary(self) -> str:
        """One-line accounting string (printed by the CLI)."""
        return (
            f"{len(self.outcomes)} scenarios, {self.hits} cache hits, "
            f"{self.misses} misses, jobs={self.jobs}, "
            f"{self.elapsed_seconds:.2f}s"
        )


class SweepRunner:
    """Executes scenario lists with optional caching and parallelism.

    Args:
        cache_dir: directory of the content-addressed result cache;
            ``None`` disables caching.
        jobs: worker processes, capped at the usable CPUs; 1 (the
            default) runs serially in-process.
        checkpoint_dir: directory for per-cell mid-run checkpoints; with
            ``checkpoint_every`` set, every deployment cell periodically
            writes a full checkpoint named by its scenario digest, and a
            re-run after preemption resumes each interrupted cell
            bitwise-identically instead of starting over.
        checkpoint_every: checkpoint frequency in rounds (``None``/0
            disables mid-run checkpointing).
    """

    def __init__(
        self,
        cache_dir: Optional[Path] = None,
        jobs: int = 1,
        checkpoint_dir: Optional[Path] = None,
        checkpoint_every: Optional[int] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if checkpoint_every is not None and checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.jobs = int(jobs)
        self.checkpoint_dir = (
            Path(checkpoint_dir) if checkpoint_dir is not None else None
        )
        self.checkpoint_every = int(checkpoint_every) if checkpoint_every else 0

    # ------------------------------------------------------------------
    # Cache plumbing
    # ------------------------------------------------------------------
    def _cache_path(self, digest: str) -> Path:
        assert self.cache_dir is not None
        return self.cache_dir / digest[:2] / f"{digest}.json"

    def load_cached(self, spec: ScenarioSpec) -> Optional[Dict[str, Any]]:
        """The cached result for a spec, or ``None`` if absent/stale."""
        if self.cache_dir is None:
            return None
        path = self._cache_path(spec.digest())
        if not path.exists():
            return None
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None
        if payload.get("schema_version") != RESULT_SCHEMA_VERSION:
            return None
        # Hash-collision / hand-edit paranoia: the stored spec must match.
        if payload.get("spec_json") != spec.canonical_json():
            return None
        return payload.get("result")

    def store(self, spec: ScenarioSpec, result: Dict[str, Any]) -> Optional[Path]:
        """Persist one result; returns the cache file path (or ``None``)."""
        if self.cache_dir is None:
            return None
        path = self._cache_path(spec.digest())
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "schema_version": RESULT_SCHEMA_VERSION,
            "digest": spec.digest(),
            "spec": spec.to_dict(),
            "spec_json": spec.canonical_json(),
            "result": result,
        }
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload, indent=2))
        os.replace(tmp, path)
        return path

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def _checkpoint_env(self):
        """Expose the checkpoint settings to pipelines (and pool workers).

        Pipelines read the checkpoint knobs from the environment (the
        same channel the CLI uses), which also crosses the
        ``multiprocessing`` fork boundary for free; the previous values
        are restored afterwards.
        """
        if not (self.checkpoint_every and self.checkpoint_dir is not None):
            yield
            return
        from repro.api.checkpoint import CHECKPOINT_DIR_ENV, CHECKPOINT_EVERY_ENV

        saved = {
            key: os.environ.get(key)
            for key in (CHECKPOINT_DIR_ENV, CHECKPOINT_EVERY_ENV)
        }
        os.environ[CHECKPOINT_DIR_ENV] = str(self.checkpoint_dir)
        os.environ[CHECKPOINT_EVERY_ENV] = str(self.checkpoint_every)
        try:
            yield
        finally:
            for key, value in saved.items():
                if value is None:
                    os.environ.pop(key, None)
                else:
                    os.environ[key] = value

    def run(self, specs: Sequence[ScenarioSpec]) -> SweepReport:
        """Execute the sweep; results come back in input order."""
        start = time.perf_counter()
        specs = list(specs)
        digests = [spec.digest() for spec in specs]

        # Serve every cell the cache already holds.
        results: Dict[str, Dict[str, Any]] = {}
        hits = 0
        missing: Dict[str, ScenarioSpec] = {}
        for spec, digest in zip(specs, digests):
            if digest in results or digest in missing:
                continue
            cached = self.load_cached(spec)
            if cached is not None:
                results[digest] = cached
                hits += 1
            else:
                missing[digest] = spec

        # Compute the missing cells (deduplicated), serially or pooled.
        misses = len(missing)
        _CACHE_HITS.inc(hits)
        _CACHE_MISSES.inc(misses)
        if missing:
            work = [(digest, spec.to_dict()) for digest, spec in missing.items()]
            with self._checkpoint_env(), _trace.span(
                "sweep", cells=len(work), jobs=self.jobs
            ) as sweep_span:
                workers = min(self.jobs, len(work), _usable_cores())
                if workers > 1:
                    with multiprocessing.Pool(workers) as pool:
                        if _trace.tracing_active():
                            # Workers trace into private collectors and
                            # return their rows; stitch each cell's
                            # subtree under this sweep span.
                            collector = _trace.current_collector()
                            parent = getattr(sweep_span, "span_id", None)
                            computed = []
                            for digest, result, rows in pool.map(
                                _execute_spec_dict_traced, work
                            ):
                                collector.adopt(rows, parent_id=parent)
                                computed.append((digest, result))
                        else:
                            computed = pool.map(_execute_spec_dict, work)
                else:
                    computed = [_execute_spec_dict(item) for item in work]
            for digest, result in computed:
                results[digest] = result
                self.store(missing[digest], result)

        outcomes = [
            SweepOutcome(spec=spec, result=results[digest], cached=digest not in missing)
            for spec, digest in zip(specs, digests)
        ]
        elapsed = time.perf_counter() - start
        return SweepReport(
            outcomes=outcomes,
            hits=hits,
            misses=misses,
            elapsed_seconds=elapsed,
            jobs=self.jobs,
        )


def run_scenarios(
    specs: Sequence[ScenarioSpec],
    cache_dir: Optional[Path] = None,
    jobs: int = 1,
) -> List[Dict[str, Any]]:
    """Convenience wrapper: run a sweep and return just the result dicts."""
    return SweepRunner(cache_dir=cache_dir, jobs=jobs).run(specs).results
