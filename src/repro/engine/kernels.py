"""Vectorized geometry kernels backing the batched round engine.

Three families of kernels live here:

* **distance kernels** — pairwise / cross distance matrices with an
  optional chunked evaluation so memory stays bounded for large inputs
  (:func:`pairwise_distance_matrix`, :func:`cross_distances`) and the
  chunked disk-counting kernel shared with ``repro.analysis.coverage``
  and ``repro.voronoi.raster`` (:func:`disk_cover_counts`);
* **clipping kernels** — the Sutherland–Hodgman half-plane clip driven
  by precomputed signed-value arrays (:func:`clip_ring_halfplane`, the
  fused two-sided :func:`split_ring_halfplane`) and the incremental
  budgeted clipping sweep over whole competitor sets
  (:class:`ClippingSweep`, :func:`dominating_pieces_batch`);
* **prefilter kernels** — the Lemma-1 candidate selection expressed as
  array operations (:func:`select_competitors`).

Numerical contract
------------------
The batched engine must produce results *bitwise identical* to the
scalar per-node path.  Two rules keep that true:

1. Every computation whose result feeds the simulation output (clip
   intersection points, half-plane coefficients and signed values) uses
   only IEEE-754 ``+ - * /`` in exactly the grouping of the scalar code.
   Those operations round identically in NumPy and CPython, so the
   vectorized results are bitwise equal.  (Negation is exact, so the
   flipped half-plane's values are exactly ``-v`` and both sides of a
   split share one evaluation and one set of intersection points.)
2. Computations that only steer *decisions with measure-zero knife
   edges* (which competitors fall inside a search radius, the sorted
   competitor order) may use ``np.hypot``, which can differ from
   ``math.hypot`` by 1 ulp.  A 1-ulp difference only matters when a
   distance ties a threshold exactly, which does not occur for the
   deployments this engine runs on.  Everything downstream of a
   decision (dedupe, sliver-area tests, Chebyshev centers) reuses the
   *scalar* helpers, so no drift can accumulate.
"""

from __future__ import annotations

import math
import os
import threading
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.geometry.clipping import dedupe_ring
from repro.geometry.polygon import polygon_area
from repro.geometry.primitives import EPS, Point
from repro.obs import trace as _trace
from repro.voronoi.dominating import _MIN_PIECE_AREA

Polygon = List[Point]

#: Batches at most this large skip the NumPy set-up in the sweep: for a
#: handful of competitors plain-float sorting and coefficients are
#: cheaper than array construction.
_SMALL_BATCH = 24

#: Remaining-competitor tails at most this long are finished in scalar
#: mode: packing the vertex arrays costs more than a few scalar passes.
_MIN_VECTOR_TAIL = 8


# ----------------------------------------------------------------------
# Memory budgets
# ----------------------------------------------------------------------
#: Environment knob capping any single dense pairwise matrix allocation.
DENSE_MATRIX_BYTES_ENV = "REPRO_DENSE_MATRIX_BYTES"
_DEFAULT_DENSE_MATRIX_BYTES = 1 << 30  # 1 GiB

#: Environment knob bounding the transient working set of chunked kernels.
#: The default is sized to keep a chunk's transient panels resident in a
#: typical last-level cache: panel kernels are memory-bandwidth bound, and
#: streaming much larger chunks through DRAM measures ~3x slower than
#: cache-resident ones for identical results.
CHUNK_BYTES_ENV = "REPRO_CHUNK_BYTES"
_DEFAULT_CHUNK_BYTES = 16 << 20  # 16 MiB

#: Environment knob selecting the intra-round worker count of the
#: chunked kernel seams.  Default ``1``: the executor is off and the
#: exact serial dispatch path runs (threads never overlapped on a
#: 2-core box, and they compete with the row-shard helper process for
#: the second core — DESIGN.md "Intra-round threading").  Every
#: parallel site partitions its work into per-item-independent chunks
#: with disjoint output slices (or a chunk-ordered concatenation), so
#: the computed floats are identical for every worker count — the knob
#: changes wall-clock only.
KERNEL_THREADS_ENV = "REPRO_KERNEL_THREADS"


def _env_bytes(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{name} must be an integer byte count, got {raw!r}") from None
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def dense_matrix_byte_cap() -> int:
    """Byte cap for one dense pairwise matrix (``REPRO_DENSE_MATRIX_BYTES``)."""
    return _env_bytes(DENSE_MATRIX_BYTES_ENV, _DEFAULT_DENSE_MATRIX_BYTES)


def chunk_budget_bytes() -> int:
    """Transient working-set budget of chunked kernels (``REPRO_CHUNK_BYTES``)."""
    return _env_bytes(CHUNK_BYTES_ENV, _DEFAULT_CHUNK_BYTES)


def _available_cores() -> int:
    """Cores available to this process (affinity-aware where possible)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):
        return max(1, os.cpu_count() or 1)


def kernel_threads() -> int:
    """Resolve ``REPRO_KERNEL_THREADS`` to the effective worker count.

    Read per call (not cached) so tests and benchmarks can flip the
    knob at runtime.  Unset/empty means ``1``, the serial dispatch path.
    """
    raw = os.environ.get(KERNEL_THREADS_ENV, "").strip()
    if not raw:
        return 1
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"{KERNEL_THREADS_ENV} must be a positive integer, got {raw!r}"
        ) from None
    if value < 1:
        raise ValueError(
            f"{KERNEL_THREADS_ENV} must be a positive integer, got {raw!r}"
        )
    return value


#: Shared intra-round executor, built lazily and grown (never shrunk)
#: to the largest worker count requested so far.  One pool serves every
#: kernel seam of every engine in the process: the seams release the
#: GIL for the bulk of their work (NumPy ufunc inner loops), so chunks
#: genuinely overlap.
_EXECUTOR = None
_EXECUTOR_WORKERS = 0
_EXECUTOR_LOCK = threading.Lock()


def _shared_executor(workers: int):
    global _EXECUTOR, _EXECUTOR_WORKERS
    with _EXECUTOR_LOCK:
        if _EXECUTOR is None or workers > _EXECUTOR_WORKERS:
            from concurrent.futures import ThreadPoolExecutor

            old = _EXECUTOR
            _EXECUTOR = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="repro-kernel"
            )
            _EXECUTOR_WORKERS = workers
            if old is not None:
                old.shutdown(wait=False)
        return _EXECUTOR


def run_chunk_tasks(tasks, workers: Optional[int] = None) -> list:
    """Run independent chunk thunks, returning results in task order.

    The deterministic chunk-ordered reduction primitive shared by the
    kernel seams: submission order *is* reduction order, so callers that
    concatenate the returned chunks (or let chunks write disjoint slices
    of a preallocated output) produce identical arrays for every worker
    count.  With one worker — or one task — the tasks run inline on the
    calling thread, which is exactly the historic serial path.
    """
    tasks = list(tasks)
    if workers is None:
        workers = kernel_threads()
    if _trace._ACTIVE is not None:
        # Traced run: each chunk becomes a span parented to the caller's
        # current span even when executed on a pool thread (the wrapper
        # copies the submitting context).  Chunk count, order and the
        # thunks themselves are unchanged, so results stay bitwise
        # identical; with tracing off this costs the one global check.
        tasks = _trace.wrap_chunk_tasks(tasks)
    if workers <= 1 or len(tasks) <= 1:
        return [task() for task in tasks]
    executor = _shared_executor(workers)
    futures = [executor.submit(task) for task in tasks]
    return [future.result() for future in futures]


def split_ranges(
    total_items: int, workers: Optional[int] = None, min_per_worker: int = 1
) -> List[Tuple[int, int]]:
    """Contiguous near-equal ``(start, stop)`` ranges for worker fan-out.

    At most ``workers`` ranges, each at least ``min_per_worker`` items
    (the last range takes the remainder); a single range when the work
    is too small to be worth splitting.  Used by seams whose per-item
    results are independent, so the split is invisible in the output.
    """
    if workers is None:
        workers = kernel_threads()
    if total_items <= 0:
        return []
    n_ranges = min(workers, max(1, total_items // max(1, min_per_worker)))
    if n_ranges <= 1:
        return [(0, total_items)]
    step = -(-total_items // n_ranges)
    return [
        (start, min(start + step, total_items))
        for start in range(0, total_items, step)
    ]


def _check_dense_budget(n: int) -> None:
    """Refuse a dense ``(N, N)`` allocation that would blow the byte cap.

    Raises a *clear* ``MemoryError`` before NumPy attempts the
    allocation: the chunked evaluation paths bound the intermediate
    broadcast tensors but still materialise the full output matrices,
    so the guard is on the output size, chunked or not.
    """
    cap = dense_matrix_byte_cap()
    needed = n * n * 8
    if needed > cap:
        raise MemoryError(
            f"dense pairwise distance matrix for {n} points needs "
            f"{needed / 1e9:.1f} GB (a float64 matrix of "
            f"{n}x{n}), exceeding the {cap / 1e9:.1f} GB cap; use the "
            f'sparse engine tier (LaacadConfig(engine="sparse") or '
            f"REPRO_ENGINE=sparse), which never builds an N x N matrix, "
            f"or raise {DENSE_MATRIX_BYTES_ENV}."
        )


def plan_chunks(
    total_items: int,
    bytes_per_item: int,
    budget: Optional[int] = None,
    workers: int = 1,
) -> Iterator[Tuple[int, int]]:
    """Yield ``(start, stop)`` slices bounding transient memory.

    The shape-first idiom of the chunked kernel drivers: callers size
    their *output* up front (``total_items`` and the per-item transient
    footprint are known before any work happens), then stream fixed-size
    chunks through the kernel so the working set never exceeds the
    budget (``REPRO_CHUNK_BYTES`` by default).  Always yields at least
    one item per chunk, so pathologically large rows degrade to
    item-at-a-time evaluation instead of failing.

    ``workers`` is the executor fan-out the caller intends to dispatch
    the chunks across (``kernel_threads()``): with more than one worker
    the chunk size is additionally capped so at least ``workers`` chunks
    exist, otherwise one budget-sized chunk could serialise the whole
    pass on a single thread.  ``workers=1`` (the default) is bitwise the
    historic plan — the budget alone sizes the chunks.
    """
    if total_items < 0:
        raise ValueError("total_items must be non-negative")
    if bytes_per_item <= 0:
        raise ValueError("bytes_per_item must be positive")
    if budget is None:
        budget = chunk_budget_bytes()
    chunk = max(1, budget // bytes_per_item)
    if workers > 1:
        chunk = max(1, min(chunk, -(-total_items // workers)))
    for start in range(0, total_items, chunk):
        yield start, min(start + chunk, total_items)


# ----------------------------------------------------------------------
# Distance kernels
# ----------------------------------------------------------------------
def cross_distances(
    points_a: np.ndarray, points_b: np.ndarray, chunk_size: Optional[int] = None
) -> np.ndarray:
    """Dense ``(A, B)`` Euclidean distance matrix between two point sets.

    Uses the ``sqrt(dx*dx + dy*dy)`` formulation (matching the historic
    analysis code).  With ``chunk_size`` the rows are evaluated in
    blocks, bounding peak memory at ``O(chunk_size * B)`` instead of
    ``O(A * B)`` for the intermediate difference tensor.
    """
    a = np.asarray(points_a, dtype=float).reshape(-1, 2)
    b = np.asarray(points_b, dtype=float).reshape(-1, 2)
    if chunk_size is None or a.shape[0] <= chunk_size:
        diff = a[:, None, :] - b[None, :, :]
        return np.sqrt(np.sum(diff * diff, axis=2))
    out = np.empty((a.shape[0], b.shape[0]), dtype=float)
    for start in range(0, a.shape[0], chunk_size):
        block = a[start : start + chunk_size]
        diff = block[:, None, :] - b[None, :, :]
        out[start : start + block.shape[0]] = np.sqrt(np.sum(diff * diff, axis=2))
    return out


def pairwise_distance_matrix(
    points: np.ndarray, chunk_size: Optional[int] = None
) -> np.ndarray:
    """Dense ``(N, N)`` pairwise distance matrix via ``np.hypot``.

    Used for threshold decisions (competitor selection) only — see the
    module docstring's numerical contract.  Raises a descriptive
    ``MemoryError`` (suggesting ``engine="sparse"``) when the output
    matrix would exceed :func:`dense_matrix_byte_cap`.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    n = pts.shape[0]
    _check_dense_budget(n)
    if chunk_size is None or n <= chunk_size:
        dx = pts[:, 0][:, None] - pts[:, 0][None, :]
        dy = pts[:, 1][:, None] - pts[:, 1][None, :]
        return np.hypot(dx, dy)
    out = np.empty((n, n), dtype=float)
    for start in range(0, n, chunk_size):
        block = pts[start : start + chunk_size]
        dx = block[:, 0][:, None] - pts[:, 0][None, :]
        dy = block[:, 1][:, None] - pts[:, 1][None, :]
        out[start : start + block.shape[0]] = np.hypot(dx, dy)
    return out


def disk_cover_counts(
    positions: Sequence[Point],
    ranges: Sequence[float],
    sample_points: np.ndarray,
    slack: float = 1e-9,
    chunk_size: int = 4096,
) -> np.ndarray:
    """Number of sensing disks covering each sample point (chunked).

    Drop-in replacement for the dense ``(M, N, 2)`` broadcast the
    coverage verifier used to build: samples are processed in blocks of
    ``chunk_size`` so peak memory stays bounded while the per-element
    arithmetic (and therefore the result) is unchanged.
    """
    pos = np.asarray(positions, dtype=float)
    rng = np.asarray(ranges, dtype=float)
    if pos.shape[0] != rng.shape[0]:
        raise ValueError("positions and ranges must have the same length")
    samples = np.asarray(sample_points, dtype=float)
    if samples.size == 0:
        return np.zeros(0, dtype=int)
    samples = samples.reshape(-1, 2)
    counts = np.empty(samples.shape[0], dtype=np.int64)
    threshold = rng[None, :] + slack
    for start in range(0, samples.shape[0], chunk_size):
        block = samples[start : start + chunk_size]
        diff = block[:, None, :] - pos[None, :, :]
        dist = np.sqrt(np.sum(diff * diff, axis=2))
        counts[start : start + block.shape[0]] = (dist <= threshold).sum(axis=1)
    return counts


# ----------------------------------------------------------------------
# Prefilter kernels
# ----------------------------------------------------------------------
def select_competitors(
    distance_row: np.ndarray, self_index: int, radius: float
) -> np.ndarray:
    """Indices of competitors strictly within ``radius`` (original order).

    Mirrors the scalar pre-filter's ``[q for q in others if
    distance(site, q) < rho]``: strict inequality, self excluded, and
    the surviving indices keep their original (alive-node) order.
    """
    mask = distance_row < radius
    mask[self_index] = False
    return np.nonzero(mask)[0]


# ----------------------------------------------------------------------
# Clipping kernels
# ----------------------------------------------------------------------
def halfplane_coefficient_arrays(
    site: Point, competitors: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Perpendicular-bisector half-plane coefficients for many competitors.

    Returns ``(a, b, c)`` arrays such that ``a*x + b*y <= c`` is the
    "at least as close to ``site`` as to competitor j" half-plane —
    elementwise identical to ``halfplane_from_bisector``.
    """
    sx, sy = float(site[0]), float(site[1])
    a = competitors[:, 0] - sx
    b = competitors[:, 1] - sy
    c = (
        competitors[:, 0] * competitors[:, 0]
        + competitors[:, 1] * competitors[:, 1]
        - sx * sx
        - sy * sy
    ) / 2.0
    return a, b, c


def clip_ring_halfplane(
    ring: Sequence[Point], values: Sequence[float], eps: float = EPS
) -> Polygon:
    """Sutherland–Hodgman half-plane clip driven by precomputed values.

    The sweep evaluates ``a*x + b*y - c`` for every live vertex of
    every piece in one vectorized pass; this clip consumes those
    per-vertex signed values instead of re-deriving them, so the
    per-polygon work reduces to output assembly.  Pass the negated
    values to clip against the flipped half-plane — IEEE negation makes
    ``-v`` exactly the flipped evaluation.

    Bitwise identical to ``clip_polygon_halfplane`` (including the
    boundary-intersection arithmetic, the clamped interpolation
    parameter, the degenerate-edge midpoint fallback and the final ring
    dedupe).

    Args:
        ring: the convex polygon's vertices.
        values: signed half-plane evaluation of each vertex, aligned
            with ``ring``.
        eps: boundary tolerance (vertices within ``eps`` count as
            inside).

    Returns:
        The clipped vertex ring (empty when fewer than 3 vertices
        survive).
    """
    if not ring:
        return []
    output: List[Point] = []
    prev = ring[-1]
    prev_val = values[-1]
    degenerate_eps = EPS * EPS
    for current, cur_val in zip(ring, values):
        cur_inside = cur_val <= eps
        prev_inside = prev_val <= eps
        if cur_inside != prev_inside:
            # Boundary crossing: replicate HalfPlane.boundary_intersection.
            denom = prev_val - cur_val
            if abs(denom) <= degenerate_eps:
                output.append(
                    ((prev[0] + current[0]) / 2.0, (prev[1] + current[1]) / 2.0)
                )
            else:
                t = prev_val / denom
                t = max(0.0, min(1.0, t))
                output.append(
                    (
                        prev[0] + t * (current[0] - prev[0]),
                        prev[1] + t * (current[1] - prev[1]),
                    )
                )
        if cur_inside:
            output.append(current)
        prev, prev_val = current, cur_val
    return dedupe_ring(output, eps)


def _ring_area(ring: Sequence[Point]) -> float:
    """Absolute shoelace area of a clipped ring.

    Delegates to the canonical ``polygon_area`` so the sliver-area
    decisions of both backends always share one float accumulation.
    """
    return polygon_area(ring)


def split_ring_halfplane(
    ring: Sequence[Point],
    values: Sequence[float],
    eps: float,
    want_farther: bool,
) -> Tuple[Polygon, float, Polygon, float]:
    """Fused two-sided clip of a convex ring against one bisector.

    Produces, in a single pass, both the "closer to the site" ring (the
    half-plane of the given ``values``) and — when ``want_farther`` —
    the "closer to the competitor" ring (the flipped half-plane, whose
    per-vertex values are exactly ``-v``).  The crossing intersections
    of the two sides coincide bitwise, so each edge's intersection
    arithmetic runs once rather than once per side.  Each output ring
    is deduped and measured exactly like ``clip_ring_halfplane`` +
    ``polygon_area`` would.

    Returns:
        ``(closer_ring, closer_area, farther_ring, farther_area)`` with
        empty rings / zero areas for degenerate results (and always for
        the farther side when ``want_farther`` is false).
    """
    closer: List[Point] = []
    farther: List[Point] = []
    closer_last: Optional[Point] = None
    farther_last: Optional[Point] = None
    prev = ring[-1]
    prev_val = values[-1]
    prev_inside_c = prev_val <= eps
    prev_inside_f = prev_val >= -eps
    degenerate_eps = EPS * EPS
    for current, cur_val in zip(ring, values):
        cur_inside_c = cur_val <= eps
        cur_inside_f = cur_val >= -eps
        crossing_c = cur_inside_c != prev_inside_c
        crossing_f = want_farther and (cur_inside_f != prev_inside_f)
        if crossing_c or crossing_f:
            denom = prev_val - cur_val
            if abs(denom) <= degenerate_eps:
                point = ((prev[0] + current[0]) / 2.0, (prev[1] + current[1]) / 2.0)
            else:
                t = prev_val / denom
                t = max(0.0, min(1.0, t))
                point = (
                    prev[0] + t * (current[0] - prev[0]),
                    prev[1] + t * (current[1] - prev[1]),
                )
            if crossing_c and (
                closer_last is None
                or abs(point[0] - closer_last[0]) > eps
                or abs(point[1] - closer_last[1]) > eps
            ):
                closer.append(point)
                closer_last = point
            if crossing_f and (
                farther_last is None
                or abs(point[0] - farther_last[0]) > eps
                or abs(point[1] - farther_last[1]) > eps
            ):
                farther.append(point)
                farther_last = point
        if cur_inside_c and (
            closer_last is None
            or abs(current[0] - closer_last[0]) > eps
            or abs(current[1] - closer_last[1]) > eps
        ):
            closer.append(current)
            closer_last = current
        if want_farther and cur_inside_f and (
            farther_last is None
            or abs(current[0] - farther_last[0]) > eps
            or abs(current[1] - farther_last[1]) > eps
        ):
            farther.append(current)
            farther_last = current
        prev, prev_val = current, cur_val
        prev_inside_c = cur_inside_c
        prev_inside_f = cur_inside_f

    # Cyclic wrap of the dedupe (exactly dedupe_ring's trailing pass).
    for output in (closer, farther):
        while len(output) >= 2 and (
            abs(output[0][0] - output[-1][0]) <= eps
            and abs(output[0][1] - output[-1][1]) <= eps
        ):
            output.pop()
    closer_area = _ring_area(closer) if len(closer) >= 3 else 0.0
    if len(closer) < 3:
        closer = []
    farther_area = _ring_area(farther) if len(farther) >= 3 else 0.0
    if len(farther) < 3:
        farther = []
    return closer, closer_area, farther, farther_area


class ClippingSweep:
    """Incremental array-native budgeted clipping sweep for one site.

    Folds nearest-first competitors into the site's live piece set
    exactly like ``repro.voronoi.dominating.dominating_pieces`` — but
    incrementally: :meth:`extend` may be called repeatedly with batches
    of farther competitors (the Lemma-1 pre-filter's expanding rings),
    and the fold continues from the cached state instead of re-clipping
    from scratch.  Because the sweep is a deterministic fold over the
    distance-sorted competitor sequence, the result after extending
    with rings ``A`` then ``B`` is bitwise identical to one scalar
    sweep over ``A ∪ B``.

    Internally each batch runs in two modes:

    * **scalar mode** while the state is churning (the nearest
      competitors nearly always clip something): per-piece evaluation
      with plain floats, the two-sided fused clip, and no array
      (re)builds;
    * **vector mode** once a competitor leaves every piece untouched
      and enough competitors remain: the live vertices are packed into
      coordinate arrays once and *blocks* of upcoming competitors are
      evaluated in single vectorized operations (``a*x + b*y - c`` over
      a (block, vertices) grid), with block sizes growing geometrically
      through the long no-op tail.  A half-plane is a no-op exactly
      when its row maximum is ``<= eps``, so one row-wise max
      classifies a whole block.
    """

    #: Safety margin for the far-competitor cutoff, vastly larger than
    #: any accumulated rounding error on O(1)-scale coordinates.
    _CUTOFF_MARGIN = 1e-7

    def __init__(
        self, site: Point, area_pieces: Sequence[Polygon], k: int, eps: float = EPS
    ) -> None:
        if k < 1:
            raise ValueError("coverage order k must be >= 1")
        self.site = site
        self.site_x = float(site[0])
        self.site_y = float(site[1])
        self.budget = k - 1
        self.eps = eps
        # state entries: (vertex ring, violation count)
        self.state: List[Tuple[Polygon, int]] = [
            (list(piece), 0) for piece in area_pieces if len(piece) >= 3
        ]
        #: Whether the previous batch ended in the no-op tail; the next
        #: batch then starts vectorized instead of probing scalar-first.
        self._tail_mode = False
        #: Cached max distance from the site to any live vertex.
        self._site_radius: Optional[float] = None

    def pieces(self) -> List[Polygon]:
        """The current live pieces (the dominating region so far)."""
        return [entry[0] for entry in self.state]

    def site_radius(self) -> float:
        """Largest distance from the site to any live vertex (cached).

        This is the quantity the Lemma-1 pre-filter terminates on (the
        paper's ``R-hat`` of the partial region), computed exactly like
        the scalar path's ``max(distance(site, v) ...)``.  It also backs
        the far-competitor cutoff: a competitor at distance ``d`` with
        ``d/2 > radius`` has its perpendicular bisector strictly outside
        every live vertex, so it provably cannot clip anything — and
        since the sweep folds competitors nearest-first, the entire
        remainder of the batch is a no-op too.
        """
        if self._site_radius is None:
            hypot = math.hypot
            sx, sy = self.site_x, self.site_y
            radius = 0.0
            for entry in self.state:
                for v in entry[0]:
                    d = hypot(v[0] - sx, v[1] - sy)
                    if d > radius:
                        radius = d
            self._site_radius = radius
        return self._site_radius

    # ------------------------------------------------------------------
    def extend(self, competitors) -> None:
        """Fold a batch of competitors into the sweep.

        Every competitor in the batch must be at least as far from the
        site as every previously folded competitor (the pre-filter's
        expanding rings guarantee this); within the batch, competitors
        are sorted nearest-first exactly like the scalar sweep.  Accepts
        an ``(M, 2)`` array or a sequence of point pairs.
        """
        if not self.state:
            return
        if isinstance(competitors, np.ndarray):
            count = competitors.shape[0]
            comp_rows: Optional[List[Point]] = None
        else:
            comp_rows = [(float(p[0]), float(p[1])) for p in competitors]
            count = len(comp_rows)
        if count == 0:
            return
        sx, sy = self.site_x, self.site_y
        # Far-competitor cutoff: competitors whose bisector provably
        # lies beyond every live vertex (squared-distance form of
        # ``d/2 > site_radius + margin``) are no-ops, and so is every
        # farther competitor in this nearest-first batch.
        cutoff_distance = 2.0 * (self.site_radius() + self._CUTOFF_MARGIN)
        cutoff_sq = cutoff_distance * cutoff_distance

        arrays: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        if count <= _SMALL_BATCH:
            # Plain-float set-up: sorting and coefficients for a handful
            # of competitors cost less than building NumPy arrays.  The
            # stable sort on the squared distance matches np.argsort.
            if comp_rows is None:
                comp_rows = competitors.tolist()
            hypot = math.hypot
            eps = self.eps
            sx2 = sx * sx
            sy2 = sy * sy
            decorated = sorted(
                ((cx - sx) * (cx - sx) + (cy - sy) * (cy - sy), index)
                for index, (cx, cy) in enumerate(comp_rows)
            )
            a_list: List[float] = []
            b_list: List[float] = []
            c_list: List[float] = []
            for dist_sq, index in decorated:
                if dist_sq > cutoff_sq:
                    break
                cx, cy = comp_rows[index]
                if hypot(cx - sx, cy - sy) <= eps:
                    # Co-located competitor: never strictly closer.
                    continue
                a_list.append(cx - sx)
                b_list.append(cy - sy)
                c_list.append((cx * cx + cy * cy - sx2 - sy2) / 2.0)
            total = len(a_list)
        else:
            comps = np.asarray(competitors, dtype=float).reshape(-1, 2)
            dx = comps[:, 0] - sx
            dy = comps[:, 1] - sy
            dist_sq = dx * dx + dy * dy
            order = np.argsort(dist_sq, kind="stable")
            comps = comps[order]
            cut = int(np.searchsorted(dist_sq[order], cutoff_sq, side="right"))
            comps = comps[:cut]
            if comps.shape[0]:
                # Co-located competitors are never strictly closer: no
                # constraint.
                separated = np.hypot(comps[:, 0] - sx, comps[:, 1] - sy) > self.eps
                if not separated.all():
                    comps = comps[separated]
            total = comps.shape[0]
            if total:
                a_arr, b_arr, c_arr = halfplane_coefficient_arrays(self.site, comps)
                a_list = a_arr.tolist()
                b_list = b_arr.tolist()
                c_list = c_arr.tolist()
                arrays = (a_arr, b_arr, c_arr)
        if total == 0:
            return

        i = 0
        while i < total and self.state:
            if (
                self._tail_mode
                and arrays is not None
                and total - i > _MIN_VECTOR_TAIL
            ):
                i = self._run_vectorized(arrays[0], arrays[1], arrays[2], i, total)
            else:
                i = self._run_scalar(a_list, b_list, c_list, i, total)

    # ------------------------------------------------------------------
    def _run_scalar(
        self,
        a_list: List[float],
        b_list: List[float],
        c_list: List[float],
        i: int,
        total: int,
    ) -> int:
        """Process competitors one at a time with plain-float evaluation.

        Returns the index of the next unprocessed competitor.  When a
        competitor leaves the state untouched, ``_tail_mode`` flips on
        and control returns to :meth:`extend`, which decides whether
        enough competitors remain to justify the vectorized bulk path
        (otherwise this method is simply re-entered).
        """
        eps = self.eps
        budget = self.budget
        state = self.state
        while i < total and state:
            a = a_list[i]
            b = b_list[i]
            c = c_list[i]
            changed = False
            new_state: List[Tuple[Polygon, int]] = []
            for entry in state:
                ring, violations = entry
                values = [a * x + b * y - c for x, y in ring]
                if max(values) <= eps:
                    # Entire piece is at least as close to the site.
                    new_state.append(entry)
                    continue
                changed = True
                if min(values) >= -eps:
                    # Entire piece is closer to the competitor.
                    if violations + 1 <= budget:
                        new_state.append((ring, violations + 1))
                    continue
                closer, closer_area, farther, farther_area = split_ring_halfplane(
                    ring, values, eps, violations + 1 <= budget
                )
                if closer_area > _MIN_PIECE_AREA:
                    new_state.append((closer, violations))
                if farther_area > _MIN_PIECE_AREA:
                    new_state.append((farther, violations + 1))
            i += 1
            if changed:
                self.state = state = new_state
                self._site_radius = None
            elif not self._tail_mode:
                self._tail_mode = True
                return i
        return i

    def _run_vectorized(
        self,
        a_arr: np.ndarray,
        b_arr: np.ndarray,
        c_arr: np.ndarray,
        i: int,
        total: int,
    ) -> int:
        """Bulk-classify competitor blocks against the packed vertex array.

        Returns the index of the next unprocessed competitor; flips back
        to scalar mode when a competitor touches the state (the change
        itself is applied here, from the already-computed row values).
        """
        eps = self.eps
        budget = self.budget
        flat: List[Point] = []
        lengths: List[int] = []
        for entry in self.state:
            flat.extend(entry[0])
            lengths.append(len(entry[0]))
        stacked = np.asarray(flat, dtype=float)
        xs = np.ascontiguousarray(stacked[:, 0])
        ys = np.ascontiguousarray(stacked[:, 1])
        block = 4
        while i < total:
            end = min(i + block, total)
            vals = (
                a_arr[i:end, None] * xs[None, :]
                + b_arr[i:end, None] * ys[None, :]
                - c_arr[i:end, None]
            )
            touched = vals.max(axis=1) > eps
            if not touched.any():
                i = end
                block = min(block * 2, 4096)
                continue
            step = int(np.argmax(touched))
            row_values = vals[step].tolist()
            new_state: List[Tuple[Polygon, int]] = []
            cursor = 0
            for entry, n in zip(self.state, lengths):
                ring, violations = entry
                values = row_values[cursor : cursor + n]
                cursor += n
                if max(values) <= eps:
                    new_state.append(entry)
                    continue
                if min(values) >= -eps:
                    if violations + 1 <= budget:
                        new_state.append((ring, violations + 1))
                    continue
                closer, closer_area, farther, farther_area = split_ring_halfplane(
                    ring, values, eps, violations + 1 <= budget
                )
                if closer_area > _MIN_PIECE_AREA:
                    new_state.append((closer, violations))
                if farther_area > _MIN_PIECE_AREA:
                    new_state.append((farther, violations + 1))
            self.state = new_state
            self._site_radius = None
            self._tail_mode = False
            return i + step + 1
        return i


def dominating_pieces_batch(
    site: Point,
    competitors: np.ndarray,
    area_pieces: Sequence[Polygon],
    k: int,
    eps: float = EPS,
) -> List[Polygon]:
    """One-shot array-native budgeted clipping sweep.

    Bitwise-identical drop-in for ``repro.voronoi.dominating
    .dominating_pieces``; see :class:`ClippingSweep` for how the work is
    vectorized.

    Args:
        site: the site whose region is computed.
        competitors: ``(C, 2)`` competitor positions in the caller's
            order (the sweep re-sorts them nearest-first exactly like
            the scalar path).
        area_pieces: convex decomposition of the target area.
        k: coverage order (>= 1).
        eps: geometric tolerance.

    Returns:
        Convex polygons (lists of ``(x, y)`` tuples) whose union is the
        dominating region, in the same order the scalar sweep produces.
    """
    sweep = ClippingSweep(site, area_pieces, k, eps)
    sweep.extend(competitors)
    return sweep.pieces()
