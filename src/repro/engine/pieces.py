"""Preallocated piece emission and lazy region materialisation.

The sparse engines produce region geometry as flat CSR-style vertex
arrays (``clip_cells_batch``'s output format).  Historically the
centralized engine copied those arrays into per-node Python lists as
each node finished its expanding-radius search (``_stash_pieces``) — a
pure-Python loop that cost ~3 s at N=50k.  This module replaces that
bookkeeping with array-native building blocks shared by both sparse
backends:

* :class:`PieceAccumulator` — collects the *frozen* pieces of every
  finishing iteration as flat array chunks and, once at the very end,
  regroups them by owner into one CSR block (a stable argsort keeps
  each owner's discovery order, since an owner finishes exactly once);
* :func:`splice_pieces` — replaces some rows of a finalised block with
  freshly emitted ones (the centralized engine's incremental rounds);
* :func:`materialize_pieces` — the single flat-arrays → Python-polygon
  conversion, run once per round at most;
* :class:`LazyRegions` — a regions dict whose materialisation is
  deferred to the first read, keeping the conversion off the per-round
  critical path entirely.  It also carries the round's vertices as one
  flat block (:class:`RegionVertices`), which is all the deployers'
  ``result()`` needs: :func:`vertex_circumradii` sizes every final
  sensing range from it, so no polygon is ever built to finalize a run.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.engine.jit_kernels import ragged_indices, segment_ids
from repro.geometry.primitives import Point, hypot_exact
from repro.obs import metrics as _metrics

__all__ = [
    "LazyRegions",
    "PieceAccumulator",
    "RegionVertices",
    "materialize_pieces",
    "region_vertices",
    "select_pieces",
    "splice_pieces",
    "vertex_circumradii",
]

#: Pool telemetry (process-wide): freezes are `extend` calls that grew
#: the pool (one per finishing expanding-radius iteration with output),
#: pieces the total frozen piece count.  Incremented per iteration, not
#: per piece, so the counters stay off the per-item hot path.
_POOL_FREEZES = _metrics.counter(
    "repro_piece_pool_freezes_total",
    "Piece-pool freeze events (iterations that emitted finished pieces)",
)
_POOL_PIECES = _metrics.counter(
    "repro_piece_pool_pieces_total",
    "Region pieces frozen into the preallocated piece pools",
)

Polygon = List[Point]

#: Finalised emission block: ``(vert_x, vert_y, piece_indptr,
#: piece_owner, vert_indptr)`` — pieces grouped by ascending owner row,
#: plus the per-owner flat-vertex index (``vert_indptr`` of length
#: ``n_rows + 1``).
EmittedPieces = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]


class PieceAccumulator:
    """Frozen-piece sink for the expanding-radius loop.

    Each call to :meth:`extend` appends one iteration's finished pieces
    (already-gathered vertex arrays, per-piece vertex counts, and the
    owning node row of each piece); :meth:`finalize` concatenates the
    chunks and regroups by owner.  Because every owner finishes in
    exactly one iteration and pieces within an iteration arrive in clip
    output order, the stable owner sort reproduces the historic
    owner-then-discovery piece order exactly.
    """

    def __init__(self) -> None:
        self._vx: List[np.ndarray] = []
        self._vy: List[np.ndarray] = []
        self._counts: List[np.ndarray] = []
        self._owners: List[np.ndarray] = []

    def extend(
        self,
        vx: np.ndarray,
        vy: np.ndarray,
        counts: np.ndarray,
        owners: np.ndarray,
    ) -> None:
        """Append pieces: flat vertices, per-piece counts, per-piece owner rows."""
        if counts.size == 0:
            return
        _POOL_FREEZES.inc()
        _POOL_PIECES.inc(int(counts.size))
        self._vx.append(vx)
        self._vy.append(vy)
        self._counts.append(np.asarray(counts, dtype=np.int64))
        self._owners.append(np.asarray(owners, dtype=np.int64))

    def extend_csr(
        self,
        vx: np.ndarray,
        vy: np.ndarray,
        piece_indptr: np.ndarray,
        owners: np.ndarray,
        rows: Optional[np.ndarray] = None,
    ) -> None:
        """Append pieces straight from ``clip_cells_batch`` CSR output.

        ``owners[p]`` is the owning node row of piece ``p``.  With
        ``rows`` given, only those piece rows are appended (one ragged
        gather); otherwise the arrays are appended as-is, with no
        materialisation at all.
        """
        self.extend(*select_pieces(vx, vy, piece_indptr, owners, rows))

    def finalize(self, n_rows: int) -> EmittedPieces:
        """Regroup every emitted piece by ascending owner row."""
        if not self._counts:
            return (
                np.zeros(0),
                np.zeros(0),
                np.zeros(1, dtype=np.int64),
                np.zeros(0, dtype=np.int64),
                np.zeros(n_rows + 1, dtype=np.int64),
            )
        counts = np.concatenate(self._counts)
        owners = np.concatenate(self._owners)
        vx = np.concatenate(self._vx)
        vy = np.concatenate(self._vy)
        self._vx = []
        self._vy = []
        self._counts = []
        self._owners = []
        order = np.argsort(owners, kind="stable")
        starts = np.cumsum(counts) - counts
        gidx = ragged_indices(starts[order], counts[order])
        pc = counts[order]
        piece_owner = owners[order]
        piece_indptr = np.concatenate(([0], np.cumsum(pc))).astype(np.int64)
        vert_counts = np.zeros(n_rows, dtype=np.int64)
        np.add.at(vert_counts, piece_owner, pc)
        vert_indptr = np.concatenate(([0], np.cumsum(vert_counts))).astype(np.int64)
        return vx[gidx], vy[gidx], piece_indptr, piece_owner, vert_indptr


def select_pieces(
    vx: np.ndarray,
    vy: np.ndarray,
    piece_indptr: np.ndarray,
    owners: np.ndarray,
    rows: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Pieces ``rows`` of a ``clip_cells_batch`` CSR block, as ``extend`` takes them.

    Returns ``(vx, vy, counts, owners)``; with ``rows=None`` every piece,
    the arrays as they are.
    """
    counts = np.diff(piece_indptr)
    if rows is None:
        return vx, vy, counts, owners
    rows = np.asarray(rows, dtype=np.int64)
    sub_counts = counts[rows]
    gidx = ragged_indices(piece_indptr[:-1][rows], sub_counts)
    return vx[gidx], vy[gidx], sub_counts, owners[rows]


def splice_pieces(
    old: EmittedPieces, new: EmittedPieces, replace: np.ndarray
) -> EmittedPieces:
    """Owner-grouped block taking ``replace`` rows from ``new``, the rest from ``old``.

    Both blocks are :meth:`PieceAccumulator.finalize` output over the
    same rows, and ``new`` holds pieces only for rows flagged in the
    boolean mask ``replace``.  Each row's pieces are copied verbatim, in
    their original order, so the result is bitwise the block a single
    accumulator would have produced had every row been emitted fresh.
    """
    ovx, ovy, o_indptr, o_owner, o_vert = old
    nvx, nvy, n_indptr, n_owner, n_vert = new
    keep = np.nonzero(~replace[o_owner])[0]
    # Old kept pieces and new pieces belong to disjoint rows, and each
    # side is already grouped by ascending owner: a stable sort of the
    # concatenation interleaves whole rows without reordering any row.
    owners = np.concatenate((o_owner[keep], n_owner))
    order = np.argsort(owners, kind="stable")
    counts = np.concatenate((np.diff(o_indptr)[keep], np.diff(n_indptr)))[order]
    starts = np.concatenate(
        (o_indptr[:-1][keep], n_indptr[:-1] + ovx.shape[0])
    )[order]
    gidx = ragged_indices(starts, counts)
    vert_counts = np.where(replace, np.diff(n_vert), np.diff(o_vert))
    return (
        np.concatenate((ovx, nvx))[gidx],
        np.concatenate((ovy, nvy))[gidx],
        np.concatenate(([0], np.cumsum(counts))).astype(np.int64),
        owners[order],
        np.concatenate(([0], np.cumsum(vert_counts))).astype(np.int64),
    )


def materialize_pieces(
    vx: np.ndarray,
    vy: np.ndarray,
    piece_indptr: np.ndarray,
    piece_owner: np.ndarray,
    n_rows: int,
) -> List[List[Polygon]]:
    """Convert CSR piece arrays into per-row Python polygon lists.

    The one place flat geometry becomes Python objects; every caller
    reaches it at most once per round (and lazily, via
    :class:`LazyRegions`, not on the round's critical path).
    """
    pieces_per_row: List[List[Polygon]] = [[] for _ in range(n_rows)]
    if piece_owner.shape[0] == 0:
        return pieces_per_row
    vx_list = vx.tolist()
    vy_list = vy.tolist()
    indptr = piece_indptr.tolist()
    for p, owner in enumerate(piece_owner.tolist()):
        s = indptr[p]
        e = indptr[p + 1]
        pieces_per_row[owner].append(list(zip(vx_list[s:e], vy_list[s:e])))
    return pieces_per_row


class RegionVertices(NamedTuple):
    """Every region's vertices as one flat block, row ``i`` for ``ids[i]``.

    Row ``i``'s vertices are ``vx[indptr[i]:indptr[i + 1]]`` (and
    ``vy``), its pieces one after another; an empty region has none.
    """

    ids: np.ndarray
    vx: np.ndarray
    vy: np.ndarray
    indptr: np.ndarray


def region_vertices(regions: Dict) -> RegionVertices:
    """The flat vertex block of a regions dict, in the dict's key order.

    A :class:`LazyRegions` hands over the block it was built with; a
    plain dict of polygon regions (the scalar engines) is flattened.
    """
    vertices = getattr(regions, "vertices", None)
    if vertices is not None:
        return vertices
    xs: List[float] = []
    ys: List[float] = []
    counts: List[int] = []
    for region in regions.values():
        before = len(xs)
        for piece in region.pieces:
            for x, y in piece:
                xs.append(x)
                ys.append(y)
        counts.append(len(xs) - before)
    return RegionVertices(
        ids=np.fromiter(regions.keys(), dtype=np.intp, count=len(counts)),
        vx=np.asarray(xs, dtype=float),
        vy=np.asarray(ys, dtype=float),
        indptr=np.concatenate(([0], np.cumsum(counts))).astype(np.int64),
    )


def vertex_circumradii(vertices: RegionVertices, origins: np.ndarray) -> np.ndarray:
    """Per row, the farthest vertex's distance from ``origins[row]``.

    ``DominatingRegion.circumradius`` over flat arrays, bitwise: the
    result is the row maximum, from 0.0, of ``math.hypot`` of the same
    coordinate differences, so an empty region reads 0.0.  ``np.hypot``
    is within one ulp of ``math.hypot``, so it ranks the vertices first
    and only those within a few ulps of their row's maximum — the only
    ones that can hold the exact maximum — are measured exactly.
    """
    counts = np.diff(vertices.indptr)
    radii = np.zeros(counts.shape[0])
    if vertices.vx.size == 0:
        return radii
    owner = segment_ids(counts, vertices.vx.shape[0])
    dx = vertices.vx - origins[owner, 0]
    dy = vertices.vy - origins[owner, 1]
    approx = np.hypot(dx, dy)
    filled = np.nonzero(counts)[0]
    radii[filled] = np.maximum.reduceat(approx, vertices.indptr[:-1][filled])
    floor = radii[owner]
    floor -= 4 * np.spacing(floor)
    near = np.nonzero(approx >= floor)[0]
    near_owner = owner[near]
    # Every filled row keeps at least its approximate maximum, so the
    # row groups of ``near`` line up with ``filled``.
    starts = np.nonzero(np.concatenate(([True], near_owner[1:] != near_owner[:-1])))[0]
    radii[filled] = np.maximum.reduceat(hypot_exact(dx[near], dy[near]), starts)
    return radii


class LazyRegions(dict):
    """A regions dict materialised on first read access.

    The per-round hot paths only consume the vectorised summaries
    (centers, displacements, proposed targets), and ``result()`` reads
    only the flat :attr:`vertices`; the region *polygons* are built for
    callers that ask for them (``expose_regions``, the compat agent
    surface, direct ``compute_regions`` users).  Deferring the
    flat-array → Python-piece conversion to the first read keeps it off
    every deployment's path.
    """

    def __init__(
        self,
        builder: Optional[Callable[[], Dict]] = None,
        vertices: Optional[RegionVertices] = None,
    ) -> None:
        super().__init__()
        self._builder = builder
        #: The regions' vertices as one flat block (read without
        #: materialising anything).
        self.vertices = vertices

    def _ensure(self) -> None:
        builder = self._builder
        if builder is not None:
            self._builder = None
            super().update(builder())

    def __getitem__(self, key):
        self._ensure()
        return super().__getitem__(key)

    def __iter__(self):
        self._ensure()
        return super().__iter__()

    def __len__(self):
        self._ensure()
        return super().__len__()

    def __contains__(self, key):
        self._ensure()
        return super().__contains__(key)

    def __eq__(self, other):
        self._ensure()
        return super().__eq__(other)

    __hash__ = None

    def __repr__(self):
        self._ensure()
        return super().__repr__()

    def get(self, key, default=None):
        self._ensure()
        return super().get(key, default)

    def keys(self):
        self._ensure()
        return super().keys()

    def values(self):
        self._ensure()
        return super().values()

    def items(self):
        self._ensure()
        return super().items()

    def __reduce__(self):
        self._ensure()
        return (dict, (dict(self),))
