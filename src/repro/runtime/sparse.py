"""Sparse distributed backend: grid-fed rings, arc-counted checks, one clip.

The round-level simulation of the protocol that the message-level
``legacy`` agents (:mod:`repro.runtime.engines`) execute node by node:

* candidates come from :class:`~repro.network.neighbors.SpatialGrid`
  batch queries — the grid is built with the same cell size the scan
  order contract uses, so a bucket walk enumerates ring members in
  exactly the legacy scan order;
* the Algorithm-2 half-radius circle check counts, per circle sample,
  the known neighbours strictly closer than the site by angular
  intervals (:func:`arc_closer_counts`), over chunks of
  ``_GATHER_CHUNK`` nodes, without a ``(pairs × samples)`` panel;
* with a **loss-free channel** the gather runs *level-synchronously*:
  all still-searching nodes share the same ring radius schedule, so one
  array pass per ring level accounts every node's new exchanges (bulk
  :meth:`~repro.runtime.scheduler.SynchronousScheduler.record_many` —
  loss-free accounting is a sum, so bulk order cannot change it) and
  one chunked circle check retires all dominated nodes at once, with
  free-area containment evaluated only at the samples short of ``k``.
  No RNG is consumed on a loss-free channel, so draw order is trivially
  preserved;
* with a **lossy channel** the loss draws must be consumed node by
  node in the legacy order (the RNG draw-order contract of
  ``repro.runtime.engines``, bit for bit), so the gather walks the
  nodes of each chunk in lockstep over its first ring levels: per
  chunk, one grid fetch of every node's candidates, one free-area
  containment pass over the circle samples, and the loss-free closer
  counts of every sample; then a plain-Python walk draws each level's
  loss samples and settles its circle check from those counts
  (domination is monotone in the known set).  A node still searching
  after the precomputed levels replays the legacy walk over arrays
  (``_replay_walk``) from its saved RNG state.  No draw reads the
  precomputed panels (:func:`_lossy_panels`), so at large N a helper
  process computes the tail chunks' panels while this process computes
  and walks the head chunks (:func:`~repro.engine.shard.submit`);
* the per-node clipping sweeps are replaced by one
  :func:`~repro.engine.sparse_kernels.clip_cells_batch` call over all
  nodes, and the per-node Chebyshev circles and ranges by one
  :func:`~repro.engine.sparse_kernels.mec_batch` call
  (:func:`_clip_rows`); at large N the rows run as two halves at once,
  one on the helper (:func:`~repro.engine.shard.split_rows`).
  Displacements and move proposals are array passes over the result.

Numerical contract: **tolerance, not bitwise** (DESIGN.md "Sparse
engine tier") — positions/ranges/areas within 1e-9 of the ``legacy``
backend; identical rounds, communication counters and RNG state.  The
gather decisions (ring membership, hop counts, loss draws and the
circle checks, whose closer test is the walk's own ``hypot``
comparison, counted exactly) follow the legacy agent's arithmetic, so
the tolerance enters only through the fused clipping and the MEC.
"""

from __future__ import annotations

import collections
import functools
import math
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.engine import shard as _shard
from repro.engine.jit_kernels import segment_argsort, segment_ids
from repro.engine.pieces import LazyRegions, RegionVertices, materialize_pieces
from repro.engine.sparse_kernels import clip_cells_batch, mec_batch
from repro.geometry.primitives import Point
from repro.network.neighbors import SpatialGrid
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.runtime.engines import (
    DistributedEngineRound,
    DistributedRoundEngine,
    register_distributed_engine,
    summarize_protocol_round,
)
from repro.runtime.messages import POSITION_REPORT_BYTES, RING_QUERY_BYTES
from repro.voronoi.dominating import DominatingRegion

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.config import LaacadConfig
    from repro.network.network import SensorNetwork
    from repro.runtime.scheduler import SynchronousScheduler

__all__ = ["SparseDistributedEngine"]

#: Same process-wide counter as the centralized engine's candidates
#: stage — get-or-create on the shared registry returns one object.
_GRID_CANDIDATES = _metrics.counter(
    "repro_grid_candidates_total",
    "Candidate neighbors returned by spatial-grid radius queries",
)

#: Alive rows per gather chunk: bounds the lossy chunk's candidate CSR
#: and every chunk's per-sample counts at any N.  In single N=2000
#: lossy deployments 128 and 256 rows ran within noise of 64, in speed
#: and in peak RSS.
_GATHER_CHUNK = 64

#: Ring levels the lossy gather precomputes per chunk (circle-sample
#: containment and loss-free closer counts) and walks in lockstep.  At
#: the density range (ring step γ, about 12 nodes per γ-disk; N=2000,
#: k=2) over 99.5% of walks stop by level 2; the rare longer walk is
#: replayed per node.
_CONTAINMENT_LEVELS = 2

#: Share of the alive rows (rounded to whole chunks) whose lossy-gather
#: panels this process computes itself while the row-shard helper
#: computes the rest; it then walks every chunk.  Balances the head's
#: panels plus walk against the tail's panels: DESIGN.md "Row shards on
#: one helper process" has the measurement.
_LOSSY_HEAD_SHARE = 0.45

#: Verdict code of a circle check with no sample inside the free area.
_VACUOUS = 1 << 62

_NO_IDS = np.zeros(0, dtype=np.int64)

#: The lossy gather's circle checks, by the path that settled them (see
#: ``SparseDistributedEngine._gather_lossy``); counted once per chunk.
_CIRCLE_CHECKS = _metrics.counter(
    "repro_lossy_circle_checks_total",
    "Algorithm-2 circle checks of the lossy gather, by settling path",
    labelnames=("path",),
)
_CIRCLE_CHECKS_BY_PATH = {
    path: _CIRCLE_CHECKS.labels(path)
    for path in ("vacuous", "open", "slack", "exact", "replay")
}

#: A candidate nearer its site than this has no usable bearing: every
#: sample of it takes the walk's own test.
_ARC_MIN_DISTANCE = 1e-9

#: Angular slack (radians) on each side of an arc's end.  It exceeds
#: the error arctan2 and arccos make on their rounded arguments (about
#: 1e-8 rad at worst, right next to arccos(1)).
_ARC_SLACK = 1e-7


def arc_closer_counts(
    sx: np.ndarray,
    sy: np.ndarray,
    owner: np.ndarray,
    cx: np.ndarray,
    cy: np.ndarray,
    radius: float,
    cos_table: np.ndarray,
    sin_table: np.ndarray,
) -> np.ndarray:
    """Per (site, circle sample): candidates strictly closer than the site.

    Sample ``j`` of site ``i`` is ``v = s_i + radius * (cos_j, sin_j)``,
    the circle-check floats; candidate ``c`` (a pair with ``owner ==
    i``) counts there when it passes the walk's own test ``hypot(c - v)
    < hypot(s_i - v) - 1e-12``.  Returns the ``(sites, samples)`` row
    sums of that ``(pairs × samples)`` panel without building it.

    In exact arithmetic, with ``d`` and ``φ`` the candidate's distance
    and bearing from the site and ``r = radius``, ``|c - v|² < (r -
    1e-12)²`` holds exactly on the arc ``cos(θ - φ) > t``, ``t = (d² +
    2e-12·r - 1e-24) / (2rd)``.  The floats move the test's two sides
    by far less than ``E = 1e-12 · (|s_x| + |s_y| + d + r)``, which moves
    the arc's cosine threshold by less than ``E · (1/(2r) + 1/d)``.  So
    with the margin ``m = 1e-9 + E · (1/(2r) + 1/d)``, every sample with
    ``cos(θ - φ) > t + m`` passes the float test and every sample with
    ``cos(θ - φ) < t - m`` fails it.  The passing samples form one index
    interval per pair (narrowed by ``_ARC_SLACK``), counted through a
    difference array.  The samples of the two bands at the arc's ends
    (widened by ``_ARC_SLACK``), and every sample of a candidate nearer
    than ``_ARC_MIN_DISTANCE``, take the walk's own test.
    """
    n_rows = sx.shape[0]
    n_samples = cos_table.shape[0]
    counts = np.zeros(n_rows * n_samples, dtype=np.int64)
    if owner.shape[0] == 0:
        return counts.reshape(n_rows, n_samples)
    site_x = sx[owner]
    site_y = sy[owner]
    dx = cx - site_x
    dy = cy - site_y
    d = np.hypot(dx, dy)
    near = d < _ARC_MIN_DISTANCE
    d[near] = 1.0
    t = (d * d + 2e-12 * radius - 1e-24) / (2.0 * radius * d)
    margin = 1e-9 + 1e-12 * (np.abs(site_x) + np.abs(site_y) + d + radius) * (
        0.5 / radius + 1.0 / d
    )
    # Angles in sample-index units: bearing, and the half-widths of the
    # surely-passing arc and of the arc outside which no sample passes.
    units = n_samples / (2.0 * math.pi)
    slack = _ARC_SLACK * units
    phi = np.arctan2(dy, dx) * units
    w_in = np.where(
        near, -1.0, np.arccos(np.minimum(t + margin, 1.0)) * units - slack
    )
    w_out = np.where(
        near, n_samples, np.arccos(np.clip(t - margin, -1.0, 1.0)) * units + slack
    )
    # Surely passing: the integers strictly inside (phi - w_in, phi + w_in).
    lo = np.floor(phi - w_in).astype(np.int64) + 1
    hi = np.ceil(phi + w_in).astype(np.int64) - 1
    sure = hi >= lo
    if sure.any():
        # |phi| <= S/2 and w_in < S/4, so lo + S >= 0 and hi + 1 + S <
        # 3S: a difference array over [-S, 2S) per row, folded mod S.
        width = 3 * n_samples
        base = owner[sure] * width + n_samples
        ext = np.bincount(base + lo[sure], minlength=n_rows * width) - np.bincount(
            base + hi[sure] + 1, minlength=n_rows * width
        )
        ext = np.cumsum(ext.reshape(n_rows, width), axis=1)
        counts += (
            ext[:, :n_samples] + ext[:, n_samples : 2 * n_samples] + ext[:, 2 * n_samples :]
        ).ravel()
    # Undecided: the integers in [phi - w_out, phi + w_out] outside the
    # sure interval, as up to two index ranges per pair.
    a = np.ceil(phi - w_out).astype(np.int64)
    b = np.floor(phi + w_out).astype(np.int64)
    full = b - a + 1 >= n_samples
    start1 = np.where(full & sure, hi + 1, a)
    len1 = np.where(
        full,
        np.where(sure, lo - 1 + n_samples - hi, n_samples),
        np.where(sure, lo - a, np.maximum(b - a + 1, 0)),
    )
    len2 = np.where(sure & ~full, b - hi, 0)
    lengths = np.concatenate((len1, len2))
    total = int(lengths.sum())
    if total:
        pair = np.repeat(np.tile(np.arange(owner.shape[0]), 2), lengths)
        offset = np.arange(total) - np.repeat(np.cumsum(lengths) - lengths, lengths)
        j = (np.repeat(np.concatenate((start1, hi + 1)), lengths) + offset) % n_samples
        ox = site_x[pair]
        oy = site_y[pair]
        vx = ox + radius * cos_table[j]
        vy = oy + radius * sin_table[j]
        closer = np.hypot(cx[pair] - vx, cy[pair] - vy) < (
            np.hypot(ox - vx, oy - vy) - 1e-12
        )
        counts += np.bincount(
            owner[pair[closer]] * n_samples + j[closer], minlength=n_rows * n_samples
        )
    return counts.reshape(n_rows, n_samples)


def _extend_schedule(rhos: List[float], thresholds: List[float], upto: int, step: float) -> None:
    """Grow the shared ring-radius schedule to ``upto`` levels.

    Radii are accumulated by repeated addition (``rho += step``) so the
    floats match the legacy per-node loop bit for bit; the thresholds
    are the grid inclusion test ``rho^2 + 1e-15``.
    """
    while len(rhos) < upto:
        rho = (rhos[-1] if rhos else 0.0) + step
        rhos.append(rho)
        thresholds.append(rho * rho + 1e-15)


class _ClipRows(NamedTuple):
    """:func:`_clip_rows` of a row range: the clip's CSR, then per row."""

    vx: np.ndarray
    vy: np.ndarray
    piece_indptr: np.ndarray
    piece_owner: np.ndarray
    vert_counts: np.ndarray
    cx: np.ndarray
    cy: np.ndarray
    radius: np.ndarray
    ranges: np.ndarray


def _clip_rows(sites, comp_x, comp_y, comp_indptr, area_pieces, k) -> _ClipRows:
    """Clip ``sites`` against their competitors, and summarise each region.

    ``clip_cells_batch``'s pieces, each row's vertex count, Chebyshev
    circle (one ``mec_batch`` call; an empty region gets the site and
    radius 0) and range (farthest vertex from the site).  Every output
    row depends on its own inputs alone, so any split of the rows
    concatenates (:func:`_join_clips`) to bitwise the one-call result.
    """
    n_rows = sites.shape[0]
    sx = sites[:, 0]
    sy = sites[:, 1]
    with _trace.span("clip"):
        vx, vy, piece_indptr, piece_owner = clip_cells_batch(
            sites, comp_x, comp_y, comp_indptr, area_pieces, k
        )
    with _trace.span("summary"):
        vert_owner = piece_owner[segment_ids(np.diff(piece_indptr), vx.shape[0])]
        vert_counts = np.bincount(vert_owner, minlength=n_rows)
        vert_indptr = np.concatenate(([0], np.cumsum(vert_counts))).astype(np.int64)
        cx, cy, radius = mec_batch(vx, vy, vert_indptr)
        empty = vert_counts == 0
        cx = np.where(empty, sx, cx)
        cy = np.where(empty, sy, cy)
        radius = np.where(empty, 0.0, radius)
        ranges = np.zeros(n_rows)
        if vx.size:
            vert_dist = np.hypot(vx - sx[vert_owner], vy - sy[vert_owner])
            group_starts = np.nonzero(
                np.concatenate(([True], vert_owner[1:] != vert_owner[:-1]))
            )[0]
            ranges[vert_owner[group_starts]] = np.maximum.reduceat(
                vert_dist, group_starts
            )
    return _ClipRows(
        vx, vy, piece_indptr, piece_owner, vert_counts, cx, cy, radius, ranges
    )


def _join_clips(parts, cut: int) -> _ClipRows:
    """One :func:`_clip_rows` output from its row halves (split at ``cut``)."""
    if len(parts) == 1:
        return parts[0]
    head, tail = parts
    return _ClipRows(
        np.concatenate((head.vx, tail.vx)),
        np.concatenate((head.vy, tail.vy)),
        np.concatenate((head.piece_indptr, tail.piece_indptr[1:] + head.piece_indptr[-1])),
        np.concatenate((head.piece_owner, tail.piece_owner + cut)),
        *(np.concatenate(pair) for pair in zip(head[4:], tail[4:])),
    )


def _alive_pairs(alive, px, py, gamma, cand, owner_node):
    """Alive non-self pairs: kept mask, ids, squared distances, hops."""
    keep = alive[cand] & (cand != owner_node)
    cand = cand[keep]
    owner_node = owner_node[keep]
    dx = px[cand] - px[owner_node]
    dy = py[cand] - py[owner_node]
    hops = np.maximum(1, np.ceil(np.hypot(dx, dy) / gamma - 1e-9)).astype(np.int64)
    return keep, cand, dx * dx + dy * dy, hops


def _circle_containment(
    containment, sx: np.ndarray, sy: np.ndarray, radii: np.ndarray,
    cos_table: np.ndarray, sin_table: np.ndarray,
) -> np.ndarray:
    """Free-area containment of many nodes' circle samples at many radii.

    Returns a ``(nodes, radii, samples)`` boolean array whose ``[i, l]``
    row is the mask ``_circle_dominated`` computes for node ``i`` at
    half-radius ``radii[l]``.  A node whose clearance from every outer
    and hole edge exceeds ``max(radii) + eps + 1e-9`` has all its
    samples farther than ``eps`` from every edge and in its own face, so
    they take its site's verdict.  The other nodes run the same sample
    floats (``site + radius * (cos, sin)``, same operand order) through
    the same elementwise kernel, in one call.
    """
    inside = np.empty((sx.shape[0], radii.shape[0], cos_table.shape[0]), dtype=bool)
    near = containment.clearance(sx, sy) <= radii.max() + containment.eps + 1e-9
    far = ~near
    if far.any():
        inside[far] = containment.contains(sx[far], sy[far])[:, None, None]
    if near.any():
        sample_x = sx[near, None, None] + (radii[:, None] * cos_table)[None]
        sample_y = sy[near, None, None] + (radii[:, None] * sin_table)[None]
        inside[near] = containment.contains(
            sample_x.ravel(), sample_y.ravel()
        ).reshape(sample_x.shape)
    return inside


class _LossyPanel(NamedTuple):
    """What the lossy walk reads of one gather chunk, decided by no draw.

    ``cand``/``dist_sq``/``hops`` are the chunk's alive non-self
    candidates within the horizon, owner-major in scan order, node
    ``i``'s at ``bounds[i]:bounds[i + 1]``; ``members[level]`` is
    ``(pair indices within that ring, per-node bounds)``; ``inside`` and
    ``counts`` are the ``(nodes, levels, samples)`` containment and
    loss-free closer counts (int32: the panels cross a pipe); and
    ``verdicts[i][level]`` is ``_VACUOUS`` or the slack ``min(count -
    k)`` over the inside samples.  ``fetched`` is the grid candidate
    count, for ``repro_grid_candidates_total``.
    """

    cand: np.ndarray
    dist_sq: np.ndarray
    hops: np.ndarray
    bounds: List[int]
    members: List[Tuple[np.ndarray, List[int]]]
    inside: np.ndarray
    counts: np.ndarray
    verdicts: List[List[int]]
    fetched: int


def _lossy_panels(
    grid, positions, alive, nodes, horizon, gamma, level_thresholds,
    half_radii, cos_table, sin_table, containment, k,
) -> List[_LossyPanel]:
    """The lossy walk's panels of ``nodes``, one per ``_GATHER_CHUNK`` of them.

    Per chunk: one ``query_radius_many`` to ``horizon`` (its per-center
    lists are the per-node ``query_radius`` lists, scan order included),
    the alive/self filter, squared distances, hop counts and ring levels
    in one array pass, and for each ring level the free-area containment
    of every node's circle samples and the *loss-free*
    closer-than-the-site count of every sample (all candidates within
    the level's ring), by angular intervals (:func:`arc_closer_counts`).

    A pure function of its arguments, each row's panel from its own
    inputs: no RNG draw reads it, so a helper process can compute the
    chunks ahead of the walk (``SparseDistributedEngine._gather_lossy``).
    """
    px = positions[:, 0]
    py = positions[:, 1]
    panels = []
    for first in range(0, nodes.shape[0], _GATHER_CHUNK):
        chunk = nodes[first : first + _GATHER_CHUNK]
        n_nodes = chunk.shape[0]
        with _trace.span("gather"):
            cand, indptr = grid.query_radius_many(positions[chunk], horizon)
            fetched = int(cand.shape[0])
            owner = segment_ids(np.diff(indptr), cand.shape[0])
            keep, cand, dist_sq, hops = _alive_pairs(
                alive, px, py, gamma, cand, chunk[owner]
            )
            owner = owner[keep]
            ptr = np.zeros(n_nodes + 1, dtype=np.int64)
            np.cumsum(np.bincount(owner, minlength=n_nodes), out=ptr[1:])
            # 0-based ring level: the first level whose inclusion
            # threshold admits the pair (the walk's ``dist_sq <= rho^2 +
            # 1e-15``).
            ring = np.searchsorted(level_thresholds, dist_sq, side="left")
            members = []
            for level in range(half_radii.shape[0]):
                in_ring = ring <= level
                member_ptr = np.zeros(n_nodes + 1, dtype=np.int64)
                np.cumsum(
                    np.bincount(owner[in_ring], minlength=n_nodes),
                    out=member_ptr[1:],
                )
                members.append((np.nonzero(in_ring)[0], member_ptr.tolist()))
        with _trace.span("circle_check"):
            sx = px[chunk]
            sy = py[chunk]
            inside = _circle_containment(
                containment, sx, sy, half_radii, cos_table, sin_table
            )
            counts = np.stack(
                [
                    arc_closer_counts(
                        sx,
                        sy,
                        owner[member_rows],
                        px[cand[member_rows]],
                        py[cand[member_rows]],
                        float(half_radii[level]),
                        cos_table,
                        sin_table,
                    )
                    for level, (member_rows, _) in enumerate(members)
                ],
                axis=1,
            )
            # Per (node, level): ``_VACUOUS`` when no sample is inside,
            # else the slack min(count - k) over the inside samples
            # (negative: some sample is short of k).
            slack = np.where(inside, counts, _VACUOUS).min(axis=2) - k
            verdicts = np.where(inside.any(axis=2), slack, _VACUOUS).tolist()
        panels.append(
            _LossyPanel(
                cand, dist_sq, hops, ptr.tolist(), members, inside,
                counts.astype(np.int32), verdicts, fetched,
            )
        )
    return panels


@register_distributed_engine
class SparseDistributedEngine(DistributedRoundEngine):
    """Grid-bucketed, level-synchronous protocol rounds."""

    name = "sparse"

    def __init__(
        self,
        network: "SensorNetwork",
        config: "LaacadConfig",
        scheduler: "SynchronousScheduler",
    ) -> None:
        super().__init__(network, config, scheduler)
        # Sample directions of the Algorithm-2 half-radius circle check,
        # computed with math.cos/math.sin so the sample points are
        # bitwise the legacy agent's.
        samples = config.circle_check_samples
        self._circle_cos = np.asarray(
            [math.cos(2.0 * math.pi * i / samples) for i in range(samples)]
        )
        self._circle_sin = np.asarray(
            [math.sin(2.0 * math.pi * i / samples) for i in range(samples)]
        )
        # Interleaved (query, reply) sizes, tiled per ring batch.
        self._exchange_sizes = np.asarray(
            [RING_QUERY_BYTES, POSITION_REPORT_BYTES], dtype=np.int64
        )
        # Vectorised free-area containment for the circle samples,
        # decision-exact against region.contains.
        self._containment = network.region.containment()

    # ------------------------------------------------------------------
    def run_round(self, round_index: int) -> DistributedEngineRound:
        network = self.network
        config = self.config
        area = network.region
        area_pieces = area.convex_pieces()
        gamma = network.comm_range
        step = gamma * config.ring_granularity
        max_radius = 2.0 * area.diameter + step

        positions = network.positions_array()
        alive = network.alive_mask()
        alive_rows = np.nonzero(alive)[0].astype(np.int64)
        if alive_rows.size == 0:
            self.last_regions = {}
            self.last_round = summarize_protocol_round(network, config, {})
            return self.last_round

        # Same cell size as the scan-order contract: bucket-walk order
        # IS the legacy ring-member visiting order.
        grid = SpatialGrid(positions, cell_size=max(gamma, 1e-6))
        if self.scheduler.drop_probability > 0.0:
            gathered = self._gather_lossy(
                grid, positions, alive, step, max_radius, gamma
            )
        else:
            gathered = self._gather_lossfree(
                grid, positions, alive, step, max_radius, gamma
            )
        known_ids, known_indptr, rho_final = gathered
        round_summary = self._clip_and_summarize(
            positions, alive_rows, known_ids, known_indptr, rho_final, area_pieces
        )
        self.last_regions = round_summary.regions
        self.last_round = round_summary
        return round_summary

    # ------------------------------------------------------------------
    # Loss-free gather: level-synchronous over all nodes
    # ------------------------------------------------------------------
    def _gather_lossfree(
        self,
        grid: SpatialGrid,
        positions: np.ndarray,
        alive: np.ndarray,
        step: float,
        max_radius: float,
        gamma: float,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All nodes' expanding rings, one ring level at a time.

        Loss-free delivery means every ring member is attempted exactly
        once — at the first level whose radius reaches it — and always
        answers, so per level the new exchanges of *all* still-active
        nodes can be accounted with one bulk ``record_many`` (the
        counters are order-independent sums) and the known sets grow by
        exactly the level's ring members.  No loss draws exist, so no
        RNG ordering constraint applies.
        """
        scheduler = self.scheduler
        sizes = self._exchange_sizes
        px = np.ascontiguousarray(positions[:, 0])
        py = np.ascontiguousarray(positions[:, 1])
        alive_rows = np.nonzero(alive)[0].astype(np.int64)
        n_alive = alive_rows.shape[0]
        active = np.ones(n_alive, dtype=bool)
        rho_final = np.zeros(n_alive)
        rhos: List[float] = []
        thresholds: List[float] = []

        # Delivered pairs, appended level by level (owner-grouped, scan
        # order within a level — the legacy delivery order).
        known_owner = _NO_IDS
        known_cand = _NO_IDS
        # Candidate pairs of the current fetch horizon.
        pair_owner = _NO_IDS
        pair_cand = _NO_IDS
        pair_ring = _NO_IDS
        pair_hops = _NO_IDS

        fetched_levels = 0
        level = 0
        while active.any():
            level += 1
            _extend_schedule(rhos, thresholds, level, step)
            rho = rhos[level - 1]
            if level > fetched_levels:
                # Fetch the next horizon block (doubling span) for the
                # still-active owners.  All pairs of earlier rings have
                # been processed, so the old pair state is obsolete.
                with _trace.span("gather"):
                    span = max(2, fetched_levels)
                    new_fetched = level + span - 1
                    _extend_schedule(rhos, thresholds, new_fetched, step)
                    radius = rhos[new_fetched - 1]
                    rows_active = np.nonzero(active)[0]
                    owners_nodes = alive_rows[rows_active]
                    cand, indptr = grid.query_radius_many(
                        positions[owners_nodes], radius
                    )
                    _GRID_CANDIDATES.inc(int(cand.shape[0]))
                    ow_row = rows_active[
                        segment_ids(np.diff(indptr), cand.shape[0])
                    ]
                    ow_node = alive_rows[ow_row]
                    dx = px[cand] - px[ow_node]
                    dy = py[cand] - py[ow_node]
                    # Ring index: first level whose inclusion threshold
                    # admits the pair (identical float schedule as the
                    # scalar rho accumulation).
                    ring = (
                        np.searchsorted(
                            np.asarray(thresholds[:new_fetched]),
                            dx * dx + dy * dy,
                            side="left",
                        )
                        + 1
                    )
                    # Alive non-self pairs of the rings still to come,
                    # owner-major and ring-major (scan order within).
                    fresh = np.nonzero(
                        alive[cand] & (cand != ow_node) & (ring >= level)
                    )[0]
                    fresh = fresh[np.lexsort((ring[fresh], ow_row[fresh]))]
                    pair_owner = ow_row[fresh]
                    pair_cand = cand[fresh]
                    pair_ring = ring[fresh]
                    pair_hops = np.maximum(
                        1, np.ceil(np.hypot(dx[fresh], dy[fresh]) / gamma - 1e-9)
                    ).astype(np.int64)
                    fetched_levels = new_fetched

            mask = (pair_ring == level) & active[pair_owner]
            if mask.any():
                with _trace.span("gather"):
                    level_hops = pair_hops[mask]
                    scheduler.record_many(
                        np.repeat(level_hops, 2),
                        np.tile(sizes, level_hops.shape[0]),
                    )
                    known_owner = np.concatenate((known_owner, pair_owner[mask]))
                    known_cand = np.concatenate((known_cand, pair_cand[mask]))

            # Algorithm-2 stop checks for every active node at once.
            with _trace.span("circle_check"):
                rows_active = np.nonzero(active)[0]
                sel = np.nonzero(active[known_owner])[0]
                sel = sel[np.argsort(known_owner[sel], kind="stable")]
                sites = alive_rows[rows_active]
                dominated = self._lossfree_dominated(
                    px[sites],
                    py[sites],
                    np.searchsorted(rows_active, known_owner[sel]),
                    px[known_cand[sel]],
                    py[known_cand[sel]],
                    rho / 2.0,
                )
                stopping = dominated | (rho >= max_radius)
                stop_rows = rows_active[stopping]
                rho_final[stop_rows] = rho
                active[stop_rows] = False

        # Per-node known lists in delivery order: owner-major, then the
        # order the levels appended them.
        order = np.argsort(known_owner, kind="stable")
        known_counts = np.bincount(known_owner, minlength=n_alive)
        known_indptr = np.concatenate(([0], np.cumsum(known_counts))).astype(np.int64)
        return known_cand[order], known_indptr, rho_final

    def _lossfree_dominated(
        self,
        sx: np.ndarray,
        sy: np.ndarray,
        owner: np.ndarray,
        kx: np.ndarray,
        ky: np.ndarray,
        radius: float,
    ) -> np.ndarray:
        """The half-radius circle check of many nodes, with all their knowns.

        ``owner`` (ascending) maps each known position to its node row.
        Per chunk of ``_GATHER_CHUNK`` rows, :func:`arc_closer_counts`
        gives every circle sample's exact count under the walk's own
        closer test, and free-area containment runs only at the samples
        short of ``k`` — the only ones that can block.  A node is
        dominated when none of its short samples is inside, which is
        the verdict of ``_circle_dominated`` (a node with no inside
        sample is vacuously dominated there too).
        """
        k = self.config.k
        cos_table = self._circle_cos
        sin_table = self._circle_sin
        n_rows = sx.shape[0]
        dominated = np.ones(n_rows, dtype=bool)
        for first in range(0, n_rows, _GATHER_CHUNK):
            last = min(first + _GATHER_CHUNK, n_rows)
            lo, hi = np.searchsorted(owner, (first, last)).tolist()
            counts = arc_closer_counts(
                sx[first:last],
                sy[first:last],
                owner[lo:hi] - first,
                kx[lo:hi],
                ky[lo:hi],
                radius,
                cos_table,
                sin_table,
            )
            rows, cols = np.nonzero(counts < k)
            if rows.size:
                rows += first
                blocking = self._containment.contains(
                    sx[rows] + radius * cos_table[cols],
                    sy[rows] + radius * sin_table[cols],
                )
                dominated[rows[blocking]] = False
        return dominated

    # ------------------------------------------------------------------
    # Lossy gather: chunked lockstep walk, RNG draw-exact
    # ------------------------------------------------------------------
    def _gather_lossy(
        self,
        grid: SpatialGrid,
        positions: np.ndarray,
        alive: np.ndarray,
        step: float,
        max_radius: float,
        gamma: float,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Expanding rings per chunk of nodes, draw for draw the legacy walk.

        Dropped replies are retried ring after ring, so the RNG must be
        consumed node by node in the legacy order: ascending nodes, and
        per node its ring levels in turn, ``2 * attempts`` draws each.
        Per chunk of ``_GATHER_CHUNK`` alive rows, everything no draw
        decides is computed first, by :func:`_lossy_panels`: the
        candidates within the last precomputed ring, and per ring level
        the circle samples' free-area containment and loss-free closer
        counts.

        Then the chunk's nodes walk in ascending order in plain Python
        over per-level member lists (scan order), drawing each level's
        loss samples straight from the scheduler RNG.  A level's circle
        check settles without a per-node sample panel, in this order —
        domination only grows with the known set, and the lossy known
        set is a subset of the loss-free one:

        1. no sample inside the free area: dominated (``vacuous``);
        2. some inside sample short of ``k`` in the loss-free count: not
           dominated (``open``);
        3. at most ``min(count - k)`` over the inside samples of the
           ring's members missing: dominated (``slack``);
        4. otherwise the missing members' exact closer rows are
           subtracted from the loss-free counts (``exact``).

        A node still searching after the last precomputed level restores
        its RNG state and reruns the per-node walk ``_replay_walk``
        (``replay``), which fetches candidates past the horizon itself.
        Message accounting is committed once per chunk as sums, and the
        check paths are counted in ``repro_lossy_circle_checks_total``.

        No draw reads a panel, so at large N the helper process computes
        the tail chunks' panels (:func:`~repro.engine.shard.submit`)
        while this process computes and walks the head chunks; the tail
        is walked afterwards, in node order.  The cut falls on a chunk
        boundary, so every chunk, commit and counter is the one-process
        run's.
        """
        scheduler = self.scheduler
        bit_generator = scheduler.rng.bit_generator
        draw = scheduler.rng.random
        p_drop = scheduler.drop_probability
        cos_table = self._circle_cos
        sin_table = self._circle_sin
        exchange_bytes = int(self._exchange_sizes.sum())
        px = positions[:, 0]
        py = positions[:, 1]
        alive_rows = np.nonzero(alive)[0].astype(np.int64)
        n_alive = alive_rows.shape[0]
        known_parts: List[np.ndarray] = []
        known_counts = np.zeros(n_alive, dtype=np.int64)
        rho_final = np.zeros(n_alive)
        # The walk's own ``rho += step`` schedule; the precomputed levels
        # come first, a replay may extend it.
        rhos: List[float] = []
        thresholds: List[float] = []
        _extend_schedule(rhos, thresholds, _CONTAINMENT_LEVELS, step)
        # The chunk fetch reaches exactly the last precomputed ring: the
        # grid's inclusion test is the ring test, on the same floats.
        horizon = rhos[-1]
        level_thresholds = np.asarray(thresholds)
        half_radii = np.asarray(rhos) / 2.0
        levels = range(_CONTAINMENT_LEVELS)
        pairs = functools.partial(_alive_pairs, alive, px, py, gamma)

        def panels_of(start: int, stop: int) -> tuple:
            return (
                grid, positions, alive, alive_rows[start:stop], horizon, gamma,
                level_thresholds, half_radii, cos_table, sin_table,
                self._containment, self.config.k,
            )

        def walk(first: int, panel: _LossyPanel) -> None:
            """Walk the chunk of alive rows from ``first`` over its panel."""
            _GRID_CANDIDATES.inc(panel.fetched)
            cand = panel.cand
            members = panel.members
            verdicts = panel.verdicts
            inside = panel.inside
            counts = panel.counts
            bounds = panel.bounds
            nodes = alive_rows[first : first + len(verdicts)]
            # The walk's sample floats and closer thresholds, for the
            # checks that subtract their missing members.
            sx = px[nodes]
            sy = py[nodes]
            sample_x = sx[:, None, None] + (half_radii[:, None] * cos_table)[None]
            sample_y = sy[:, None, None] + (half_radii[:, None] * sin_table)[None]
            reach = (
                np.hypot(sx[:, None, None] - sample_x, sy[:, None, None] - sample_y)
                - 1e-12
            )
            known = np.zeros(cand.shape[0], dtype=bool)
            draws: List[np.ndarray] = []
            attempted: List[np.ndarray] = []
            settled: List[str] = []
            for local, node_index in enumerate(nodes.tolist()):
                saved = bit_generator.state
                marks = (len(draws), len(attempted), len(settled))
                got_parts: List[np.ndarray] = []
                n_known = 0
                for level in levels:
                    ring_members, member_bounds = members[level]
                    ring_members = ring_members[
                        member_bounds[local] : member_bounds[local + 1]
                    ]
                    attempts = (
                        ring_members[~known[ring_members]]
                        if n_known
                        else ring_members
                    )
                    if attempts.shape[0]:
                        u = draw(2 * attempts.shape[0])
                        draws.append(u)
                        attempted.append(attempts)
                        got = attempts[u[1::2] >= p_drop]
                        known[got] = True
                        got_parts.append(got)
                        n_known += got.shape[0]
                    verdict = verdicts[local][level]
                    if verdict == _VACUOUS:
                        settled.append("vacuous")
                        dominated = True
                    elif verdict < 0:
                        settled.append("open")
                        dominated = False
                    elif ring_members.shape[0] - n_known <= verdict:
                        settled.append("slack")
                        dominated = True
                    else:
                        settled.append("exact")
                        missing = ring_members[~known[ring_members]]
                        dominated = self._lossy_dominated(
                            positions[cand[missing]],
                            sample_x[local, level],
                            sample_y[local, level],
                            reach[local, level],
                            inside[local, level],
                            counts[local, level],
                        )
                    if dominated or rhos[level] >= max_radius:
                        break
                else:
                    # Past the precomputed levels: replay the node.
                    bit_generator.state = saved
                    del draws[marks[0] :]
                    del attempted[marks[1] :]
                    del settled[marks[2] :]
                    span = slice(bounds[local], bounds[local + 1])
                    delivered, rho = self._replay_walk(
                        grid,
                        positions,
                        pairs,
                        node_index,
                        cand[span],
                        panel.dist_sq[span],
                        panel.hops[span],
                        inside[local],
                        step,
                        max_radius,
                        horizon,
                    )
                    while rhos[-1] < rho:
                        _extend_schedule(rhos, thresholds, len(rhos) + 1, step)
                    settled.extend(["replay"] * (rhos.index(rho) + 1))
                    known_parts.append(delivered)
                    known_counts[first + local] = delivered.shape[0]
                    rho_final[first + local] = rho
                    continue
                delivered = cand[np.concatenate(got_parts)] if got_parts else _NO_IDS
                known_parts.append(delivered)
                known_counts[first + local] = delivered.shape[0]
                rho_final[first + local] = rhos[level]
            if attempted:
                hop_sum = int(panel.hops[np.concatenate(attempted)].sum())
                messages = 2 * sum(a.shape[0] for a in attempted)
                dropped = int(np.count_nonzero(np.concatenate(draws) < p_drop))
                scheduler.commit(
                    messages, 2 * hop_sum, exchange_bytes * hop_sum, dropped
                )
            for path, n_checks in collections.Counter(settled).items():
                _CIRCLE_CHECKS_BY_PATH[path].inc(n_checks)

        # Chunk-aligned, so the tail's chunks are the one-process run's.
        cut = min(
            n_alive,
            _GATHER_CHUNK * round(_LOSSY_HEAD_SHARE * n_alive / _GATHER_CHUNK),
        )
        with _shard.submit(_lossy_panels, n_alive, panels_of, cut) as request:
            stop = n_alive if request is None else request.cut
            for first in range(0, stop, _GATHER_CHUNK):
                (panel,) = _lossy_panels(
                    *panels_of(first, min(first + _GATHER_CHUNK, stop))
                )
                with _trace.span("gather"):
                    walk(first, panel)
            tail = [] if request is None else request.collect()
        for index, panel in enumerate(tail):
            with _trace.span("gather"):
                walk(stop + index * _GATHER_CHUNK, panel)
        known_ids = np.concatenate(known_parts) if known_parts else _NO_IDS
        known_indptr = np.concatenate(([0], np.cumsum(known_counts))).astype(np.int64)
        return known_ids, known_indptr, rho_final

    def _lossy_dominated(
        self,
        missing: np.ndarray,
        sample_x: np.ndarray,
        sample_y: np.ndarray,
        reach: np.ndarray,
        inside: np.ndarray,
        counts: np.ndarray,
    ) -> bool:
        """The circle check with the ``missing`` ring members subtracted.

        ``counts`` are the loss-free closer counts of the level's
        samples; the missing members' closer rows come from the walk's
        own test (``_circle_dominated``: ``hypot(c - v) < reach`` with
        ``reach = hypot(s - v) - 1e-12`` on the same sample floats), so
        the difference is exactly the known set's count.
        """
        closer = (
            np.hypot(missing[:, 0:1] - sample_x, missing[:, 1:2] - sample_y) < reach
        ).sum(axis=0)
        return not (inside & (counts - closer < self.config.k)).any()

    def _replay_walk(
        self,
        grid: SpatialGrid,
        positions: np.ndarray,
        pairs,
        node_index: int,
        ids: np.ndarray,
        dist_sq: np.ndarray,
        hops: np.ndarray,
        inside: np.ndarray,
        step: float,
        max_radius: float,
        horizon: float,
    ) -> Tuple[np.ndarray, float]:
        """One node's legacy walk over arrays: delivered ids and final rho.

        ``ids``/``dist_sq``/``hops`` are the node's candidates within
        ``horizon`` in scan order; ``inside[i]`` is the containment mask
        of the circle samples of ring level ``i + 1``.  Per ring (radius
        accumulated by ``rho += step``): members are the grid's
        inclusion test ``dist_sq <= rho^2 + 1e-15`` over the still
        unknown candidates, their exchanges are accounted — and their
        loss draws consumed — by one ``record_many``, and the circle
        check runs on the known set in delivery order.  A ring past the
        horizon re-fetches the candidates with a per-node
        ``query_radius`` of twice the horizon; the new arrays hold the
        old candidates in the same scan order.
        """
        scheduler = self.scheduler
        sizes = self._exchange_sizes
        site = self.network.nodes[node_index].position
        known = np.zeros(ids.shape[0], dtype=bool)
        delivered: List[int] = []
        rho = 0.0
        level = 0
        while True:
            rho += step
            level += 1
            if rho > horizon:
                horizon = max(horizon * 2.0, rho)
                found = np.asarray(grid.query_radius(site, horizon), dtype=np.int64)
                _, new_ids, dist_sq, hops = pairs(found, np.full_like(found, node_index))
                row_of = np.full(positions.shape[0], -1, dtype=np.int64)
                row_of[new_ids] = np.arange(new_ids.shape[0])
                delivered = row_of[ids[delivered]].tolist()
                ids = new_ids
                known = np.zeros(ids.shape[0], dtype=bool)
                known[delivered] = True
            attempts = np.nonzero((dist_sq <= rho * rho + 1e-15) & ~known)[0]
            if attempts.size:
                replies = scheduler.record_many(
                    np.repeat(hops[attempts], 2), np.tile(sizes, attempts.size)
                )[1::2]
                got = attempts[replies]
                known[got] = True
                delivered.extend(got.tolist())
            level_inside = inside[level - 1] if level <= inside.shape[0] else None
            if self._circle_dominated(
                site, rho / 2.0, positions[ids[delivered]], level_inside
            ):
                break
            if rho >= max_radius:
                break
        return ids[delivered], rho

    def _circle_dominated(
        self,
        site: Point,
        radius: float,
        neighbor_positions: np.ndarray,
        inside: Optional[np.ndarray] = None,
    ) -> bool:
        """Vectorised Algorithm-2 half-radius check, decision-exact.

        Sample points are ``site + radius * (cos, sin)`` from the
        math-library tables; containment runs through the batched
        free-area kernel (decision-exact against ``region.contains``);
        the closer-than-me counting compares ``np.hypot`` distances
        against ``own_distance - 1e-12`` exactly like the scalar loop
        (rule 2 of the kernels' numerical contract covers the 1-ulp
        hypot latitude — the 1e-12 tolerance dwarfs it).

        ``inside``, when given, is the samples' containment mask
        computed in batch by the caller (elementwise the same kernel).
        """
        sample_x = site[0] + radius * self._circle_cos
        sample_y = site[1] + radius * self._circle_sin
        if inside is None:
            inside = self._containment.contains(sample_x, sample_y)
        if not inside.any():
            return True
        if neighbor_positions.shape[0] == 0:
            return False
        vx = sample_x[inside]
        vy = sample_y[inside]
        own_distance = np.hypot(site[0] - vx, site[1] - vy)
        closer = (
            np.hypot(
                neighbor_positions[:, 0][None, :] - vx[:, None],
                neighbor_positions[:, 1][None, :] - vy[:, None],
            )
            < (own_distance - 1e-12)[:, None]
        ).sum(axis=1)
        return bool(np.all(closer >= self.config.k))

    # ------------------------------------------------------------------
    # Shared compute phase: cross-node clip + vectorised summary
    # ------------------------------------------------------------------
    def _clip_and_summarize(
        self,
        positions: np.ndarray,
        alive_rows: np.ndarray,
        known_ids: np.ndarray,
        known_indptr: np.ndarray,
        rho_final: np.ndarray,
        area_pieces,
    ) -> DistributedEngineRound:
        config = self.config
        k = config.k
        n_alive = alive_rows.shape[0]
        px = positions[:, 0]
        py = positions[:, 1]
        sx = px[alive_rows]
        sy = py[alive_rows]
        with _trace.span("clip"):
            known_count = np.diff(known_indptr)
            owner = segment_ids(known_count, known_ids.shape[0])
            dx = px[known_ids] - sx[owner]
            dy = py[known_ids] - sy[owner]
            # The sweep's competitor order: nearest first, stable on ties
            # (base order = delivery order, as in the scalar sweep).
            order = segment_argsort(dx * dx + dy * dy, known_count)
            comp_ids = known_ids[order]
            sites = np.column_stack((sx, sy))
            comp_x = px[comp_ids]
            comp_y = py[comp_ids]

        def rows_args(start, stop):
            lo, hi = known_indptr[start], known_indptr[stop]
            return (
                sites[start:stop], comp_x[lo:hi], comp_y[lo:hi],
                known_indptr[start : stop + 1] - lo, area_pieces, k,
            )

        # Rows are independent: split them where the competitor entries
        # (the clip's work) are halved.
        cut = int(np.searchsorted(known_indptr, known_indptr[-1] // 2))
        clipped = _join_clips(
            _shard.split_rows(_clip_rows, n_alive, rows_args, cut), cut
        )
        vx, vy, piece_indptr, piece_owner = clipped[:4]
        cx, cy, radius, ranges = clipped.cx, clipped.cy, clipped.radius, clipped.ranges

        # Region polygons (read by the compat agent surface; result()
        # reads the flat vertices) are materialised lazily on first
        # access, sited where this round saw each node.
        def build_regions() -> Dict[int, DominatingRegion]:
            pieces_per_row = materialize_pieces(
                vx, vy, piece_indptr, piece_owner, n_alive
            )
            built: Dict[int, DominatingRegion] = {}
            for row in range(n_alive):
                node_id = int(alive_rows[row])
                built[node_id] = DominatingRegion(
                    site=(float(sx[row]), float(sy[row])),
                    k=k,
                    pieces=pieces_per_row[row],
                    competitors_used=int(known_count[row]),
                    search_radius=float(rho_final[row]),
                )
            return built

        # Displacements and move proposals with the agent's exact update
        # grouping; the circles and ranges came with the clip.
        with _trace.span("summary"):
            vert_indptr = np.concatenate(
                ([0], np.cumsum(clipped.vert_counts))
            ).astype(np.int64)
            regions: Dict[int, DominatingRegion] = LazyRegions(
                build_regions, RegionVertices(alive_rows, vx, vy, vert_indptr)
            )
            displacements = np.hypot(sx - cx, sy - cy)
            ids = alive_rows.tolist()
            centers: Dict[int, Tuple[float, float]] = dict(
                zip(ids, zip(cx.tolist(), cy.tolist()))
            )
            alpha = config.alpha
            move_rows = np.nonzero(displacements > config.epsilon)[0]
            # Same expression grouping as the scalar agent update:
            # pos + alpha * (center - pos), evaluated per coordinate.
            tx = sx[move_rows] + alpha * (cx[move_rows] - sx[move_rows])
            ty = sy[move_rows] + alpha * (cy[move_rows] - sy[move_rows])
            proposed: Dict[int, Tuple[float, float]] = dict(
                zip(
                    alive_rows[move_rows].tolist(),
                    zip(tx.tolist(), ty.tolist()),
                )
            )
        return DistributedEngineRound(
            regions=regions,
            centers=centers,
            circumradii=radius.tolist(),
            ranges_from_position=ranges.tolist(),
            displacements=displacements.tolist(),
            proposed_targets=proposed,
        )
