"""Kernel seam tests: plain-loop oracles, thread pool, piece emission.

The sparse tier's bandwidth-bound kernels live behind seams in
``repro.engine.jit_kernels``, each with one NumPy body.  These tests pin
the contract from DESIGN.md "Kernel seams":

* the plain-loop oracles in ``kernel_oracles`` agree with the seams —
  bitwise for half-plane values, first events, clip vertices and ring
  compression, decision-exactly for closer counts — at every
  ``REPRO_KERNEL_THREADS`` setting, degenerate inputs included
  (zero-crossing pass, all-out first event, rings collapsing below 3
  vertices, non-separated competitors);
* the kernel thread pool's chunk-ordered reduction and range split;
* :class:`repro.engine.pieces.PieceAccumulator` reproduces the historic
  owner-then-discovery piece order of the ``_stash_pieces`` loop it
  replaced.
"""

from __future__ import annotations

import numpy as np
import pytest
from kernel_oracles import (
    _classify_first_events_loops,
    _clip_crossing_loops,
    _closer_counts_loops,
    _compress_rings_loops,
    _halfplane_minmax_loops,
)

from repro.engine.jit_kernels import (
    classify_first_events,
    clip_crossing_pieces,
    closer_counts,
    compress_rings,
    halfplane_minmax,
    kernel_tier,
    ragged_indices,
    segment_ids,
)
from repro.engine.kernels import (
    CHUNK_BYTES_ENV,
    KERNEL_THREADS_ENV,
    kernel_threads,
    plan_chunks,
    run_chunk_tasks,
    split_ranges,
)
from repro.engine.pieces import PieceAccumulator
from repro.geometry.primitives import EPS as GEOM_EPS

#: The worker counts every seam test sweeps: serial (the bitwise-anchored
#: path), an even split, and a prime that leaves a ragged tail range.
THREAD_COUNTS = pytest.mark.parametrize("threads", [1, 2, 7])

EPS = 1e-9


# ----------------------------------------------------------------------
# Ragged fixtures
# ----------------------------------------------------------------------
def _ragged_pieces(rng, n_pieces=40, max_verts=9):
    counts = rng.integers(1, max_verts, size=n_pieces).astype(np.int64)
    starts = (np.cumsum(counts) - counts).astype(np.int64)
    total = int(counts.sum())
    vx = rng.uniform(-3.0, 3.0, size=total)
    vy = rng.uniform(-3.0, 3.0, size=total)
    ca = rng.uniform(-2.0, 2.0, size=n_pieces)
    cb = rng.uniform(-2.0, 2.0, size=n_pieces)
    cc = rng.uniform(-2.0, 2.0, size=n_pieces)
    return vx, vy, starts, counts, ca, cb, cc


def _counting_problem(rng, n_rows=25, n_samples=16, max_known=30):
    counts = rng.integers(0, max_known, size=n_rows).astype(np.int64)
    offsets = (np.cumsum(counts) - counts).astype(np.int64)
    total = int(counts.sum())
    kx = rng.uniform(0.0, 1.0, size=total)
    ky = rng.uniform(0.0, 1.0, size=total)
    sample_x = rng.uniform(0.0, 1.0, size=(n_rows, n_samples))
    sample_y = rng.uniform(0.0, 1.0, size=(n_rows, n_samples))
    threshold_sq = rng.uniform(0.0, 0.05, size=(n_rows, n_samples))
    return kx, ky, offsets, counts, sample_x, sample_y, threshold_sq


def _classify_problem(rng, n_pieces=60, max_verts=8, max_blk=6):
    """Pieces plus a contiguous competitor-lookahead block per piece."""
    counts = rng.integers(3, max_verts, size=n_pieces).astype(np.int64)
    starts = (np.cumsum(counts) - counts).astype(np.int64)
    total = int(counts.sum())
    vx = rng.uniform(-2.0, 2.0, size=total)
    vy = rng.uniform(-2.0, 2.0, size=total)
    nblk = rng.integers(1, max_blk, size=n_pieces).astype(np.int64)
    centry = (np.cumsum(nblk) - nblk).astype(np.int64)
    ncomp = int(nblk.sum())
    ca = rng.uniform(-1.5, 1.5, size=ncomp)
    cb = rng.uniform(-1.5, 1.5, size=ncomp)
    cc = rng.uniform(-1.5, 1.5, size=ncomp)
    sep = rng.random(ncomp) < 0.8
    return vx, vy, starts, counts, centry, nblk, ca, cb, cc, sep


def _classify_case(rng, case, n_pieces=60):
    """A classification problem, optionally forced into a degenerate case."""
    vx, vy, starts, counts, centry, nblk, ca, cb, cc, sep = _classify_problem(
        rng, n_pieces=n_pieces
    )
    if case == "zero_event":
        # Every bisector far on the negative side: nothing fires.
        cc = np.full_like(cc, 100.0)  # value = a*x + b*y - 100 << -eps
    elif case == "all_out":
        # Every bisector strictly positive over every vertex.
        ca = np.ones_like(ca)
        cb = np.zeros_like(cb)
        cc = np.full_like(cc, -100.0)  # value = x + 100 >> eps
    elif case == "non_separated":
        sep = np.zeros_like(sep)
    return vx, vy, starts, counts, centry, nblk, ca, cb, cc, sep


def _random_rings(rng, n_pieces=50):
    counts = rng.integers(3, 9, size=n_pieces).astype(np.int64)
    starts = (np.cumsum(counts) - counts).astype(np.int64)
    total = int(counts.sum())
    # Rings scattered around distinct centers so the random bisectors
    # produce a healthy mix of crossing/one-sided cases.
    centers = rng.uniform(-3.0, 3.0, size=(n_pieces, 2))
    seg = np.repeat(np.arange(n_pieces), counts)
    vx = centers[seg, 0] + rng.uniform(-0.5, 0.5, size=total)
    vy = centers[seg, 1] + rng.uniform(-0.5, 0.5, size=total)
    ca = rng.uniform(-1.0, 1.0, size=n_pieces)
    cb = rng.uniform(-1.0, 1.0, size=n_pieces)
    cc = rng.uniform(-1.0, 1.0, size=n_pieces)
    want = rng.random(n_pieces) < 0.7
    return vx, vy, starts, counts, ca, cb, cc, want


#: Offset of the vertical bisector ``x = c`` cutting the unit triangle
#: ``(0,0), (1,0), (0,1)`` in each degenerate clip case.
_TRIANGLE_CUTS = {
    # x = 10 far right: closer child is the whole ring, farther empty.
    "zero_crossing": 10.0,
    # x = -10 far left: the whole ring moves to the farther side.
    "all_out": -10.0,
    # x = 0 grazes the left edge: the closer child collapses below 3
    # vertices, the farther child keeps the full triangle.
    "through_vertex": 0.0,
}


def _triangle_case(case, n_pieces=1):
    """``n_pieces`` copies of the unit triangle and one cut per copy."""
    vx = np.tile([0.0, 1.0, 0.0], n_pieces)
    vy = np.tile([0.0, 0.0, 1.0], n_pieces)
    starts = np.arange(0, 3 * n_pieces, 3, dtype=np.int64)
    counts = np.full(n_pieces, 3, dtype=np.int64)
    ca = np.ones(n_pieces)
    cb = np.zeros(n_pieces)
    cc = np.full(n_pieces, _TRIANGLE_CUTS[case])
    want = np.ones(n_pieces, dtype=bool)
    return vx, vy, starts, counts, ca, cb, cc, want


# ----------------------------------------------------------------------
# Loop-oracle drivers: run a scalar body into fresh output buffers
# ----------------------------------------------------------------------
def _clip_loops_oracle(pool_x, pool_y, pstart, pc, ca, cb, cc, want, eps):
    """Run the scalar clip body through slot buffers and compact."""
    slot_start = (2 * (np.cumsum(pc) - pc)).astype(np.int64)
    cap = int(2 * pc.sum())
    clo_x = np.empty(cap)
    clo_y = np.empty(cap)
    far_x = np.empty(cap)
    far_y = np.empty(cap)
    clo_n = np.zeros(pc.shape[0], dtype=np.int64)
    far_n = np.zeros(pc.shape[0], dtype=np.int64)
    _clip_crossing_loops(
        pool_x, pool_y, pstart, pc, ca, cb, cc, want, eps, GEOM_EPS * GEOM_EPS,
        slot_start, clo_x, clo_y, clo_n, far_x, far_y, far_n,
    )
    cidx = ragged_indices(slot_start, clo_n)
    fidx = ragged_indices(slot_start, far_n)
    return clo_x[cidx], clo_y[cidx], clo_n, far_x[fidx], far_y[fidx], far_n


def _compress_loops_oracle(ex, ey, ring_of_slot, emit, nrings, eps):
    """Compact the emitted slots per ring, then compress each in place."""
    x = ex[emit]
    y = ey[emit]
    counts = np.bincount(ring_of_slot[emit], minlength=nrings).astype(np.int64)
    starts = np.cumsum(counts) - counts
    out_counts = np.empty(nrings, dtype=np.int64)
    _compress_rings_loops(x, y, starts, counts, eps, out_counts)
    gidx = ragged_indices(starts, out_counts)
    return x[gidx], y[gidx], out_counts


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


def test_kernel_tier_is_numpy():
    assert kernel_tier() == "numpy"


# ----------------------------------------------------------------------
# Half-plane extrema and closer counts
# ----------------------------------------------------------------------
class TestLoopFormOracles:
    @THREAD_COUNTS
    def test_halfplane_loops_bitwise_match_numpy(self, rng, threads, monkeypatch):
        monkeypatch.setenv(KERNEL_THREADS_ENV, str(threads))
        # 9000 pieces > 2 * min_per_worker(4096): the seam splits into
        # multiple worker ranges when threads > 1.
        vx, vy, starts, counts, ca, cb, cc = _ragged_pieces(rng, n_pieces=9000)
        pmax, pmin = halfplane_minmax(vx, vy, starts, counts, ca, cb, cc)
        lmax = np.empty_like(pmax)
        lmin = np.empty_like(pmin)
        _halfplane_minmax_loops(vx, vy, starts, counts, ca, cb, cc, lmax, lmin)
        # Bitwise: the loop body uses the identical IEEE expression.
        np.testing.assert_array_equal(pmax, lmax)
        np.testing.assert_array_equal(pmin, lmin)

    @THREAD_COUNTS
    @pytest.mark.parametrize("cap", [1, 4, 16, 1000])
    def test_closer_counts_decisions_match_loops(
        self, rng, cap, threads, monkeypatch
    ):
        monkeypatch.setenv(KERNEL_THREADS_ENV, str(threads))
        # A few-KiB budget: the panel pass splits into many chunks, which
        # the pool runs concurrently when threads > 1.
        monkeypatch.setenv(CHUNK_BYTES_ENV, "4096")
        k = 2
        kx, ky, offsets, counts, sx, sy, tsq = _counting_problem(rng)
        out_np = closer_counts(kx, ky, offsets, counts, sx, sy, tsq, cap, k)
        out_loops = np.zeros_like(out_np)
        _closer_counts_loops(
            kx, ky, offsets, counts, sx, sy, tsq, cap, k, out_loops
        )
        # Counts themselves are only decision-equivalent across cap
        # values, but for the *same* cap the two-stage schedules agree
        # exactly, so the matrices must be equal.
        np.testing.assert_array_equal(out_np, out_loops)

    @pytest.mark.parametrize("cap", [1, 3, 7, 64])
    def test_closer_counts_decisions_match_brute_force(self, rng, cap):
        k = 2
        kx, ky, offsets, counts, sx, sy, tsq = _counting_problem(rng)
        out = closer_counts(kx, ky, offsets, counts, sx, sy, tsq, cap, k)
        n_rows, n_samples = sx.shape
        full = np.zeros((n_rows, n_samples), dtype=np.int64)
        for r in range(n_rows):
            for s in range(n_samples):
                for j in range(offsets[r], offsets[r] + counts[r]):
                    dx = kx[j] - sx[r, s]
                    dy = ky[j] - sy[r, s]
                    if dx * dx + dy * dy < tsq[r, s]:
                        full[r, s] += 1
        # Decision contract: ``count >= k`` agrees everywhere with the
        # exhaustive count, for any stage-1 budget.
        np.testing.assert_array_equal(out >= k, full >= k)

    def test_empty_inputs(self):
        empty_i = np.zeros(0, dtype=np.int64)
        empty_f = np.zeros(0)
        pmax, pmin = halfplane_minmax(
            empty_f, empty_f, empty_i, empty_i, empty_f, empty_f, empty_f
        )
        assert pmax.shape == (0,) and pmin.shape == (0,)
        out = closer_counts(
            empty_f, empty_f, empty_i, empty_i,
            np.zeros((0, 8)), np.zeros((0, 8)), np.zeros((0, 8)), 4, 2,
        )
        assert out.shape == (0, 8)


# ----------------------------------------------------------------------
# Clip-pass seams: classification, fused two-sided clip, compression
# ----------------------------------------------------------------------
class TestClassifyFirstEvents:
    @THREAD_COUNTS
    @pytest.mark.parametrize(
        "case", ["random", "zero_event", "all_out", "non_separated"]
    )
    def test_loops_bitwise_match_numpy_seam(self, rng, case, threads, monkeypatch):
        monkeypatch.setenv(KERNEL_THREADS_ENV, str(threads))
        # Big enough that the seam genuinely splits into multiple worker
        # ranges (min_per_worker=2048) when threads > 1.
        problem = _classify_case(rng, case, n_pieces=4500)
        first, kind = classify_first_events(*problem, EPS)
        lf = np.empty_like(first)
        lk = np.empty_like(kind)
        _classify_first_events_loops(*problem, EPS, lf, lk)
        np.testing.assert_array_equal(first, lf)
        np.testing.assert_array_equal(kind, lk)

    def test_zero_event_pass(self, rng):
        # The whole block is untouched, so no event fires — first_evt
        # parks at nblk.
        problem = _classify_case(rng, "zero_event")
        first, kind = classify_first_events(*problem, EPS)
        np.testing.assert_array_equal(kind, 0)
        np.testing.assert_array_equal(first, problem[5])

    def test_all_out_first_event(self, rng):
        # The first separated block entry is an all-out (kind 1) event.
        vx, vy, starts, counts, centry, nblk, ca, cb, cc, sep = _classify_case(
            rng, "all_out"
        )
        first, kind = classify_first_events(
            vx, vy, starts, counts, centry, nblk, ca, cb, cc, sep, EPS
        )
        for p in range(starts.shape[0]):
            blk_sep = sep[centry[p] : centry[p] + nblk[p]]
            if blk_sep.any():
                assert kind[p] == 1
                assert first[p] == int(np.argmax(blk_sep))
            else:
                assert kind[p] == 0
                assert first[p] == nblk[p]

    def test_non_separated_competitors_skipped(self, rng):
        problem = _classify_case(rng, "non_separated")
        first, kind = classify_first_events(*problem, EPS)
        np.testing.assert_array_equal(kind, 0)
        np.testing.assert_array_equal(first, problem[5])

    def test_empty_input(self):
        e_f = np.zeros(0)
        e_i = np.zeros(0, dtype=np.int64)
        first, kind = classify_first_events(
            e_f, e_f, e_i, e_i, e_i, e_i, e_f, e_f, e_f,
            np.zeros(0, dtype=bool), EPS,
        )
        assert first.shape == (0,) and kind.shape == (0,)


class TestClipCrossingPieces:
    @THREAD_COUNTS
    @pytest.mark.parametrize("case", ["random", *sorted(_TRIANGLE_CUTS)])
    def test_loops_bitwise_match_numpy_seam(self, rng, case, threads, monkeypatch):
        monkeypatch.setenv(KERNEL_THREADS_ENV, str(threads))
        # 1200 pieces > 2 * min_per_worker(512): the seam splits into
        # multiple chunk-ordered ranges when threads > 1.
        if case == "random":
            problem = _random_rings(rng, n_pieces=1200)
        else:
            problem = _triangle_case(case, n_pieces=1200)
        got = clip_crossing_pieces(*problem, EPS)
        ref = _clip_loops_oracle(*problem, EPS)
        for g, r in zip(got, ref):
            np.testing.assert_array_equal(g, r)

    def test_zero_crossing_pass_keeps_piece_whole(self):
        vx, vy, *rest = _triangle_case("zero_crossing")
        clo_x, clo_y, clo_n, far_x, far_y, far_n = clip_crossing_pieces(
            vx, vy, *rest, EPS
        )
        np.testing.assert_array_equal(clo_n, [3])
        np.testing.assert_array_equal(clo_x, vx)
        np.testing.assert_array_equal(clo_y, vy)
        np.testing.assert_array_equal(far_n, [0])
        assert far_x.size == 0 and far_y.size == 0

    def test_all_out_piece_moves_to_farther_side(self):
        vx, vy, *rest = _triangle_case("all_out")
        clo_x, clo_y, clo_n, far_x, far_y, far_n = clip_crossing_pieces(
            vx, vy, *rest, EPS
        )
        np.testing.assert_array_equal(clo_n, [0])
        assert clo_x.size == 0
        np.testing.assert_array_equal(far_n, [3])
        np.testing.assert_array_equal(far_x, vx)

    def test_want_farther_false_discards_far_child(self, rng):
        vx, vy, starts, counts, ca, cb, cc, _ = _random_rings(rng)
        none = np.zeros(counts.shape[0], dtype=bool)
        _, _, _, far_x, far_y, far_n = clip_crossing_pieces(
            vx, vy, starts, counts, ca, cb, cc, none, EPS
        )
        np.testing.assert_array_equal(far_n, 0)
        assert far_x.size == 0 and far_y.size == 0

    def test_clip_through_vertex_collapses_child(self):
        # The closer child degenerates to the triangle's left edge (2
        # vertices after dedupe), which the engine's area filter later
        # discards.
        got = clip_crossing_pieces(*_triangle_case("through_vertex"), EPS)
        assert got[2][0] < 3  # closer child collapsed below a polygon
        assert got[5][0] == 3  # farther child keeps the full triangle

    def test_empty_input(self):
        e_f = np.zeros(0)
        e_i = np.zeros(0, dtype=np.int64)
        out = clip_crossing_pieces(
            e_f, e_f, e_i, e_i, e_f, e_f, e_f, np.zeros(0, dtype=bool), EPS
        )
        assert all(a.size == 0 for a in out)


class TestCompressRingsSeam:
    def _dup_chain_case(self):
        # Ring 0: duplicate run + cyclic tail equal to the head; ring 1
        # collapses below 3 vertices (all four slots within eps).
        ex = np.asarray(
            [0.0, 0.0, 1.0, 1.0 + 1e-12, 2.0, 0.0, 5.0, 5.0, 5.0 + 1e-12, 5.0]
        )
        ey = np.asarray(
            [0.0, 0.0, 0.5, 0.5, 1.0, 1e-12, 5.0, 5.0 + 1e-11, 5.0, 5.0]
        )
        ring = np.asarray([0, 0, 0, 0, 0, 0, 1, 1, 1, 1], dtype=np.int64)
        emit = np.ones(10, dtype=bool)
        return ex, ey, ring, emit, 2

    def _lattice_case(self, rng, nrings=200):
        # Coordinates on a coarse lattice, so consecutive duplicates and
        # cyclic head/tail repeats are common; a random emit mask drops
        # slots the way a clip does.
        ring = np.sort(rng.integers(0, nrings, size=2000)).astype(np.int64)
        ex = rng.integers(0, 3, size=ring.size).astype(float)
        ey = rng.integers(0, 3, size=ring.size).astype(float)
        emit = rng.random(ring.size) < 0.8
        return ex, ey, ring, emit, nrings

    @pytest.mark.parametrize("case", ["dup_chain", "lattice"])
    def test_loops_match_numpy_on_degenerate_rings(self, rng, case):
        if case == "dup_chain":
            problem = self._dup_chain_case()
        else:
            problem = self._lattice_case(rng)
        got = compress_rings(*problem, EPS)
        if case == "dup_chain":
            # Ring 1 collapsed to a single point: below the 3-vertex
            # polygon floor, exactly the case the engine's area filter
            # then drops.
            np.testing.assert_array_equal(got[2], [3, 1])
        ref = _compress_loops_oracle(*problem, EPS)
        for g, r in zip(got, ref):
            np.testing.assert_array_equal(g, r)

    def test_unemitted_slots_are_dropped(self):
        ex = np.asarray([0.0, 9.0, 1.0, 2.0])
        ey = np.asarray([0.0, 9.0, 1.0, 2.0])
        ring = np.zeros(4, dtype=np.int64)
        emit = np.asarray([True, False, True, True])
        x, y, counts = compress_rings(ex, ey, ring, emit, 1, EPS)
        np.testing.assert_array_equal(counts, [3])
        np.testing.assert_array_equal(x, [0.0, 1.0, 2.0])

    def test_empty_ring_set(self):
        x, y, counts = compress_rings(
            np.zeros(0), np.zeros(0), np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=bool), 3, EPS,
        )
        assert x.size == 0 and y.size == 0
        np.testing.assert_array_equal(counts, [0, 0, 0])


# ----------------------------------------------------------------------
# Kernel thread pool: knob resolution and chunk-ordered reduction
# ----------------------------------------------------------------------
class TestKernelThreads:
    def test_default_is_available_cores(self, monkeypatch):
        monkeypatch.delenv(KERNEL_THREADS_ENV, raising=False)
        assert kernel_threads() >= 1

    def test_explicit_count(self, monkeypatch):
        monkeypatch.setenv(KERNEL_THREADS_ENV, " 3 ")
        assert kernel_threads() == 3

    @pytest.mark.parametrize("bad", ["0", "-2", "two", "1.5"])
    def test_invalid_values_rejected(self, bad, monkeypatch):
        monkeypatch.setenv(KERNEL_THREADS_ENV, bad)
        with pytest.raises(ValueError, match=KERNEL_THREADS_ENV):
            kernel_threads()

    @pytest.mark.parametrize("workers", [1, 2, 5])
    def test_run_chunk_tasks_preserves_submission_order(self, workers):
        results = run_chunk_tasks(
            [lambda i=i: i for i in range(20)], workers=workers
        )
        assert results == list(range(20))

    def test_split_ranges_cover_contiguously(self):
        for total in (1, 7, 100, 1001):
            for workers in (1, 2, 7):
                ranges = split_ranges(total, workers=workers)
                assert ranges[0][0] == 0 and ranges[-1][1] == total
                for (_, a_hi), (b_lo, _) in zip(ranges, ranges[1:]):
                    assert a_hi == b_lo
                assert len(ranges) <= workers

    def test_split_ranges_respects_min_per_worker(self):
        assert split_ranges(100, workers=8, min_per_worker=64) == [(0, 100)]
        assert len(split_ranges(100, workers=8, min_per_worker=25)) <= 4

    def test_split_ranges_empty(self):
        assert split_ranges(0, workers=4) == []

    def test_plan_chunks_worker_dimension_caps_chunk(self):
        # Budget would allow one giant chunk; workers=4 forces at least
        # four so the pool has something to overlap.
        chunks = list(plan_chunks(1000, bytes_per_item=8, budget=10**9, workers=4))
        assert len(chunks) == 4
        assert chunks[0] == (0, 250) and chunks[-1] == (750, 1000)
        serial = list(plan_chunks(1000, bytes_per_item=8, budget=10**9, workers=1))
        assert serial == [(0, 1000)]


# ----------------------------------------------------------------------
# plan_chunks edge cases
# ----------------------------------------------------------------------
class TestPlanChunksEdges:
    def test_single_giant_panel(self):
        # Budget big enough for everything: exactly one chunk.
        assert list(plan_chunks(10_000, bytes_per_item=8, budget=10_000 * 8)) == [
            (0, 10_000)
        ]

    def test_budget_below_one_item_degrades_to_singles(self):
        assert list(plan_chunks(3, bytes_per_item=1024, budget=8)) == [
            (0, 1),
            (1, 2),
            (2, 3),
        ]

    def test_zero_items_yields_nothing(self):
        assert list(plan_chunks(0, bytes_per_item=8, budget=1)) == []

    def test_negative_total_rejected(self):
        with pytest.raises(ValueError):
            list(plan_chunks(-1, bytes_per_item=8))


# ----------------------------------------------------------------------
# PieceAccumulator: owner-then-discovery order
# ----------------------------------------------------------------------
class TestPieceAccumulatorOrdering:
    def test_owner_then_discovery_order(self):
        acc = PieceAccumulator()
        # Iteration 1 finishes owners 2 and 0 (in that clip-output
        # order); iteration 2 finishes owner 1 with two pieces.
        acc.extend(
            np.asarray([0.0, 1.0, 2.0, 10.0, 11.0, 12.0]),
            np.asarray([0.5, 1.5, 2.5, 10.5, 11.5, 12.5]),
            np.asarray([3, 3]),
            np.asarray([2, 0]),
        )
        acc.extend(
            np.asarray([20.0, 21.0, 22.0, 30.0, 31.0, 32.0, 33.0]),
            np.asarray([20.5, 21.5, 22.5, 30.5, 31.5, 32.5, 33.5]),
            np.asarray([3, 4]),
            np.asarray([1, 1]),
        )
        vx, vy, piece_indptr, piece_owner, vert_indptr = acc.finalize(3)
        # Pieces grouped by ascending owner; owner 1's two pieces keep
        # their within-iteration discovery order.
        np.testing.assert_array_equal(piece_owner, [0, 1, 1, 2])
        np.testing.assert_array_equal(piece_indptr, [0, 3, 6, 10, 13])
        np.testing.assert_array_equal(vx[:3], [10.0, 11.0, 12.0])
        np.testing.assert_array_equal(vx[3:6], [20.0, 21.0, 22.0])
        np.testing.assert_array_equal(vx[6:10], [30.0, 31.0, 32.0, 33.0])
        np.testing.assert_array_equal(vx[10:], [0.0, 1.0, 2.0])
        np.testing.assert_array_equal(vert_indptr, [0, 3, 10, 13])
        assert vy[10] == 0.5

    def test_empty_finalize(self):
        vx, vy, piece_indptr, piece_owner, vert_indptr = (
            PieceAccumulator().finalize(4)
        )
        assert vx.size == 0 and vy.size == 0
        np.testing.assert_array_equal(piece_indptr, [0])
        assert piece_owner.size == 0
        np.testing.assert_array_equal(vert_indptr, [0, 0, 0, 0, 0])

    def test_empty_extend_is_noop(self):
        acc = PieceAccumulator()
        acc.extend(np.zeros(0), np.zeros(0), np.zeros(0, dtype=np.int64),
                   np.zeros(0, dtype=np.int64))
        _, _, piece_indptr, piece_owner, _ = acc.finalize(1)
        np.testing.assert_array_equal(piece_indptr, [0])
        assert piece_owner.size == 0

    def test_extend_csr_matches_extend(self, rng):
        # CSR-direct appends (all rows, and a row subset) must finalize
        # identically to the historic counts-based extend.
        counts = rng.integers(1, 6, size=12).astype(np.int64)
        indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
        total = int(counts.sum())
        vx = rng.uniform(-1.0, 1.0, size=total)
        vy = rng.uniform(-1.0, 1.0, size=total)
        owners = rng.integers(0, 5, size=12).astype(np.int64)
        rows = np.asarray([1, 4, 5, 9], dtype=np.int64)

        ref = PieceAccumulator()
        ref.extend(vx, vy, counts, owners)
        gidx = ragged_indices(indptr[:-1][rows], counts[rows])
        ref.extend(vx[gidx], vy[gidx], counts[rows], owners[rows])

        acc = PieceAccumulator()
        acc.extend_csr(vx, vy, indptr, owners)
        acc.extend_csr(vx, vy, indptr, owners, rows=rows)

        for r, a in zip(ref.finalize(5), acc.finalize(5)):
            np.testing.assert_array_equal(r, a)

    def test_extend_csr_empty_rows_is_noop(self):
        acc = PieceAccumulator()
        acc.extend_csr(
            np.zeros(3), np.zeros(3), np.asarray([0, 3], dtype=np.int64),
            np.zeros(1, dtype=np.int64), rows=np.zeros(0, dtype=np.int64),
        )
        _, _, piece_indptr, piece_owner, _ = acc.finalize(2)
        np.testing.assert_array_equal(piece_indptr, [0])
        assert piece_owner.size == 0


# ----------------------------------------------------------------------
# Ragged-index primitives backing the seams
# ----------------------------------------------------------------------
class TestRaggedPrimitives:
    def test_ragged_indices_matches_concatenated_aranges(self, rng):
        starts = rng.integers(0, 50, size=20).astype(np.int64)
        counts = rng.integers(0, 6, size=20).astype(np.int64)
        expected = np.concatenate(
            [np.arange(s, s + c) for s, c in zip(starts, counts)]
            or [np.zeros(0, dtype=np.int64)]
        )
        np.testing.assert_array_equal(ragged_indices(starts, counts), expected)

    def test_segment_ids_matches_repeat(self, rng):
        counts = rng.integers(0, 5, size=30).astype(np.int64)
        expected = np.repeat(np.arange(30), counts)
        np.testing.assert_array_equal(
            segment_ids(counts, int(counts.sum())), expected
        )
