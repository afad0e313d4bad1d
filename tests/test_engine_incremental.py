"""Incremental sparse rounds are exact: bitwise a fresh full recompute.

``SparseRoundEngine`` carries each round's geometry into the next and
re-clips only the *dirty* rows — nodes that moved, or whose stored
Lemma-1 radius ``rho`` holds a mover's old or new position.  The claim
is exactness, not approximation, so everything here compares with
``==``:

* the kernels the splice relies on are row-independent — a row subset
  through ``clip_cells_batch`` / ``mec_batch`` reproduces the same rows
  of the whole batch bit for bit, at any kernel thread count;
* every round of full deployments (k = 1..3, with and without
  obstacles, node kills, a checkpoint/restore and a mid-run
  ``result()``) equals a fresh engine built on the same network;
* the dirty test is inclusive at the ``rho`` boundary.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Simulation
from repro.core.config import LaacadConfig
from repro.engine.kernels import KERNEL_THREADS_ENV
from repro.engine.sparse import SparseRoundEngine
from repro.engine.sparse_kernels import _ring_areas, clip_cells_batch, mec_batch
from repro.network.neighbors import SpatialGrid
from repro.network.network import SensorNetwork
from repro.obs import trace
from repro.obs.metrics import REGISTRY, validate_exposition
from repro.regions.shapes import figure8_region_one, unit_square

_RECOMPUTED = REGISTRY.counter("repro_engine_rows_recomputed_total")
_REUSED = REGISTRY.counter("repro_engine_rows_reused_total")


@pytest.fixture(params=[1, 2], ids=lambda t: f"threads{t}")
def kernel_threads(request, monkeypatch):
    monkeypatch.setenv(KERNEL_THREADS_ENV, str(request.param))
    return request.param


def _network(region, count, seed):
    points = region.random_points(count, rng=np.random.default_rng(seed))
    return SensorNetwork(region, points, comm_range=0.3)


# ----------------------------------------------------------------------
# (a) Row independence of the kernels
# ----------------------------------------------------------------------
def _competitors(points, radius):
    """Nearest-first CSR competitor lists within ``radius`` (self excluded)."""
    grid = SpatialGrid(points, cell_size=radius / 2.0)
    cand, indptr = grid.query_radius_many(points, radius)
    owners = np.repeat(np.arange(points.shape[0]), np.diff(indptr))
    keep = cand != owners
    cand, owners = cand[keep], owners[keep]
    dist_sq = ((points[cand] - points[owners]) ** 2).sum(axis=1)
    order = np.lexsort((dist_sq, owners))
    counts = np.bincount(owners, minlength=points.shape[0])
    return cand[order], np.concatenate(([0], np.cumsum(counts))).astype(np.int64)


def _subset_csr(cand, indptr, rows):
    counts = np.diff(indptr)[rows]
    flat = np.concatenate([cand[indptr[r] : indptr[r + 1]] for r in rows])
    return flat, np.concatenate(([0], np.cumsum(counts))).astype(np.int64)


def _row_pieces(clip_out, row):
    vx, vy, piece_indptr, piece_owner = clip_out
    return [
        (vx[s:e].tobytes(), vy[s:e].tobytes())
        for s, e in (
            (piece_indptr[p], piece_indptr[p + 1])
            for p in np.nonzero(piece_owner == row)[0]
        )
    ]


def _vertex_csr(clip_out, count):
    _, _, piece_indptr, piece_owner = clip_out
    per_row = np.bincount(piece_owner, weights=np.diff(piece_indptr), minlength=count)
    return np.concatenate(([0], np.cumsum(per_row.astype(np.int64))))


class TestKernelRowIndependence:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_clip_and_mec_subsets_match_full_batch(self, k, kernel_threads):
        rng = np.random.default_rng(40 + k)
        points = rng.random((400, 2))
        cand, indptr = _competitors(points, 0.2)
        area = unit_square().convex_pieces()
        full = clip_cells_batch(
            points, points[cand, 0], points[cand, 1], indptr, area, k
        )
        rows = np.sort(rng.choice(400, size=70, replace=False))
        sub_cand, sub_indptr = _subset_csr(cand, indptr, rows)
        sub = clip_cells_batch(
            points[rows], points[sub_cand, 0], points[sub_cand, 1], sub_indptr, area, k
        )
        for j, row in enumerate(rows):
            assert _row_pieces(sub, j) == _row_pieces(full, row)

        vert_indptr = _vertex_csr(full, 400)
        cx, cy, radius = mec_batch(full[0], full[1], vert_indptr)
        sub_vert = _vertex_csr(sub, rows.size)
        scx, scy, sradius = mec_batch(sub[0], sub[1], sub_vert)
        assert scx.tobytes() == cx[rows].tobytes()
        assert scy.tobytes() == cy[rows].tobytes()
        assert sradius.tobytes() == radius[rows].tobytes()


# ----------------------------------------------------------------------
# (b) Whole deployments, round by round against a fresh engine
# ----------------------------------------------------------------------
def _capture_round(sim):
    """Step ``sim`` once; return the engine round the step consumed."""
    engine = sim.deployer.engine
    captured = []

    def spy():
        captured.append(type(engine).compute_round(engine))
        return captured[-1]

    engine.compute_round = spy
    try:
        sim.step()
    finally:
        del engine.compute_round
    return captured[0]


def _assert_same_round(got, want):
    assert got.centers == want.centers
    assert got.circumradii == want.circumradii
    assert got.ranges_from_position == want.ranges_from_position
    assert got.displacements == want.displacements
    assert list(got.regions) == list(want.regions)
    for node_id, region in want.regions.items():
        other = got.regions[node_id]
        assert other.site == region.site
        assert other.pieces == region.pieces
        assert other.competitors_used == region.competitors_used
        assert other.search_radius == region.search_radius


def _assert_same_state(engine, fresh):
    got, want = engine._state, fresh._state
    for a, b in zip(got.pieces, want.pieces):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert got.used.tobytes() == want.used.tobytes()
    assert got.search_radius.tobytes() == want.search_radius.tobytes()


def _assert_area_partition(engine, region, k):
    vx, vy, piece_indptr, _, _ = engine._state.pieces
    total = _ring_areas(vx, vy, np.diff(piece_indptr)).sum()
    assert abs(total - k * region.area) <= 1e-12 * k * region.area


def _deploy_checked(sim, schedule=None):
    """Run ``sim`` to the end, checking every round; returns spliced rounds."""
    schedule = schedule or {}
    spliced = 0
    while not sim.done:
        action = schedule.get(sim.state.rounds_executed)
        if action is not None:
            sim = action(sim) or sim
        fresh = SparseRoundEngine(sim.network, sim.config)
        want = fresh.compute_round()
        reused = _REUSED.value
        got = _capture_round(sim)
        _assert_same_round(got, want)
        _assert_same_state(sim.deployer.engine, fresh)
        if _REUSED.value > reused:
            spliced += 1
            _assert_area_partition(sim.deployer.engine, sim.network.region, sim.config.k)
    return sim, spliced


def _kill(sim):
    alive = [n.node_id for n in sim.network.alive_nodes()]
    sim.network.kill_node(alive[len(alive) // 2])


def _finalize_mid_run(sim):
    sim.result()


def _restore(sim):
    return Simulation.restore(sim.checkpoint())


REGIONS = {"square": unit_square, "obstacle": figure8_region_one}


class TestDeploymentsMatchFreshEngine:
    # N = 1800 puts the start radius on its grid-cell cap (2 cells < 5% of
    # the diameter iff N > 1600); three rounds there already splice.
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize(
        "region,count,max_rounds",
        [
            pytest.param("obstacle", 120, 25, id="obstacle"),
            pytest.param("square", 120, 25, id="square"),
            pytest.param("square", 1800, 3, id="square_n1800"),
        ],
    )
    def test_every_round_bitwise_equal(self, k, region, count, max_rounds):
        area = REGIONS[region]()
        sim = Simulation(
            network=_network(area, count, seed=k),
            config=LaacadConfig(
                k=k, engine="sparse", epsilon=0.01, max_rounds=max_rounds
            ),
        )
        sim, spliced = _deploy_checked(sim)
        assert sim.state.rounds_executed >= 3
        assert spliced >= 1
        # Final sensing ranges come from the (cached) engine regions.
        fresh = SparseRoundEngine(sim.network, sim.config).compute_regions()
        ranges = sim.result().sensing_ranges
        for node in sim.network.alive_nodes():
            assert ranges[node.node_id] == fresh[node.node_id].circumradius(node.position)

    @pytest.mark.parametrize("region", sorted(REGIONS))
    def test_kill_result_and_restore_mid_run(self, region):
        area = REGIONS[region]()
        sim = Simulation(
            network=_network(area, 150, seed=7),
            config=LaacadConfig(k=2, engine="sparse", epsilon=0.005, max_rounds=40),
        )
        schedule = {2: _kill, 3: _finalize_mid_run, 4: _restore, 6: _finalize_mid_run}
        sim, spliced = _deploy_checked(sim, schedule)
        assert sim.state.rounds_executed > 6
        assert spliced >= 1

    def test_nothing_moved_reuses_the_round(self):
        network = _network(unit_square(), 80, seed=3)
        engine = SparseRoundEngine(network, LaacadConfig(k=2, engine="sparse"))
        first = engine.compute_regions()
        recomputed = _RECOMPUTED.value
        again = engine.compute_round()
        assert _RECOMPUTED.value == recomputed
        assert again.regions is first
        _assert_same_round(
            again, SparseRoundEngine(network, LaacadConfig(k=2, engine="sparse")).compute_round()
        )


# ----------------------------------------------------------------------
# (c) The dirty rule at the rho boundary
# ----------------------------------------------------------------------
class TestDirtyBoundary:
    def _setup(self):
        network = _network(unit_square(), 200, seed=5)
        config = LaacadConfig(k=2, engine="sparse")
        engine = SparseRoundEngine(network, config)
        engine.compute_round()
        state = engine._state
        positions = state.positions
        # A node near the middle, and a mover far outside its disk.
        watcher = int(np.argmin(((positions - 0.5) ** 2).sum(axis=1)))
        mover = int(np.argmax(((positions - positions[watcher]) ** 2).sum(axis=1)))
        return network, config, engine, watcher, mover

    def _dirty_after_move(self, network, engine, mover, target):
        state = engine._state
        network.apply_moves({int(state.alive_ids[mover]): target}, clamp_to_region=False)
        positions = network.positions_array(alive_only=True)
        moved = np.nonzero((positions != state.positions).any(axis=1))[0]
        cell = network.region.diameter / np.sqrt(positions.shape[0])
        return engine._dirty_rows(state, positions, moved, cell)

    def test_mover_on_the_boundary_marks_the_neighbour_dirty(self):
        network, config, engine, watcher, mover = self._setup()
        state = engine._state
        rho = float(state.search_radius[watcher])
        x, y = state.positions[watcher]
        target = (float(x + rho), float(y))
        # On the boundary under the grid's own inclusive rule.
        assert (target[0] - x) ** 2 <= rho * rho + 1e-15
        dirty = self._dirty_after_move(network, engine, mover, target)
        assert watcher in dirty and mover in dirty
        # And the incremental round still equals a fresh engine.
        got = engine.compute_round()
        _assert_same_round(got, SparseRoundEngine(network, config).compute_round())

    def test_mover_just_outside_leaves_the_neighbour_clean(self):
        network, _, engine, watcher, mover = self._setup()
        state = engine._state
        rho = float(state.search_radius[watcher])
        x, y = state.positions[watcher]
        dirty = self._dirty_after_move(
            network, engine, mover, (float(x + rho * (1 + 1e-6)), float(y))
        )
        assert mover in dirty and watcher not in dirty


# ----------------------------------------------------------------------
# Health signals
# ----------------------------------------------------------------------
class TestHealthSignals:
    def test_row_counters_are_exported(self):
        sim = Simulation(
            network=_network(unit_square(), 120, seed=1),
            config=LaacadConfig(k=1, engine="sparse", epsilon=0.01, max_rounds=40),
        )
        recomputed, reused = _RECOMPUTED.value, _REUSED.value
        while not sim.done:
            sim.step()
        rounds = sim.state.rounds_executed
        grown_recomputed = _RECOMPUTED.value - recomputed
        grown_reused = _REUSED.value - reused
        assert grown_recomputed >= 120
        assert grown_reused > 0
        # Every round accounts for every alive row exactly once.
        assert grown_recomputed + grown_reused == 120 * rounds
        families = validate_exposition(REGISTRY.exposition())
        assert families["repro_engine_rows_recomputed_total"] == "counter"
        assert families["repro_engine_rows_reused_total"] == "counter"

    def test_round_span_explains_its_cost(self):
        trace.stop_tracing()
        sim = Simulation(
            network=_network(unit_square(), 120, seed=1),
            config=LaacadConfig(k=1, engine="sparse", epsilon=0.01, max_rounds=40),
        )
        with trace.tracing() as collector:
            while not sim.done:
                sim.step()
        rounds = [row for row in collector.rows() if row["name"] == "round"]
        assert len(rounds) == sim.state.rounds_executed
        assert rounds[0]["args"]["dirty_rows"] == 120
        for row in rounds:
            assert 0 <= row["args"]["dirty_rows"] <= 120
            assert 0 <= row["args"]["moved"] <= row["args"]["dirty_rows"]
        assert any(row["args"]["dirty_rows"] < 120 for row in rounds)
