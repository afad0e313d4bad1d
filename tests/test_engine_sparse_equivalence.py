"""Equivalence suite for the sparse engine tier.

The sparse backends (``repro.engine.sparse.SparseRoundEngine`` and
``repro.runtime.sparse.SparseDistributedEngine``) promise a *tolerance*
contract against their references — the centralized ``batched`` engine
and the message-level ``legacy`` agents: positions, ranges and areas
within 1e-9, identical convergence round counts and killed-node lists
(see DESIGN.md "Sparse engine tier").  Lossy distributed runs are the
sharp edge: the sparse gather must consume the scheduler RNG
draw-for-draw in the legacy order, so communication counters are
compared *exactly* there.  Loss-free distributed runs are also checked
against the centralized deployer's trajectory — the paper's claim that
with a reliable channel the protocol executes Algorithm 1.

The suite also pins the foundation the tier is built on:
``SpatialGrid.query_radius_many`` must agree with per-call
``query_radius`` exactly — same indices, same order — because the
distributed RNG draw-order contract rides on that ordering.
"""

import dataclasses
import math

import numpy as np
import pytest

from repro.api import Simulation, deploy
from repro.core.config import LaacadConfig
from repro.engine import available_engines, make_engine
from repro.engine.kernels import (
    DENSE_MATRIX_BYTES_ENV,
    KERNEL_THREADS_ENV,
    pairwise_distance_matrix,
    plan_chunks,
)
from repro.engine.jit_kernels import segment_ids
from repro.engine import sparse as sparse_engine
from repro.engine.sparse import _WHOLE_NETWORK_MAX, SparseRoundEngine
from repro.network.neighbors import SpatialGrid
from repro.network.network import SensorNetwork
from repro.regions.shapes import (
    figure8_region_one,
    figure8_region_two,
    l_shaped_region,
    unit_square,
)
from repro.runtime.engines import (
    LegacyDistributedEngine,
    available_distributed_engines,
    make_distributed_engine,
)
from repro.runtime.failures import FailureInjector
from repro.runtime.protocol import LaacadAgent
from repro.runtime.scheduler import SynchronousScheduler
from repro.obs import metrics
from repro.runtime.sparse import (
    _GATHER_CHUNK,
    SparseDistributedEngine,
    _circle_containment,
    arc_closer_counts,
)

TOL = 1e-9


@pytest.fixture(params=[1, 2, 7], ids=lambda t: f"threads{t}")
def kernel_thread_count(request, monkeypatch):
    """Sweep the kernel worker knob: equivalence must hold at any count.

    The chunk-ordered reduction contract (DESIGN.md "Kernel tiers")
    promises that ``REPRO_KERNEL_THREADS`` is bitwise invisible, so the
    tolerance results pinned by this suite cannot depend on it either.
    """
    monkeypatch.setenv(KERNEL_THREADS_ENV, str(request.param))
    return request.param


# ----------------------------------------------------------------------
# SpatialGrid batched queries: the candidate-pair foundation
# ----------------------------------------------------------------------
class TestQueryRadiusMany:
    def _random_grid(self, seed, count, cell_size):
        rng = np.random.default_rng(seed)
        points = rng.random((count, 2)) * [2.0, 1.3] - [0.4, 0.1]
        return SpatialGrid(points, cell_size=cell_size), points

    @pytest.mark.parametrize("seed", [0, 3, 11])
    @pytest.mark.parametrize("cell_size", [0.05, 0.21, 0.9])
    def test_matches_per_call_query_exactly(self, seed, cell_size):
        # Indices AND order: the distributed RNG draw-order contract
        # consumes ring members in query_radius's scan order.
        grid, points = self._random_grid(seed, 160, cell_size)
        rng = np.random.default_rng(seed + 1)
        centers = rng.random((40, 2)) * [2.4, 1.6] - [0.6, 0.3]
        radius = 0.27
        indices, indptr = grid.query_radius_many(centers, radius)
        assert indptr.shape == (centers.shape[0] + 1,)
        assert indptr[0] == 0 and indptr[-1] == indices.shape[0]
        for i, center in enumerate(centers):
            expected = grid.query_radius((center[0], center[1]), radius)
            got = indices[indptr[i] : indptr[i + 1]].tolist()
            assert got == expected

    def test_per_center_radii(self):
        grid, points = self._random_grid(7, 120, 0.1)
        rng = np.random.default_rng(8)
        centers = rng.random((30, 2))
        radii = rng.random(30) * 0.5
        indices, indptr = grid.query_radius_many(centers, radii)
        for i, (center, radius) in enumerate(zip(centers, radii)):
            expected = grid.query_radius((center[0], center[1]), float(radius))
            assert indices[indptr[i] : indptr[i + 1]].tolist() == expected

    def test_matches_brute_force_membership(self):
        grid, points = self._random_grid(5, 200, 0.13)
        rng = np.random.default_rng(6)
        centers = rng.random((25, 2))
        radius = 0.19
        indices, indptr = grid.query_radius_many(centers, radius)
        for i, center in enumerate(centers):
            dx = points[:, 0] - center[0]
            dy = points[:, 1] - center[1]
            inside = np.nonzero(dx * dx + dy * dy <= radius**2 + 1e-15)[0]
            got = indices[indptr[i] : indptr[i + 1]]
            assert set(got.tolist()) == set(inside.tolist())

    def test_contract_order_is_cell_major(self):
        # Ascending (cell_x, cell_y, index) with cell = floor(p / cell_size).
        grid, points = self._random_grid(9, 150, 0.22)
        indices, indptr = grid.query_radius_many(np.array([[0.5, 0.5]]), 0.45)
        got = indices[indptr[0] : indptr[1]]
        keys = [
            (math.floor(points[i, 0] / 0.22), math.floor(points[i, 1] / 0.22), i)
            for i in got.tolist()
        ]
        assert keys == sorted(keys)

    def test_degenerate_inputs(self):
        grid = SpatialGrid([], cell_size=0.1)
        indices, indptr = grid.query_radius_many(np.array([[0.0, 0.0]]), 1.0)
        assert indices.size == 0 and indptr.tolist() == [0, 0]

        grid, _ = self._random_grid(2, 50, 0.1)
        indices, indptr = grid.query_radius_many(np.zeros((0, 2)), 1.0)
        assert indices.size == 0 and indptr.tolist() == [0]

        # Zero radius only picks up exactly co-located points.
        pts = [(0.25, 0.25), (0.75, 0.75)]
        grid = SpatialGrid(pts, cell_size=0.5)
        indices, indptr = grid.query_radius_many(np.asarray(pts), 0.0)
        assert indices.tolist() == [0, 1]
        assert indptr.tolist() == [0, 1, 2]

        with pytest.raises(ValueError, match="radius"):
            grid.query_radius_many(np.asarray(pts), -0.5)

    def test_radius_far_beyond_extent(self):
        grid, points = self._random_grid(4, 80, 0.07)
        indices, indptr = grid.query_radius_many(np.array([[0.5, 0.5]]), 50.0)
        assert indptr[1] == points.shape[0]


# ----------------------------------------------------------------------
# Chunk planning and the dense-matrix memory guard
# ----------------------------------------------------------------------
class TestChunkedKernelPlumbing:
    def test_plan_chunks_covers_everything_within_budget(self):
        slices = list(plan_chunks(1000, bytes_per_item=64, budget=6400))
        assert slices[0][0] == 0 and slices[-1][1] == 1000
        for (start, stop), (next_start, _) in zip(slices, slices[1:]):
            assert stop == next_start
        assert all(stop - start <= 100 for start, stop in slices)

    def test_plan_chunks_degrades_to_single_items(self):
        # A per-item footprint above the budget must not fail.
        assert list(plan_chunks(3, bytes_per_item=100, budget=10)) == [
            (0, 1),
            (1, 2),
            (2, 3),
        ]
        assert list(plan_chunks(0, bytes_per_item=8)) == []
        with pytest.raises(ValueError):
            list(plan_chunks(5, bytes_per_item=0))

    def test_memory_guard_suggests_sparse_engine(self, monkeypatch):
        monkeypatch.setenv(DENSE_MATRIX_BYTES_ENV, str(1 << 10))
        points = np.random.default_rng(0).random((64, 2))
        with pytest.raises(MemoryError, match='engine="sparse"'):
            pairwise_distance_matrix(points)
        with pytest.raises(MemoryError, match="REPRO_DENSE_MATRIX_BYTES"):
            pairwise_distance_matrix(points)

    def test_guard_leaves_small_inputs_alone(self, monkeypatch):
        monkeypatch.setenv(DENSE_MATRIX_BYTES_ENV, str(1 << 20))
        points = np.random.default_rng(0).random((40, 2))
        dist = pairwise_distance_matrix(points)
        assert dist.shape == (40, 40)


# ----------------------------------------------------------------------
# Centralized: sparse vs batched within tolerance
# ----------------------------------------------------------------------
def _centralized_round(engine_name, seed, count=60, k=2, region=None):
    region = region if region is not None else unit_square()
    network = SensorNetwork(
        region,
        region.random_points(count, rng=np.random.default_rng(seed)),
        comm_range=0.3,
    )
    engine = make_engine(
        engine_name, network, LaacadConfig(k=k, engine=engine_name)
    )
    return engine.compute_round()


class TestCentralizedSparseEquivalence:
    @pytest.mark.parametrize("seed", [1, 12])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_round_summary_matches_batched(self, seed, k, kernel_thread_count):
        batched = _centralized_round("batched", seed, k=k)
        sparse = _centralized_round("sparse", seed, k=k)
        assert set(sparse.centers) == set(batched.centers)
        for node_id, center in batched.centers.items():
            other = sparse.centers[node_id]
            assert math.dist(center, other) <= TOL
        for a, b in zip(batched.circumradii, sparse.circumradii):
            assert abs(a - b) <= TOL
        for a, b in zip(batched.ranges_from_position, sparse.ranges_from_position):
            assert abs(a - b) <= TOL
        for a, b in zip(batched.displacements, sparse.displacements):
            assert abs(a - b) <= TOL

    @pytest.mark.parametrize(
        "region_factory", [l_shaped_region, figure8_region_two]
    )
    def test_obstacle_regions(self, region_factory):
        batched = _centralized_round("batched", 5, count=40, region=region_factory())
        sparse = _centralized_round("sparse", 5, count=40, region=region_factory())
        for node_id, center in batched.centers.items():
            assert math.dist(center, sparse.centers[node_id]) <= TOL
        areas_b = {nid: r.area for nid, r in batched.regions.items()}
        areas_s = {nid: r.area for nid, r in sparse.regions.items()}
        assert areas_b.keys() == areas_s.keys()
        for node_id, area in areas_b.items():
            assert abs(area - areas_s[node_id]) <= TOL

    # N = 30 takes the whole-network clip, N = 1800 the Lemma-1
    # search; the larger run's epsilon lets it converge in a few rounds.
    @pytest.mark.parametrize(
        "count,epsilon", [(30, 2e-3), (1800, 1e-2)], ids=["n30", "n1800"]
    )
    def test_full_deployment_same_convergence(self, count, epsilon):
        region = unit_square()
        positions = region.random_points(count, rng=np.random.default_rng(21))

        def run(engine_name):
            network = SensorNetwork(region, positions, comm_range=0.3)
            config = LaacadConfig(
                k=2, epsilon=epsilon, max_rounds=15, engine=engine_name
            )
            return Simulation(network=network, config=config).run()

        batched = run("batched")
        sparse = run("sparse")
        assert sparse.rounds_executed == batched.rounds_executed
        assert sparse.converged == batched.converged
        for a, b in zip(batched.final_positions, sparse.final_positions):
            assert math.dist(a, b) <= TOL
        for a, b in zip(batched.sensing_ranges, sparse.sensing_ranges):
            assert abs(a - b) <= TOL


# ----------------------------------------------------------------------
# Centralized: the whole-network clip is bitwise the Lemma-1 search
# ----------------------------------------------------------------------
def _sparse_path_run(monkeypatch, region, count, k, whole_network):
    """First-round regions and a short deployment on one sparse path.

    The deployment needs ``count >= k`` nodes; below that only the
    regions are computed (and the run is ``None``).
    """
    monkeypatch.setattr(
        sparse_engine, "_WHOLE_NETWORK_MAX", 10**9 if whole_network else 1
    )
    positions = region.random_points(count, rng=np.random.default_rng(count + k))
    config = LaacadConfig(k=k, max_rounds=6, engine="sparse")
    regions = make_engine(
        "sparse", SensorNetwork(region, positions, comm_range=0.3), config
    ).compute_regions()
    if count < k:
        return regions, None
    network = SensorNetwork(region, positions, comm_range=0.3)
    return regions, Simulation(network=network, config=config).run()


class TestWholeNetworkPath:
    """Below ``_WHOLE_NETWORK_MAX`` nodes the sparse engine clips every
    node against all N-1 competitors in one call.  The clip never reads
    a competitor past its region's freeze distance, so the pieces — and
    so every deployment — are bitwise the Lemma-1 search's.  Only what
    the region records of the search differs."""

    @pytest.mark.parametrize(
        "size", ["2", "k+1", "40", "max", "max+1"]
    )
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize(
        "region_factory", [unit_square, figure8_region_one], ids=["square", "obstacle"]
    )
    def test_bitwise_equal_to_lemma1(self, monkeypatch, region_factory, k, size):
        count = {
            "2": 2, "k+1": k + 1, "40": 40,
            "max": _WHOLE_NETWORK_MAX, "max+1": _WHOLE_NETWORK_MAX + 1,
        }[size]
        region = region_factory()
        whole_regions, whole = _sparse_path_run(monkeypatch, region, count, k, True)
        lemma_regions, lemma = _sparse_path_run(monkeypatch, region, count, k, False)

        assert whole_regions.keys() == lemma_regions.keys()
        for node_id, region_w in whole_regions.items():
            region_l = lemma_regions[node_id]
            assert region_w.site == region_l.site
            assert region_w.pieces == region_l.pieces
            assert region_w.competitors_used == count - 1
            assert region_w.search_radius == math.inf
            assert region_l.search_radius < math.inf
        if whole is None:
            return
        assert whole.final_positions == lemma.final_positions
        assert whole.sensing_ranges == lemma.sensing_ranges
        assert whole.rounds_executed == lemma.rounds_executed
        assert whole.converged == lemma.converged
        assert [dataclasses.asdict(s) for s in whole.history] == [
            dataclasses.asdict(s) for s in lemma.history
        ]


# ----------------------------------------------------------------------
# Distributed: sparse vs the legacy agents across the loss model
# ----------------------------------------------------------------------
def _run_distributed(
    engine,
    seed,
    drop_probability=0.0,
    failures=None,
    region=None,
    count=14,
    comm_range=0.3,
    **config_kwargs,
):
    region = region if region is not None else unit_square()
    network = SensorNetwork.from_random(
        region, count, comm_range=comm_range, rng=np.random.default_rng(seed)
    )
    config_kwargs.setdefault("k", 2)
    config_kwargs.setdefault("epsilon", 2e-3)
    config_kwargs.setdefault("max_rounds", 12)
    config = LaacadConfig(engine=engine, **config_kwargs)
    injector = (
        FailureInjector(
            scheduled=dict(failures.get("scheduled", {})),
            random_failure_rate=failures.get("random_failure_rate", 0.0),
            rng=np.random.default_rng(failures.get("seed", 0)),
        )
        if failures
        else None
    )
    return Simulation(
        network=network,
        config=config,
        kind="distributed",
        drop_probability=drop_probability,
        failure_injector=injector,
    ).run()


def _assert_equivalent(legacy, sparse):
    """The sparse tolerance contract against a legacy reference run."""
    assert sparse.rounds_executed == legacy.rounds_executed
    assert sparse.converged == legacy.converged
    assert sparse.killed_nodes == legacy.killed_nodes
    for a, b in zip(legacy.final_positions, sparse.final_positions):
        assert math.dist(a, b) <= TOL
    for a, b in zip(legacy.sensing_ranges, sparse.sensing_ranges):
        assert abs(a - b) <= TOL
    # The RNG draw-order contract makes message accounting exact, both
    # loss-free (no draws at all) and lossy (draw-for-draw identical).
    assert sparse.communication == legacy.communication
    assert len(sparse.history) == len(legacy.history)
    for stats_a, stats_b in zip(legacy.history, sparse.history):
        a = dataclasses.asdict(stats_a)
        b = dataclasses.asdict(stats_b)
        assert a["messages"] == b["messages"]
        assert a["transmissions"] == b["transmissions"]
        assert a["bytes_sent"] == b["bytes_sent"]


class TestDistributedSparseEquivalence:
    @pytest.mark.parametrize("seed", [1, 7, 23])
    @pytest.mark.parametrize("drop_probability", [0.0, 0.02, 0.15])
    def test_loss_rates_and_seeds(self, seed, drop_probability, kernel_thread_count):
        legacy = _run_distributed(
            "legacy", seed, drop_probability=drop_probability
        )
        sparse = _run_distributed(
            "sparse", seed, drop_probability=drop_probability
        )
        if drop_probability:
            assert sparse.communication.dropped > 0
        else:
            assert sparse.communication.dropped == 0
        _assert_equivalent(legacy, sparse)

    @pytest.mark.parametrize("drop_probability", [0.0, 0.1])
    def test_failure_injection(self, drop_probability):
        failures = {"scheduled": {3: [0, 1], 6: [5]}, "seed": 4}
        legacy = _run_distributed(
            "legacy", 9, drop_probability=drop_probability, failures=failures
        )
        sparse = _run_distributed(
            "sparse", 9, drop_probability=drop_probability, failures=failures
        )
        assert sparse.killed_nodes == [0, 1, 5]
        _assert_equivalent(legacy, sparse)

    @pytest.mark.parametrize("drop_probability", [0.0, 0.05])
    def test_random_failures(self, drop_probability):
        failures = {"random_failure_rate": 0.01, "seed": 2}
        legacy = _run_distributed(
            "legacy", 13, drop_probability=drop_probability, failures=failures
        )
        sparse = _run_distributed(
            "sparse", 13, drop_probability=drop_probability, failures=failures
        )
        _assert_equivalent(legacy, sparse)

    @pytest.mark.parametrize("drop_probability", [0.0, 0.08])
    @pytest.mark.parametrize(
        "region_factory", [l_shaped_region, figure8_region_two]
    )
    def test_obstacle_regions(self, region_factory, drop_probability):
        # Holes exercise the containment kernel's hole branch and the
        # circle check near obstacle boundaries.
        legacy = _run_distributed(
            "legacy", 3, drop_probability=drop_probability,
            region=region_factory(), count=18,
        )
        sparse = _run_distributed(
            "sparse", 3, drop_probability=drop_probability,
            region=region_factory(), count=18,
        )
        _assert_equivalent(legacy, sparse)

    @pytest.mark.parametrize("k", [1, 3])
    def test_coverage_orders(self, k):
        legacy = _run_distributed("legacy", 31 + k, drop_probability=0.05, k=k)
        sparse = _run_distributed("sparse", 31 + k, drop_probability=0.05, k=k)
        _assert_equivalent(legacy, sparse)

    @pytest.mark.parametrize("drop_probability", [0.0, 0.1])
    def test_fractional_alpha_and_round_cap(self, drop_probability):
        # A run that hits the round cap exercises the result() refresh
        # round, which also consumes loss draws — in both backends.
        legacy = _run_distributed(
            "legacy", 17, drop_probability=drop_probability, alpha=0.5, max_rounds=4
        )
        sparse = _run_distributed(
            "sparse", 17, drop_probability=drop_probability, alpha=0.5, max_rounds=4
        )
        assert not sparse.converged
        _assert_equivalent(legacy, sparse)


class TestCentralizedAgreement:
    """Loss-free distributed == centralized trajectory (both backends)."""

    @pytest.mark.parametrize("engine", ["legacy", "sparse"])
    def test_matches_centralized_deployer(self, engine):
        region = unit_square()
        positions = region.random_points(14, rng=np.random.default_rng(8))
        config = LaacadConfig(k=2, alpha=1.0, epsilon=2e-3, max_rounds=30)

        central = deploy(region, positions, config, comm_range=0.35)

        network = SensorNetwork(region, positions, comm_range=0.35)
        distributed = Simulation(
            network=network,
            config=config.with_engine(engine),
            kind="distributed",
        ).run()

        assert distributed.rounds_executed == central.rounds_executed
        assert distributed.max_sensing_range == pytest.approx(
            central.max_sensing_range, rel=1e-6
        )
        for a, b in zip(central.final_positions, distributed.final_positions):
            assert math.dist(a, b) < 1e-6


class TestChunkedLossyGather:
    """The lossy gather batches per chunk of nodes; the draws stay exact."""

    def test_multi_chunk_run_with_fallback_is_draw_exact(self, monkeypatch):
        # Small gamma: a 4-ring horizon holds few nodes, so some walks
        # outgrow it and take the per-node ``extend`` fallback.
        fallback_queries = []
        query_radius = SpatialGrid.query_radius

        def counting_query_radius(grid, center, radius):
            fallback_queries.append(radius)
            return query_radius(grid, center, radius)

        monkeypatch.setattr(SpatialGrid, "query_radius", counting_query_radius)

        def run(engine):
            network = SensorNetwork.from_random(
                figure8_region_two(),
                600,
                comm_range=0.03,
                rng=np.random.default_rng(5),
            )
            sim = Simulation(
                network=network,
                config=LaacadConfig(
                    engine=engine, k=2, epsilon=2e-3, max_rounds=3
                ),
                kind="distributed",
                drop_probability=0.1,
            )
            return sim, sim.run()

        legacy_sim, legacy = run("legacy")
        # The legacy agents query the grid per ring; only the sparse
        # engine's replay fallback is counted below.
        del fallback_queries[:]
        sparse_sim, sparse = run("sparse")
        assert len(sparse_sim.network.alive_nodes()) > 2 * _GATHER_CHUNK
        assert fallback_queries
        assert sparse.rounds_executed == legacy.rounds_executed == 3
        assert sparse.communication.dropped > 0
        _assert_equivalent(legacy, sparse)
        assert dataclasses.asdict(sparse_sim.deployer.scheduler.stats) == (
            dataclasses.asdict(legacy_sim.deployer.scheduler.stats)
        )
        assert (
            sparse_sim.deployer.scheduler._rng.bit_generator.state
            == legacy_sim.deployer.scheduler._rng.bit_generator.state
        )


def _circle_tables(samples):
    """The circle-check direction tables, built like the engines' own."""
    angles = [2.0 * math.pi * i / samples for i in range(samples)]
    return (
        np.asarray([math.cos(a) for a in angles]),
        np.asarray([math.sin(a) for a in angles]),
    )


def _panel_closer(sx, sy, owner, cx, cy, radius, cos_table, sin_table):
    """Brute force: the walk's ``(pairs × samples)`` closer panel."""
    vx = sx[owner][:, None] + radius * cos_table[None, :]
    vy = sy[owner][:, None] + radius * sin_table[None, :]
    own_distance = np.hypot(sx[owner][:, None] - vx, sy[owner][:, None] - vy)
    return np.hypot(cx[:, None] - vx, cy[:, None] - vy) < own_distance - 1e-12


class TestArcCloserCounts:
    """Angular-interval counts equal the walk's hypot panel elementwise."""

    @staticmethod
    def _placements(kind, rng, radius, cos_table, sin_table, pairs=240):
        sx = rng.random(pairs)
        sy = rng.random(pairs)
        if kind == "uniform":
            d = rng.uniform(0.0, 2.5 * radius, pairs)
            bearing = rng.uniform(-math.pi, math.pi, pairs)
            return sx, sy, sx + d * np.cos(bearing), sy + d * np.sin(bearing)
        if kind == "rays":
            # On a sample's ray at exactly r, r*sqrt(2) and 2r: the
            # candidate sits on the circle, at a diagonal and tangent.
            j = rng.integers(0, cos_table.shape[0], pairs)
            scale = rng.choice([1.0, math.sqrt(2.0), 2.0], pairs) * radius
            return sx, sy, sx + scale * cos_table[j], sy + scale * sin_table[j]
        if kind == "coincident":
            offsets = np.asarray([0.0, 1e-13, -1e-13, 1e-9, 1e-12])
            return (
                sx,
                sy,
                sx + rng.choice(offsets, pairs),
                sy + rng.choice(offsets, pairs),
            )
        # Lattice: sites and candidates on a grid commensurate with r.
        spacing = radius * rng.choice([0.25, 0.5, 1.0])
        sx = np.round(sx / spacing) * spacing
        sy = np.round(sy / spacing) * spacing
        steps = rng.integers(-4, 5, (pairs, 2))
        return sx, sy, sx + steps[:, 0] * spacing, sy + steps[:, 1] * spacing

    @pytest.mark.parametrize("samples", [8, 72, 73])
    @pytest.mark.parametrize("kind", ["uniform", "rays", "coincident", "lattice"])
    def test_one_pair_per_site_matches_panel(self, samples, kind):
        cos_table, sin_table = _circle_tables(samples)
        rng = np.random.default_rng(samples * 31 + len(kind))
        for radius in rng.uniform(0.005, 0.1, 12).tolist() + [0.005, 0.1]:
            sx, sy, cx, cy = self._placements(kind, rng, radius, cos_table, sin_table)
            owner = np.arange(sx.shape[0])
            counts = arc_closer_counts(
                sx, sy, owner, cx, cy, radius, cos_table, sin_table
            )
            panel = _panel_closer(sx, sy, owner, cx, cy, radius, cos_table, sin_table)
            assert np.count_nonzero(counts != panel) == 0

    @pytest.mark.parametrize("samples", [8, 72, 73])
    def test_many_pairs_per_site_matches_panel(self, samples):
        cos_table, sin_table = _circle_tables(samples)
        rng = np.random.default_rng(samples)
        sites = 16
        for kind in ("uniform", "rays", "coincident", "lattice"):
            radius = float(rng.uniform(0.005, 0.1))
            sx, sy, cx, cy = self._placements(kind, rng, radius, cos_table, sin_table)
            owner = rng.integers(0, sites, sx.shape[0])
            # Candidates stay where the placement put them relative to
            # their pair's first site, now shared by many pairs.
            site_x, site_y = sx[:sites], sy[:sites]
            cx = cx - sx + site_x[owner]
            cy = cy - sy + site_y[owner]
            counts = arc_closer_counts(
                site_x, site_y, owner, cx, cy, radius, cos_table, sin_table
            )
            expected = np.zeros((sites, samples), dtype=np.int64)
            np.add.at(
                expected,
                owner,
                _panel_closer(
                    site_x, site_y, owner, cx, cy, radius, cos_table, sin_table
                ),
            )
            assert np.count_nonzero(counts != expected) == 0

    def test_no_pairs(self):
        cos_table, sin_table = _circle_tables(72)
        empty = np.zeros(0)
        counts = arc_closer_counts(
            np.zeros(3), np.zeros(3), np.zeros(0, dtype=np.int64),
            empty, empty, 0.05, cos_table, sin_table,
        )
        assert counts.shape == (3, 72) and not counts.any()


def _count_calls(monkeypatch, cls, name="_circle_dominated"):
    """Count the calls of ``cls.name`` (still executing it)."""
    calls = []
    original = getattr(cls, name)

    def counting(self, *args, **kwargs):
        calls.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, counting)
    return calls


class TestLossyCircleChecks:
    """Every circle check the walk makes is counted under one path."""

    def test_labelled_counts_sum_to_the_walks_checks(self, monkeypatch):
        agent_checks = _count_calls(monkeypatch, LaacadAgent)
        replay_checks = _count_calls(monkeypatch, SparseDistributedEngine)
        checks = metrics.counter(
            "repro_lossy_circle_checks_total", labelnames=("path",)
        )
        paths = ("vacuous", "open", "slack", "exact", "replay")
        before = {path: checks.labels(path).value for path in paths}
        legacy = _run_distributed(
            "legacy", 11, drop_probability=0.5, count=40, comm_range=0.2
        )
        sparse = _run_distributed(
            "sparse", 11, drop_probability=0.5, count=40, comm_range=0.2
        )
        delta = {path: checks.labels(path).value - before[path] for path in paths}
        _assert_equivalent(legacy, sparse)
        assert sum(delta.values()) == len(agent_checks)
        # Only replayed walks still call the per-node check.
        assert delta["replay"] == len(replay_checks) > 0
        assert delta["exact"] > 0 and delta["open"] > 0 and delta["slack"] > 0

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_loss_free_multi_chunk_checks_match_legacy(self, monkeypatch, k):
        # Over three 64-row arc chunks, on a region with holes: every
        # loss-free decision is the walk's own closer test, so the
        # delivered sets — hence the counters — are exact.
        replay_checks = _count_calls(monkeypatch, SparseDistributedEngine)
        legacy = _run_distributed(
            "legacy", 19, region=figure8_region_two(), count=200,
            comm_range=0.12, k=k, max_rounds=2,
        )
        sparse = _run_distributed(
            "sparse", 19, region=figure8_region_two(), count=200,
            comm_range=0.12, k=k, max_rounds=2,
        )
        assert len(sparse.final_positions) > 3 * _GATHER_CHUNK
        assert sparse.communication.dropped == 0
        assert not replay_checks
        _assert_equivalent(legacy, sparse)


class TestLossFreeCircleCheck:
    """The chunked arc check equals the walk's per-node check, node by node."""

    @staticmethod
    def _sites(kind, region, rng):
        if kind == "uniform":
            return region.random_points(150, rng=rng)
        # A lattice commensurate with the radii: samples land exactly on
        # bisectors and on other sites.
        spacing = 1.0 / 16.0
        return [
            (spacing * (i + 0.5), spacing * (j + 0.5))
            for i in range(16)
            for j in range(16)
            if region.contains((spacing * (i + 0.5), spacing * (j + 0.5)))
        ]

    @pytest.mark.parametrize("kind", ["uniform", "lattice"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize(
        "region_factory", [unit_square, l_shaped_region, figure8_region_two]
    )
    def test_matches_per_node_check(self, region_factory, k, kind):
        region = region_factory()
        rng = np.random.default_rng(k)
        sites = self._sites(kind, region, rng)
        positions = np.asarray(sites)
        engine = SparseDistributedEngine(
            SensorNetwork(region, sites, comm_range=0.1),
            LaacadConfig(k=k),
            SynchronousScheduler(),
        )
        grid = SpatialGrid(positions, cell_size=0.1)
        verdicts = []
        for radius in (1.0 / 32.0, 1.0 / 16.0, 0.1):
            cand, indptr = grid.query_radius_many(positions, 2.0 * radius)
            owner = segment_ids(np.diff(indptr), cand.shape[0])
            # Drop self and a random fifth of the rest, so both verdicts
            # occur at every radius.
            keep = (cand != owner) & (rng.random(cand.shape[0]) < 0.8)
            cand, owner = cand[keep], owner[keep]
            dominated = engine._lossfree_dominated(
                positions[:, 0], positions[:, 1], owner,
                positions[cand, 0], positions[cand, 1], radius,
            )
            for i, site in enumerate(sites):
                expected = engine._circle_dominated(
                    site, radius, positions[cand[owner == i]]
                )
                assert dominated[i] == expected
            verdicts.extend(dominated.tolist())
        assert len(sites) > 2 * _GATHER_CHUNK
        assert any(verdicts) and not all(verdicts)


class TestCircleContainmentBatch:
    """One containment call equals the walk's per-node calls exactly."""

    @staticmethod
    def _edge_sites(region_factory):
        if region_factory is l_shaped_region:
            # Axis samples (cos/sin exactly 0 or +-1 up to 1e-16) land
            # exactly on the outer edges and on the reflex vertex.
            return [
                (0.25, 0.25), (0.75, 0.25), (0.25, 0.75), (0.75, 0.75),
                (0.5, 0.25), (0.25, 0.5), (0.0, 0.0), (1.0, 0.5),
            ]
        # Around and inside the hole [0.4, 0.6]^2 of region I.
        return [
            (0.5, 0.5), (0.3, 0.5), (0.5, 0.3), (0.7, 0.7),
            (0.4, 0.4), (0.6, 0.5), (0.25, 0.25), (0.75, 0.5),
        ]

    @pytest.mark.parametrize(
        "region_factory", [l_shaped_region, figure8_region_one]
    )
    def test_matches_per_node_calls_elementwise(self, region_factory):
        region = region_factory()
        sites = self._edge_sites(region_factory) + [
            tuple(p) for p in np.random.default_rng(3).random((24, 2)).tolist()
        ]
        network = SensorNetwork(region, sites, comm_range=0.1)
        engine = SparseDistributedEngine(
            network, LaacadConfig(k=2), SynchronousScheduler()
        )
        radii = np.asarray([0.05, 0.1, 0.125, 0.25, 0.5])
        positions = np.asarray(sites)
        batch = _circle_containment(
            engine._containment, positions[:, 0], positions[:, 1], radii,
            engine._circle_cos, engine._circle_sin,
        )
        assert batch.shape == (len(sites), radii.shape[0], 72)
        for i, site in enumerate(sites):
            for level, radius in enumerate(radii.tolist()):
                expected = engine._containment.contains(
                    site[0] + radius * engine._circle_cos,
                    site[1] + radius * engine._circle_sin,
                )
                assert np.array_equal(batch[i, level], expected)
        # Exactly-on-edge samples: the outer boundary counts as inside,
        # a hole's boundary as free; (site, radius index, sample index).
        if region_factory is l_shaped_region:
            pinned = {
                ((0.25, 0.25), 3, 36): True,  # (0, 0.25) on x = 0
                ((0.25, 0.25), 3, 54): True,  # (0.25, 0) on y = 0
                ((0.5, 0.25), 3, 18): True,  # (0.5, 0.5) reflex vertex
                ((0.75, 0.75), 3, 54): True,  # (0.75, 0.5) on the notch
                ((0.75, 0.75), 1, 0): False,  # (0.85, 0.75) in the notch
            }
        else:
            pinned = {
                ((0.3, 0.5), 1, 0): True,  # (0.4, 0.5) on the hole edge
                ((0.3, 0.5), 2, 0): False,  # (0.425, 0.5) in the hole
                ((0.5, 0.5), 1, 18): True,  # (0.5, 0.6) on the hole edge
                ((0.5, 0.5), 0, 0): False,  # (0.55, 0.5) in the hole
            }
        for (site, level, sample), free in pinned.items():
            assert batch[sites.index(site), level, sample] == free


    @staticmethod
    def _threshold_sites(containment, threshold, region_factory):
        """Sites whose clearance straddles ``threshold`` ulp by ulp.

        Each start is moved along one axis, away from its nearest edge,
        until its computed clearance equals the threshold; the sites
        are that point and its two float neighbours on either side.
        """
        if region_factory is l_shaped_region:
            # Nearest edges: the outer x = 0, then the outer y = 0.
            starts = [((threshold, 0.3), 0), ((0.3, threshold), 1)]
        else:
            # Nearest edges: the hole's x = 0.6, then the outer y = 0.
            starts = [((0.6 + threshold, 0.5), 0), ((0.25, threshold), 1)]

        def clearance(point):
            xs, ys = np.asarray([point[0]]), np.asarray([point[1]])
            return float(containment.clearance(xs, ys)[0])

        sites = []
        for start, axis in starts:
            point = list(start)
            for _ in range(8):
                gap = clearance(point)
                if gap == threshold:
                    break
                toward = math.inf if gap < threshold else -math.inf
                point[axis] = math.nextafter(point[axis], toward)
            for ulps in (-2, -1, 0, 1, 2):
                shifted = list(point)
                for _ in range(abs(ulps)):
                    shifted[axis] = math.nextafter(
                        shifted[axis], math.copysign(math.inf, ulps)
                    )
                sites.append(tuple(shifted))
        return sites

    @pytest.mark.parametrize(
        "region_factory", [l_shaped_region, figure8_region_one]
    )
    def test_clearance_prefilter_matches_kernel_at_threshold(self, region_factory):
        region = region_factory()
        radii = np.asarray([0.05, 0.1])
        probe = SparseDistributedEngine(
            SensorNetwork(region, [(0.25, 0.25)], comm_range=0.1),
            LaacadConfig(k=2),
            SynchronousScheduler(),
        )
        containment = probe._containment
        threshold = 0.1 + containment.eps + 1e-9
        sites = self._threshold_sites(containment, threshold, region_factory) + [
            tuple(p) for p in np.random.default_rng(8).random((40, 2)).tolist()
        ]
        positions = np.asarray(sites)
        clearance = containment.clearance(positions[:, 0], positions[:, 1])
        # Both sides of the prefilter are exercised, the boundary too.
        assert (clearance == threshold).any()
        assert (clearance > threshold).any() and (clearance < threshold).any()
        engine = SparseDistributedEngine(
            SensorNetwork(region, sites, comm_range=0.1),
            LaacadConfig(k=2),
            SynchronousScheduler(),
        )
        batch = _circle_containment(
            engine._containment, positions[:, 0], positions[:, 1], radii,
            engine._circle_cos, engine._circle_sin,
        )
        for i, site in enumerate(sites):
            for level, radius in enumerate(radii.tolist()):
                expected = engine._containment.contains(
                    site[0] + radius * engine._circle_cos,
                    site[1] + radius * engine._circle_sin,
                )
                assert np.array_equal(batch[i, level], expected)

    def test_clearance_is_the_nearest_edge_distance(self):
        containment = SparseDistributedEngine(
            SensorNetwork(figure8_region_one(), [(0.1, 0.1)], comm_range=0.1),
            LaacadConfig(k=2),
            SynchronousScheduler(),
        )._containment
        xs = np.asarray([0.1, 0.5, 0.3, 0.7, 0.4, 0.5])
        ys = np.asarray([0.2, 0.5, 0.5, 0.9, 0.4, 0.05])
        expected = [0.1, 0.1, 0.1, 0.1, 0.0, 0.05]
        assert np.allclose(containment.clearance(xs, ys), expected, atol=1e-15)


# ----------------------------------------------------------------------
# Thread-count determinism: the worker knob is bitwise invisible
# ----------------------------------------------------------------------
class TestKernelThreadDeterminism:
    """Stronger than the tolerance contract: for a *fixed* engine, any
    ``REPRO_KERNEL_THREADS`` value must reproduce the serial floats
    bitwise — the chunk-ordered reduction promise that lets CI compare
    baselines recorded on machines with different core counts.
    """

    def test_centralized_sparse_bitwise_across_thread_counts(self, monkeypatch):
        def run(threads):
            monkeypatch.setenv(KERNEL_THREADS_ENV, str(threads))
            return _centralized_round("sparse", 17, count=80, k=2)

        base = run(1)
        for threads in (2, 7):
            other = run(threads)
            assert other.centers == base.centers
            assert list(other.circumradii) == list(base.circumradii)
            assert list(other.ranges_from_position) == list(
                base.ranges_from_position
            )
            assert list(other.displacements) == list(base.displacements)

    def test_distributed_sparse_bitwise_across_thread_counts(self, monkeypatch):
        def run(threads):
            monkeypatch.setenv(KERNEL_THREADS_ENV, str(threads))
            return _run_distributed("sparse", 23, drop_probability=0.1)

        base = run(1)
        for threads in (2, 7):
            other = run(threads)
            assert other.rounds_executed == base.rounds_executed
            assert list(other.final_positions) == list(base.final_positions)
            assert list(other.sensing_ranges) == list(base.sensing_ranges)
            assert other.communication == base.communication


# ----------------------------------------------------------------------
# Registry and selection plumbing
# ----------------------------------------------------------------------
class TestSparseSelection:
    def test_both_registries_list_sparse(self):
        assert "sparse" in available_engines()
        assert available_distributed_engines() == ["legacy", "sparse"]

    def test_unknown_engine_rejected(self, square):
        network = SensorNetwork(square, [(0.5, 0.5)], comm_range=0.3)
        scheduler = SynchronousScheduler()
        with pytest.raises(ValueError, match="unknown distributed round engine"):
            make_distributed_engine("warp-drive", network, LaacadConfig(), scheduler)

    def test_factories_build_sparse_backends(self):
        region = unit_square()
        network = SensorNetwork(
            region, [(0.2, 0.2), (0.8, 0.8)], comm_range=0.4
        )
        config = LaacadConfig(k=1, engine="sparse")
        assert isinstance(
            make_engine("sparse", network, config), SparseRoundEngine
        )
        assert isinstance(
            make_distributed_engine(
                "sparse", network, config, SynchronousScheduler()
            ),
            SparseDistributedEngine,
        )

    @pytest.mark.parametrize(
        "engine, expected",
        [
            ("legacy", LegacyDistributedEngine),
            # The shared default: the distributed pipeline runs sparse.
            ("batched", SparseDistributedEngine),
        ],
    )
    def test_deployer_uses_configured_engine(self, engine, expected):
        region = unit_square()
        network = SensorNetwork(
            region, [(0.2, 0.2), (0.8, 0.8)], comm_range=0.4
        )
        sim = Simulation(
            network=network,
            config=LaacadConfig(k=1, engine=engine),
            kind="distributed",
        )
        assert type(sim.deployer.protocol) is expected

    def test_simulation_routes_to_sparse_distributed_engine(self):
        region = unit_square()
        network = SensorNetwork(
            region, [(0.2, 0.2), (0.8, 0.8)], comm_range=0.4
        )
        sim = Simulation(
            network=network,
            config=LaacadConfig(k=1, engine="sparse"),
            kind="distributed",
        )
        assert isinstance(sim.deployer.protocol, SparseDistributedEngine)

    def test_default_distributed_run_is_sparse(self, square):
        network = SensorNetwork.from_random(
            square, 6, comm_range=0.4, rng=np.random.default_rng(0)
        )
        sim = Simulation(
            network=network, config=LaacadConfig(k=1), kind="distributed"
        )
        protocol = sim.deployer.protocol
        assert isinstance(protocol, SparseDistributedEngine)
        assert not any(
            "batched" in cls.__name__.lower() for cls in type(protocol).__mro__
        )
