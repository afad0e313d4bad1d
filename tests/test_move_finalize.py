"""The array move stage and finalize against their scalar oracles, bitwise.

The deployers move nodes and size the final sensing ranges with array
code over the network's node columns.  The per-node loops they replace
live on in ``kernel_oracles`` (scalar ``constrain``, per-node
``apply_moves``, ``DominatingRegion.circumradius``); every case here
runs both and compares positions, ``distance_traveled`` and sensing
ranges with ``==`` — no tolerance.  The ``Node`` view tests pin the
object spelling of the same columns.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kernel_oracles import (
    apply_moves_scalar,
    constrain_scalar,
    final_ranges_scalar,
    move_to_centers_scalar,
    move_to_targets_scalar,
)
from repro.api import Simulation
from repro.api.deployers import CentralizedDeployer, DistributedDeployer
from repro.core.config import LaacadConfig
from repro.engine.base import EngineRound
from repro.engine.pieces import RegionVertices, region_vertices, vertex_circumradii
from repro.network.mobility import MobilityModel
from repro.network.network import SensorNetwork
from repro.network.node import Node
from repro.regions.shapes import (
    figure8_region_one,
    figure8_region_two,
    l_shaped_region,
    unit_square,
)
from repro.runtime.failures import FailureInjector

REGIONS = {
    "square": unit_square,
    "fig8-one": figure8_region_one,
    "fig8-two": figure8_region_two,
    "l-shape": l_shaped_region,
}
MOBILITIES = {
    "default": MobilityModel(),
    "max-step": MobilityModel(max_step=0.02),
    "free": MobilityModel(keep_in_region=False),
    "both": MobilityModel(max_step=0.05, keep_in_region=False),
}


class OracleCentralizedDeployer(CentralizedDeployer):
    """Moves and finalizes with the scalar per-node loops."""

    def _move_to_centers(self, engine_round):
        move_to_centers_scalar(
            self.network, self.mobility, engine_round.centers,
            self.config.alpha, self.config.epsilon,
        )

    def _final_sensing_ranges(self, regions):
        return final_ranges_scalar(self.network, regions)


class OracleDistributedDeployer(DistributedDeployer):
    """Moves and finalizes with the scalar per-node loops."""

    def _move(self, ids, targets):
        move_to_targets_scalar(
            self.network, self.mobility,
            dict(zip(ids.tolist(), map(tuple, targets.tolist()))),
        )

    def _final_sensing_ranges(self, regions):
        return final_ranges_scalar(self.network, regions)


def _network(region_name, count, seed, comm_range=0.3):
    return SensorNetwork.from_random(
        REGIONS[region_name](), count, comm_range=comm_range,
        rng=np.random.default_rng(seed),
    )


def _node_state(network):
    return (
        network.positions(),
        [n.distance_traveled for n in network.nodes],
        [n.sensing_range for n in network.nodes],
        [n.alive for n in network.nodes],
    )


def _assert_runs_equal(array_sim, oracle_sim):
    array_result = array_sim.run()
    oracle_result = oracle_sim.run()
    assert array_result.final_positions == oracle_result.final_positions
    assert array_result.sensing_ranges == oracle_result.sensing_ranges
    assert array_result.history == oracle_result.history
    assert array_result.communication == oracle_result.communication
    assert _node_state(array_sim.deployer.network) == _node_state(
        oracle_sim.deployer.network
    )


def _pair(kind, region_name, count, seed, mobility, config, kills=None, drop=0.0):
    """The same session twice: array move stage, and scalar oracle."""
    sims = []
    for cls in (
        (CentralizedDeployer, OracleCentralizedDeployer)
        if kind == "laacad"
        else (DistributedDeployer, OracleDistributedDeployer)
    ):
        network = _network(region_name, count, seed)
        if kind == "laacad":
            for node_id in kills or ():
                network.kill_node(node_id)
            deployer = cls(network, config, mobility)
        else:
            deployer = cls(
                network, config, mobility, drop_probability=drop,
                failure_injector=FailureInjector(scheduled=dict(kills or {})),
            )
        sims.append(Simulation(deployer=deployer))
    return sims


# ----------------------------------------------------------------------
# Whole runs: array stage == scalar oracle
# ----------------------------------------------------------------------
class TestRunsMatchOracle:
    @pytest.mark.parametrize("region_name", sorted(REGIONS))
    @pytest.mark.parametrize("mobility_name", sorted(MOBILITIES))
    def test_centralized(self, region_name, mobility_name):
        config = LaacadConfig(k=2, alpha=0.9, max_rounds=6, seed=1)
        array_sim, oracle_sim = _pair(
            "laacad", region_name, 40, 3, MOBILITIES[mobility_name], config
        )
        _assert_runs_equal(array_sim, oracle_sim)

    @pytest.mark.parametrize("region_name", sorted(REGIONS))
    @pytest.mark.parametrize("mobility_name", ["default", "max-step", "free"])
    def test_distributed_lossy_with_failures(self, region_name, mobility_name):
        config = LaacadConfig(k=2, alpha=0.8, max_rounds=5, seed=2)
        array_sim, oracle_sim = _pair(
            "distributed", region_name, 40, 4, MOBILITIES[mobility_name], config,
            kills={1: [0, 5], 3: [7]}, drop=0.1,
        )
        _assert_runs_equal(array_sim, oracle_sim)

    def test_centralized_dead_nodes_and_lemma1_path(self):
        # N above the whole-network bound: the incremental Lemma-1 path.
        config = LaacadConfig(k=3, alpha=1.0, max_rounds=5, seed=3)
        array_sim, oracle_sim = _pair(
            "laacad", "fig8-two", 140, 9, MobilityModel(max_step=0.04), config,
            kills=[1, 2, 50, 139],
        )
        _assert_runs_equal(array_sim, oracle_sim)

    def test_mid_run_results_match(self):
        config = LaacadConfig(k=2, alpha=0.7, max_rounds=6, seed=4)
        array_sim, oracle_sim = _pair(
            "distributed", "fig8-one", 30, 5, MobilityModel(), config, drop=0.2
        )
        for _ in range(3):
            array_sim.step()
            oracle_sim.step()
            assert array_sim.result().sensing_ranges == oracle_sim.result().sensing_ranges
        _assert_runs_equal(array_sim, oracle_sim)


# ----------------------------------------------------------------------
# One move stage on crafted inputs
# ----------------------------------------------------------------------
def _one_move(region_name, positions, centers, mobility, alpha=1.0, epsilon=1e-3,
              dead=()):
    """Apply one synthetic round's move both ways; return both networks."""
    networks = []
    for _ in range(2):
        network = SensorNetwork(REGIONS[region_name](), positions, comm_range=0.3)
        for node_id in dead:
            network.kill_node(node_id)
        networks.append(network)
    array_net, oracle_net = networks
    config = LaacadConfig(k=1, alpha=alpha, epsilon=epsilon)
    deployer = CentralizedDeployer(array_net, config, mobility)
    live = {i: c for i, c in centers.items() if i not in dead}
    deployer._move_to_centers(
        EngineRound(regions={}, centers=live, circumradii=[],
                    ranges_from_position=[], displacements=[])
    )
    move_to_centers_scalar(oracle_net, mobility, live, alpha, epsilon)
    return array_net, oracle_net


class TestMoveStageCases:
    @pytest.mark.parametrize("region_name", sorted(REGIONS))
    @pytest.mark.parametrize("mobility_name", sorted(MOBILITIES))
    def test_targets_outside_the_free_area(self, region_name, mobility_name):
        # Centers in holes, past the outer boundary and in the L's notch:
        # the clamp must take nearest_free_point for exactly those.
        rng = np.random.default_rng(11)
        region = REGIONS[region_name]()
        positions = region.random_points(60, rng=rng)
        centers = {
            i: (float(x), float(y))
            for i, (x, y) in enumerate(rng.uniform(-0.3, 1.3, size=(60, 2)))
        }
        array_net, oracle_net = _one_move(
            region_name, positions, centers, MOBILITIES[mobility_name], dead=(3, 17)
        )
        assert _node_state(array_net) == _node_state(oracle_net)
        assert sum(not region.contains(c) for c in centers.values()) > 10

    def test_epsilon_boundary_ulp_by_ulp(self):
        # Axis-aligned offsets: the distance is the offset itself, so
        # stepping the center one ulp crosses epsilon exactly.
        eps = 1e-3
        base = 0.5
        edge = base + eps
        centers = {}
        positions = []
        for i, delta in enumerate(range(-3, 4)):
            x = edge
            for _ in range(abs(delta)):
                x = math.nextafter(x, math.inf if delta > 0 else -math.inf)
            positions.append((base, 0.1 + 0.1 * i))
            centers[i] = (x, 0.1 + 0.1 * i)
        array_net, oracle_net = _one_move("square", positions, centers, MobilityModel())
        assert _node_state(array_net) == _node_state(oracle_net)
        moved = [p != q for p, q in zip(array_net.positions(), positions)]
        assert moved[0] is False and moved[-1] is True

    def test_epsilon_where_numpy_and_math_hypot_disagree(self):
        # Both centers sit at a distance whose np.hypot and math.hypot
        # fall on opposite sides of epsilon = 1e-3.
        eps = 1e-3
        stay = (0.5006387735014821, 0.5007693948360915)  # math: == eps
        go = (0.5001803203629295, 0.5009836079334333)  # math: > eps
        for center, moves in ((stay, False), (go, True)):
            dx, dy = 0.5 - center[0], 0.5 - center[1]
            assert (math.hypot(dx, dy) <= eps) != (float(np.hypot(dx, dy)) <= eps)
            array_net, oracle_net = _one_move(
                "square", [(0.5, 0.5), (0.1, 0.1)], {0: center, 1: (0.1, 0.1)},
                MobilityModel(), epsilon=eps,
            )
            assert _node_state(array_net) == _node_state(oracle_net)
            assert (array_net.node(0).position != (0.5, 0.5)) is moves

    def test_max_step_scales_long_moves_only(self):
        positions = [(0.1, 0.1), (0.5, 0.5), (0.9, 0.9)]
        centers = {0: (0.9, 0.1), 1: (0.51, 0.5), 2: (0.2, 0.3)}
        array_net, oracle_net = _one_move(
            "square", positions, centers, MobilityModel(max_step=0.05), alpha=0.5
        )
        assert _node_state(array_net) == _node_state(oracle_net)

    def test_constrain_scalar_spelling_delegates(self):
        region = figure8_region_one()
        rng = np.random.default_rng(5)
        for mobility in MOBILITIES.values():
            for current, target in zip(
                rng.uniform(0, 1, size=(40, 2)).tolist(),
                rng.uniform(-0.2, 1.2, size=(40, 2)).tolist(),
            ):
                current, target = tuple(current), tuple(target)
                assert mobility.constrain(region, current, target) == constrain_scalar(
                    mobility, region, current, target
                )


class TestKeepInRegion:
    """``keep_in_region=False`` lets a node leave the free area."""

    @staticmethod
    def _run(mobility):
        sim = Simulation(
            network=_network("fig8-two", 60, seed=1),
            config=LaacadConfig(k=1, epsilon=0.005, max_rounds=30),
            mobility=mobility,
        )
        sim.run()
        positions = sim.network.columns.positions
        region = sim.network.region
        outside = [not region.contains((x, y)) for x, y in positions.tolist()]
        return positions.tobytes(), sum(outside)

    def test_a_free_run_leaves_the_free_area(self):
        kept, kept_outside = self._run(MobilityModel())
        free, free_outside = self._run(MobilityModel(keep_in_region=False))
        assert kept_outside == 0
        assert free_outside > 0
        assert free != kept


class TestApplyMoves:
    def test_array_and_mapping_spellings_match_the_loop(self, holed_region):
        rng = np.random.default_rng(8)
        positions = holed_region.random_points(30, rng=rng)
        targets = {
            i: tuple(p) for i, p in enumerate(rng.uniform(-0.1, 1.1, size=(30, 2)).tolist())
            if i % 3
        }
        nets = [SensorNetwork(holed_region, positions) for _ in range(3)]
        moved_map = nets[0].apply_moves(targets)
        ids = np.fromiter(targets, dtype=np.intp)
        moved_arr = nets[1].apply_moves(
            np.array(list(targets.values())), clamp_to_region=True, ids=ids
        )
        moved_loop = apply_moves_scalar(nets[2], targets)
        assert moved_map == moved_loop
        assert moved_arr.tolist() == list(moved_loop.values())
        assert _node_state(nets[0]) == _node_state(nets[1]) == _node_state(nets[2])

    def test_unclamped(self, square):
        nets = [SensorNetwork(square, [(0.5, 0.5), (0.2, 0.2)]) for _ in range(2)]
        targets = {0: (1.7, 0.5)}
        assert nets[0].apply_moves(targets, clamp_to_region=False) == apply_moves_scalar(
            nets[1], targets, clamp_to_region=False
        )
        assert nets[0].node(0).position == (1.7, 0.5)

    def test_rejects_unknown_ids(self, square):
        network = SensorNetwork(square, [(0.5, 0.5)])
        with pytest.raises(IndexError):
            network.apply_moves({3: (0.1, 0.1)})
        with pytest.raises(IndexError):
            network.apply_moves(np.array([[0.1, 0.1]]), ids=np.array([-1]))


# ----------------------------------------------------------------------
# Finalize: flat-vertex circumradii == DominatingRegion.circumradius
# ----------------------------------------------------------------------
class TestFinalize:
    @pytest.mark.parametrize("kind", ["laacad", "distributed"])
    @pytest.mark.parametrize("region_name", sorted(REGIONS))
    def test_ranges_match_circumradius_loop(self, kind, region_name):
        network = _network(region_name, 50, 6)
        network.kill_node(2)
        sim = Simulation(network=network, config=LaacadConfig(k=2, max_rounds=3),
                         kind=kind)
        result = sim.run()
        if kind == "laacad":
            regions = sim.deployer.engine.compute_regions()
        else:
            regions = sim.deployer.protocol.last_regions
        copy = SensorNetwork(network.region, network.positions())
        copy.kill_node(2)
        assert result.sensing_ranges == final_ranges_scalar(copy, regions)
        assert result.sensing_ranges[2] == 0.0
        assert network.sensing_ranges() == copy.sensing_ranges()

    def test_vertex_circumradii_near_ties(self):
        # Vertices on a circle round to distances within an ulp of each
        # other; the exact maximum must still be math.hypot's.
        rng = np.random.default_rng(3)
        rows, per_row = 300, 12
        theta = rng.uniform(0, 2 * np.pi, size=(rows, per_row))
        origins = rng.uniform(0, 1, size=(rows, 2))
        counts = rng.integers(0, per_row + 1, size=rows)
        vx, vy = [], []
        for r in range(rows):
            vx.extend((origins[r, 0] + 0.3 * np.cos(theta[r, : counts[r]])).tolist())
            vy.extend((origins[r, 1] + 0.3 * np.sin(theta[r, : counts[r]])).tolist())
        indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
        vertices = RegionVertices(np.arange(rows), np.array(vx), np.array(vy), indptr)
        radii = vertex_circumradii(vertices, origins)
        for r in range(rows):
            best = 0.0
            for i in range(indptr[r], indptr[r + 1]):
                best = max(best, math.hypot(vx[i] - origins[r, 0], vy[i] - origins[r, 1]))
            assert radii[r] == best

    def test_region_vertices_of_a_plain_dict(self, square):
        network = SensorNetwork(square, [(0.2, 0.2), (0.8, 0.8), (0.3, 0.7)])
        sim = Simulation(network=network, config=LaacadConfig(k=1, engine="legacy",
                                                               max_rounds=1))
        regions = sim.deployer.engine.compute_regions()
        vertices = region_vertices(regions)
        assert vertices.ids.tolist() == list(regions)
        for row, region in enumerate(regions.values()):
            flat = [v for piece in region.pieces for v in piece]
            lo, hi = vertices.indptr[row], vertices.indptr[row + 1]
            assert list(zip(vertices.vx[lo:hi].tolist(), vertices.vy[lo:hi].tolist())) == flat


# ----------------------------------------------------------------------
# Multi-round property: any run, array == oracle
# ----------------------------------------------------------------------
class TestMoveProperty:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        kind=st.sampled_from(["laacad", "distributed"]),
        region_name=st.sampled_from(sorted(REGIONS)),
        mobility_name=st.sampled_from(sorted(MOBILITIES)),
        count=st.integers(min_value=4, max_value=45),
        k=st.integers(min_value=1, max_value=3),
        alpha=st.sampled_from([0.5, 0.75, 1.0]),
        seed=st.integers(min_value=0, max_value=10_000),
        drop=st.sampled_from([0.0, 0.15]),
    )
    def test_runs_match_oracle(self, kind, region_name, mobility_name, count, k,
                               alpha, seed, drop):
        config = LaacadConfig(k=k, alpha=alpha, max_rounds=4, seed=seed)
        # A dead node from the start, or one failing mid-run; either way
        # at least k of the >= 4 nodes stay alive.
        kills = [0] if kind == "laacad" else {1: [1]}
        array_sim, oracle_sim = _pair(
            kind, region_name, count, seed, MOBILITIES[mobility_name], config,
            kills=kills, drop=drop,
        )
        _assert_runs_equal(array_sim, oracle_sim)


# ----------------------------------------------------------------------
# Node views over the network's columns
# ----------------------------------------------------------------------
class TestNodeViews:
    def test_standalone_node_owns_its_row(self):
        node = Node(node_id=4, position=(1, 2), sensing_range=0.5, alive=False)
        assert node.position == (1.0, 2.0)
        assert (node.sensing_range, node.alive, node.distance_traveled) == (0.5, False, 0.0)
        twin = Node(node_id=4, position=(1.0, 2.0), sensing_range=0.5, alive=False)
        assert node == twin
        assert repr(node) == repr(twin)
        assert node.move_to((4.0, 6.0)) == 5.0
        assert node != twin

    def test_writes_through_a_view_reach_the_columns(self, square):
        network = SensorNetwork(square, [(0.1, 0.1), (0.5, 0.5), (0.9, 0.9)])
        view = network.node(1)
        view.position = (0.25, 0.75)
        view.sensing_range = 0.3
        view.distance_traveled = 1.5
        network.node(2).alive = False
        assert network.columns.positions[1].tolist() == [0.25, 0.75]
        assert network.positions()[1] == (0.25, 0.75)
        assert network.sensing_ranges() == [0.0, 0.3, 0.0]
        assert network.columns.distance_traveled[1] == 1.5
        assert network.alive_mask().tolist() == [True, True, False]
        assert [n.node_id for n in network.alive_nodes()] == [0, 1]

    def test_column_writes_show_through_views(self, square):
        network = SensorNetwork(square, [(0.1, 0.1), (0.5, 0.5)])
        nodes = network.nodes
        network.apply_moves({0: (0.4, 0.5)})
        assert nodes[0].position == (0.4, 0.5)
        assert nodes[0].distance_traveled == math.hypot(0.1 - 0.4, 0.1 - 0.5)
        clone = nodes[0].copy()
        network.apply_moves({0: (0.6, 0.5)})
        assert clone.position == (0.4, 0.5)

    @staticmethod
    def _1x_json(checkpoint):
        """The checkpoint JSON as 1.x spelled it: 2.0 dropped the config
        key ``use_localized``, which 1.x always wrote as ``false``
        right after ``circle_check_samples``."""
        payload = json.loads(checkpoint.to_json())
        for holder in (payload, payload.get("result")):
            if holder is None:
                continue
            config = {}
            for key, value in holder["config"].items():
                config[key] = value
                if key == "circle_check_samples":
                    config["use_localized"] = False
            holder["config"] = config
        return json.dumps(payload)

    def test_checkpoint_json_bytes_unchanged(self):
        # sha256 of the checkpoint JSON the same sessions produced when
        # nodes were standalone objects (mid-run and finished).
        expected = {
            "distributed": (
                "15412b9f5dcf14fef58a9fd4aa78053df9dd7522864d003e6c8a319f57dad209",
                "a55af08c4514ec1f8b1cc528273e62c8bbccc1c789fab550d4309f151825f33e",
            ),
            "laacad": (
                "f5437d85ef98c39f52de43835c596030a8fcefdb9bcba013a2a47845892d5e7e",
                "cdd881d65bb779bb1699fb4e53475b5d6cc7b4008c5fbe564ae62c1b82da001e",
            ),
        }
        sessions = {
            "distributed": Simulation(
                network=SensorNetwork.from_random(
                    figure8_region_one(), 40, comm_range=0.3,
                    rng=np.random.default_rng(7),
                ),
                config=LaacadConfig(k=2, alpha=0.8, max_rounds=5, seed=11),
                kind="distributed", drop_probability=0.1,
                failure_injector=FailureInjector(scheduled={1: [4]}),
            ),
            "laacad": Simulation(
                network=SensorNetwork.from_random(
                    l_shaped_region(), 40, comm_range=0.3,
                    rng=np.random.default_rng(8),
                ),
                config=LaacadConfig(k=2, alpha=0.8, max_rounds=5, seed=11),
                kind="laacad", mobility=MobilityModel(max_step=0.03),
            ),
        }
        for name, sim in sessions.items():
            sim.step()
            sim.step()
            mid = sim.checkpoint()
            sim.run()
            done = sim.checkpoint()
            digests = tuple(
                hashlib.sha256(self._1x_json(c).encode()).hexdigest()
                for c in (mid, done)
            )
            assert digests == expected[name], name
            restored = Simulation.restore(mid)
            assert restored.run().to_dict() == sim.result().to_dict()
