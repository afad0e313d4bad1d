"""Property-style equivalence suite: batched engine == legacy engine.

The batched array-native round engine promises results *identical* to
the legacy per-node path — positions, sensing ranges and every
``RoundStats`` field, over whole deployments, across regions (including
obstacle regions), coverage orders and both region back-ends (exact
global and the localized Algorithm-2 expanding ring).  These tests
enforce exact equality (``==``, no tolerances) on randomized instances
with fixed seeds.
"""

import dataclasses

import numpy as np
import pytest

from repro.api import Simulation
from repro.core.config import LaacadConfig
from repro.engine import (
    BatchedRoundEngine,
    LegacyRoundEngine,
    SparseRoundEngine,
    available_engines,
    make_engine,
)
from repro.network.network import SensorNetwork
from repro.regions.shapes import (
    figure8_region_one,
    figure8_region_two,
    l_shaped_region,
    unit_square,
)


def _build_network(region, count, seed, corner=False, comm_range=0.3):
    rng = np.random.default_rng(seed)
    if corner:
        return SensorNetwork.from_corner_cluster(
            region, count, comm_range=comm_range, rng=rng
        )
    return SensorNetwork.from_random(region, count, comm_range=comm_range, rng=rng)


def _run(engine, region, count, seed, corner=False, **config_kwargs):
    network = _build_network(region, count, seed, corner=corner)
    config = LaacadConfig(engine=engine, **config_kwargs)
    return Simulation(network=network, config=config).run()


def _assert_identical(result_a, result_b):
    assert result_a.final_positions == result_b.final_positions
    assert result_a.sensing_ranges == result_b.sensing_ranges
    assert result_a.converged == result_b.converged
    assert result_a.rounds_executed == result_b.rounds_executed
    assert len(result_a.history) == len(result_b.history)
    for stats_a, stats_b in zip(result_a.history, result_b.history):
        assert dataclasses.asdict(stats_a) == dataclasses.asdict(stats_b)


REGION_FACTORIES = {
    "square": unit_square,
    "l-shaped": l_shaped_region,
    "one-obstacle": figure8_region_one,
    "two-obstacles": figure8_region_two,
}


class TestFullRunEquivalence:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_random_deployments(self, k):
        result_legacy = _run(
            "legacy", unit_square(), 12, seed=100 + k, k=k, max_rounds=12
        )
        result_batched = _run(
            "batched", unit_square(), 12, seed=100 + k, k=k, max_rounds=12
        )
        _assert_identical(result_legacy, result_batched)

    @pytest.mark.parametrize("region_name", sorted(REGION_FACTORIES))
    def test_regions_including_obstacles(self, region_name):
        region = REGION_FACTORIES[region_name]()
        result_legacy = _run("legacy", region, 13, seed=7, k=2, max_rounds=10)
        result_batched = _run("batched", region, 13, seed=7, k=2, max_rounds=10)
        _assert_identical(result_legacy, result_batched)

    def test_corner_cluster_start(self):
        result_legacy = _run(
            "legacy", unit_square(), 14, seed=3, corner=True, k=2, max_rounds=15
        )
        result_batched = _run(
            "batched", unit_square(), 14, seed=3, corner=True, k=2, max_rounds=15
        )
        _assert_identical(result_legacy, result_batched)

    def test_prefilter_disabled(self):
        result_legacy = _run(
            "legacy", unit_square(), 10, seed=5, k=2, max_rounds=8, prefilter=False
        )
        result_batched = _run(
            "batched", unit_square(), 10, seed=5, k=2, max_rounds=8, prefilter=False
        )
        _assert_identical(result_legacy, result_batched)

    def test_fractional_alpha(self):
        result_legacy = _run(
            "legacy", unit_square(), 11, seed=9, k=2, alpha=0.5, max_rounds=12
        )
        result_batched = _run(
            "batched", unit_square(), 11, seed=9, k=2, alpha=0.5, max_rounds=12
        )
        _assert_identical(result_legacy, result_batched)


class TestRoundLevelEquivalence:
    def test_compute_round_identical_with_dead_nodes(self, square):
        rng = np.random.default_rng(17)
        positions = square.random_points(15, rng=rng)
        config = LaacadConfig(k=2)
        net_a = SensorNetwork(square, positions, comm_range=0.3)
        net_b = SensorNetwork(square, positions, comm_range=0.3)
        for node_id in (4, 11):
            net_a.kill_node(node_id)
            net_b.kill_node(node_id)
        round_legacy = LegacyRoundEngine(net_a, config).compute_round()
        round_batched = BatchedRoundEngine(net_b, config).compute_round()
        assert list(round_legacy.regions) == list(round_batched.regions)
        assert 4 not in round_batched.regions and 11 not in round_batched.regions
        assert round_legacy.centers == round_batched.centers
        assert round_legacy.circumradii == round_batched.circumradii
        assert round_legacy.ranges_from_position == round_batched.ranges_from_position
        assert round_legacy.displacements == round_batched.displacements
        for node_id in round_legacy.regions:
            assert (
                round_legacy.regions[node_id].pieces
                == round_batched.regions[node_id].pieces
            )

    def test_single_node_network(self, square):
        config = LaacadConfig(k=1, max_rounds=5)
        result_legacy = Simulation(
            network=SensorNetwork(square, [(0.2, 0.3)], comm_range=0.3),
            config=config.with_engine("legacy"),
        ).run()
        result_batched = Simulation(
            network=SensorNetwork(square, [(0.2, 0.3)], comm_range=0.3),
            config=config.with_engine("batched"),
        ).run()
        _assert_identical(result_legacy, result_batched)


class TestEngineSelection:
    def test_registry_lists_builtins(self):
        assert {"legacy", "batched"} <= set(available_engines())

    def test_unknown_engine_rejected(self, square):
        network = SensorNetwork(square, [(0.5, 0.5)], comm_range=0.3)
        with pytest.raises(ValueError, match="unknown round engine"):
            make_engine("warp-drive", network, LaacadConfig())

    def test_config_engine_validation(self):
        with pytest.raises(ValueError):
            LaacadConfig(engine="")
        assert LaacadConfig().engine == "sparse"
        assert LaacadConfig().with_engine("legacy").engine == "legacy"

    def test_session_uses_configured_engine(self, square):
        network = SensorNetwork(square, [(0.5, 0.5), (0.2, 0.8)], comm_range=0.3)
        sim = Simulation(network=network, config=LaacadConfig(k=1, engine="legacy"))
        assert isinstance(sim.deployer.engine, LegacyRoundEngine)
        network2 = SensorNetwork(square, [(0.5, 0.5), (0.2, 0.8)], comm_range=0.3)
        sim2 = Simulation(network=network2, config=LaacadConfig(k=1))
        assert type(sim2.deployer.engine) is SparseRoundEngine
