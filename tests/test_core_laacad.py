"""Unit tests for Algorithm 1 (driven through repro.api) and the min-node sizer."""

import numpy as np
import pytest

from repro.analysis.coverage import evaluate_coverage, is_k_covered
from repro.analysis.traces import is_monotone_nonincreasing
from repro.api import Simulation, deploy
from repro.core.config import LaacadConfig
from repro.core.minnode import MinNodeSizer
from repro.geometry.primitives import distance
from repro.network.mobility import MobilityModel
from repro.network.network import SensorNetwork
from repro.regions.shapes import unit_square


class TestRunnerBasics:
    def test_requires_enough_nodes(self, square):
        net = SensorNetwork(square, [(0.5, 0.5)], comm_range=0.3)
        with pytest.raises(ValueError):
            Simulation(network=net, config=LaacadConfig(k=2))

    def test_result_fields(self, corner_network, fast_config):
        result = Simulation(network=corner_network, config=fast_config).run()
        assert result.rounds_executed == len(result.history)
        assert len(result.final_positions) == corner_network.size
        assert len(result.sensing_ranges) == corner_network.size
        assert result.max_sensing_range >= result.min_sensing_range > 0
        assert result.config is fast_config

    def test_network_mutated_in_place(self, corner_network, fast_config):
        initial = list(corner_network.positions())
        result = Simulation(network=corner_network, config=fast_config).run()
        assert corner_network.positions() == result.final_positions
        assert corner_network.positions() != initial
        assert corner_network.sensing_ranges() == result.sensing_ranges

    def test_record_positions(self, square):
        net = SensorNetwork.from_random(square, 8, comm_range=0.4, rng=np.random.default_rng(0))
        config = LaacadConfig(k=1, max_rounds=10, record_positions=True)
        result = Simulation(network=net, config=config).run()
        assert result.position_history is not None
        assert len(result.position_history) >= 1
        assert len(result.position_history[0]) == 8

    def test_deploy_convenience(self, square):
        positions = square.random_points(8, rng=np.random.default_rng(1))
        result = deploy(square, positions, LaacadConfig(k=1, max_rounds=20))
        assert result.initial_positions == positions

    def test_single_node_k1(self, square):
        result = deploy(square, [(0.1, 0.1)], LaacadConfig(k=1, max_rounds=30))
        # The node moves to the Chebyshev center of the square and covers it.
        assert result.final_positions[0] == pytest.approx((0.5, 0.5), abs=1e-2)
        assert result.max_sensing_range == pytest.approx(np.sqrt(0.5), rel=1e-2)

    def test_max_rounds_respected(self, square):
        net = SensorNetwork.from_corner_cluster(
            square, 15, comm_range=0.3, rng=np.random.default_rng(2)
        )
        result = Simulation(network=net, config=LaacadConfig(k=2, max_rounds=3)).run()
        assert result.rounds_executed == 3
        assert not result.converged


class TestCoverageGuarantee:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_k_coverage_achieved(self, square, k):
        net = SensorNetwork.from_random(
            square, 16, comm_range=0.35, rng=np.random.default_rng(10 + k)
        )
        config = LaacadConfig(k=k, alpha=1.0, epsilon=2e-3, max_rounds=80)
        result = Simulation(network=net, config=config).run()
        assert is_k_covered(
            result.final_positions, result.sensing_ranges, square, k, resolution=45
        )

    def test_coverage_holds_even_without_convergence(self, square):
        net = SensorNetwork.from_corner_cluster(
            square, 15, comm_range=0.3, rng=np.random.default_rng(5)
        )
        config = LaacadConfig(k=2, alpha=1.0, epsilon=1e-4, max_rounds=5)
        result = Simulation(network=net, config=config).run()
        report = evaluate_coverage(
            result.final_positions, result.sensing_ranges, square, 2, resolution=45
        )
        assert report.fully_covered

    def test_nodes_stay_in_region(self, complex_region):
        net = SensorNetwork.from_random(
            complex_region, 20, comm_range=0.3, rng=np.random.default_rng(6)
        )
        config = LaacadConfig(k=2, alpha=1.0, epsilon=2e-3, max_rounds=50)
        result = Simulation(network=net, config=config).run()
        assert all(complex_region.contains(p) for p in result.final_positions)


class TestConvergenceBehaviour:
    def test_max_range_trace_monotone_for_alpha_one(self, corner_network):
        config = LaacadConfig(k=2, alpha=1.0, epsilon=1e-3, max_rounds=80)
        result = Simulation(network=corner_network, config=config).run()
        trace = [s.max_range_from_position for s in result.history]
        assert is_monotone_nonincreasing(trace, tolerance=1e-6)

    def test_converged_deployment_is_balanced(self, square):
        net = SensorNetwork.from_random(
            square, 20, comm_range=0.3, rng=np.random.default_rng(7)
        )
        config = LaacadConfig(k=3, alpha=1.0, epsilon=1e-3, max_rounds=100)
        result = Simulation(network=net, config=config).run()
        assert result.converged
        # Load balancing: max and min sensing ranges are close (Sec. V-A).
        assert result.min_sensing_range / result.max_sensing_range > 0.6

    def test_smaller_alpha_needs_more_rounds(self, square):
        def rounds_for(alpha):
            net = SensorNetwork.from_corner_cluster(
                square, 12, comm_range=0.3, rng=np.random.default_rng(8)
            )
            config = LaacadConfig(k=1, alpha=alpha, epsilon=2e-3, max_rounds=200)
            return Simulation(network=net, config=config).run().rounds_executed

        assert rounds_for(0.3) > rounds_for(1.0)

    def test_convergence_displacement_below_epsilon(self, square):
        net = SensorNetwork.from_random(
            square, 12, comm_range=0.35, rng=np.random.default_rng(9)
        )
        config = LaacadConfig(k=2, alpha=1.0, epsilon=2e-3, max_rounds=80)
        result = Simulation(network=net, config=config).run()
        assert result.converged
        assert result.history[-1].max_displacement <= config.epsilon

    def test_localized_backend_matches_global(self, square):
        # Lemma 1: Algorithm 2's expanding ring recovers the regions the
        # centralized engine computes with global knowledge.
        positions = square.random_points(12, rng=np.random.default_rng(14))
        config = LaacadConfig(k=2, alpha=1.0, epsilon=2e-3, max_rounds=25)
        res_global = deploy(square, positions, config, comm_range=0.3)
        res_local = Simulation(
            region=square,
            positions=positions,
            config=config,
            comm_range=0.3,
            kind="distributed",
        ).run()
        assert res_local.max_sensing_range == pytest.approx(
            res_global.max_sensing_range, rel=1e-6
        )
        for a, b in zip(res_global.final_positions, res_local.final_positions):
            assert distance(a, b) < 1e-6


class TestMobilityIntegration:
    def test_max_step_slows_expansion(self, square):
        net = SensorNetwork.from_corner_cluster(
            square, 10, comm_range=0.3, rng=np.random.default_rng(11)
        )
        config = LaacadConfig(k=1, alpha=1.0, epsilon=2e-3, max_rounds=4)
        result_limited = Simulation(network=net, config=config, mobility=MobilityModel(max_step=0.02)).run()
        net2 = SensorNetwork.from_corner_cluster(
            square, 10, comm_range=0.3, rng=np.random.default_rng(11)
        )
        result_free = Simulation(network=net2, config=config).run()
        assert result_limited.total_distance_traveled() < result_free.total_distance_traveled()


class TestResultHelpers:
    def test_traces_and_spread(self, corner_network, fast_config):
        result = Simulation(network=corner_network, config=fast_config).run()
        assert len(result.max_circumradius_trace()) == result.rounds_executed
        assert len(result.min_circumradius_trace()) == result.rounds_executed
        assert result.range_spread == pytest.approx(
            result.max_sensing_range - result.min_sensing_range
        )
        assert result.total_distance_traveled() > 0


class TestMinNodeSizer:
    def test_validation(self, square):
        with pytest.raises(ValueError):
            MinNodeSizer(square, k=0)
        sizer = MinNodeSizer(square, k=2, config=LaacadConfig(k=2, max_rounds=10))
        with pytest.raises(ValueError):
            sizer.analytic_estimate(0.0)
        with pytest.raises(ValueError):
            sizer.required_range(1)
        with pytest.raises(ValueError):
            sizer.find_min_nodes(-1.0)

    def test_analytic_estimate_scales_with_range(self, square):
        sizer = MinNodeSizer(square, k=2)
        assert sizer.analytic_estimate(0.1) > sizer.analytic_estimate(0.3)

    def test_required_range_cached_and_decreasing(self, square):
        config = LaacadConfig(k=1, alpha=1.0, epsilon=5e-3, max_rounds=25)
        sizer = MinNodeSizer(square, k=1, config=config, seed=2)
        r_small = sizer.required_range(6)
        assert sizer.required_range(6) == r_small  # cached
        r_large = sizer.required_range(18)
        assert r_large < r_small

    def test_find_min_nodes_reaches_target(self, square):
        config = LaacadConfig(k=1, alpha=1.0, epsilon=5e-3, max_rounds=25)
        sizer = MinNodeSizer(square, k=1, config=config, seed=4)
        result = sizer.find_min_nodes(target_range=0.3, max_evaluations=6)
        assert result.achieved_range <= 0.3 + 1e-6
        assert result.node_count >= 1
        assert result.evaluations
