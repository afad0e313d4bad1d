"""Micro-benchmarks of the geometric kernels LAACAD spends its time in.

These are conventional timing benchmarks (multiple rounds) for the two
inner loops: the budgeted-clipping dominating-region computation and
Welzl's smallest enclosing circle, plus the round-engine comparison
benchmarks tracking the array-native backends' speedup over the legacy
per-node paths — the batched centralized engine and the sparse
distributed engine (single-round timings for N in {50, 200, 500} and
the N=200, k=2 corner-cluster deployment).
"""

import numpy as np
import pytest

from repro.core.config import LaacadConfig
from repro.api import Simulation
from repro.engine import make_engine
from repro.geometry.welzl import welzl_disk
from repro.regions.shapes import unit_square
from repro.voronoi.dominating import compute_dominating_region
from repro.core.dominating import localized_dominating_region
from repro.network.network import SensorNetwork


@pytest.fixture(scope="module")
def sites_100():
    region = unit_square()
    rng = np.random.default_rng(2)
    return region, region.random_points(100, rng=rng)


@pytest.mark.benchmark(group="micro-dominating")
@pytest.mark.parametrize("k", [1, 2, 4])
def test_dominating_region_speed(benchmark, sites_100, k):
    region, sites = sites_100
    others = sites[1:]
    result = benchmark(lambda: compute_dominating_region(sites[0], others, region, k))
    assert result.area > 0


@pytest.mark.benchmark(group="micro-localized")
def test_localized_dominating_region_speed(benchmark, sites_100):
    region, sites = sites_100
    network = SensorNetwork(region, sites, comm_range=0.2)
    result = benchmark(lambda: localized_dominating_region(network, 0, 2))
    assert result.region.area > 0


@pytest.mark.benchmark(group="micro-welzl")
@pytest.mark.parametrize("size", [10, 100, 1000])
def test_welzl_speed(benchmark, size):
    rng = np.random.default_rng(size)
    points = [tuple(p) for p in rng.uniform(0, 1, size=(size, 2))]
    circle = benchmark(lambda: welzl_disk(points))
    assert circle.radius > 0


# ----------------------------------------------------------------------
# Round-engine comparisons (batched vs. legacy)
# ----------------------------------------------------------------------
@pytest.mark.benchmark(group="engine-round")
@pytest.mark.parametrize("engine_name", ["legacy", "batched"])
@pytest.mark.parametrize("n", [50, 200, 500])
def test_engine_round_time(benchmark, engine_name, n):
    """One full round of region computation on a random deployment.

    The ``engine-round`` group tracks the per-round speedup of the
    batched array-native engine over the legacy per-node path as the
    network grows.
    """
    region = unit_square()
    network = SensorNetwork(
        region, region.random_points(n, rng=np.random.default_rng(7)), comm_range=0.25
    )
    config = LaacadConfig(k=2, engine=engine_name)
    engine = make_engine(engine_name, network, config)
    result = benchmark.pedantic(engine.compute_round, rounds=1, iterations=1)
    assert len(result.regions) == n
    benchmark.extra_info["engine"] = engine_name
    benchmark.extra_info["n"] = n


# ----------------------------------------------------------------------
# Distributed-engine comparisons (sparse vs. legacy protocol backends)
# ----------------------------------------------------------------------
@pytest.mark.benchmark(group="distributed-round")
@pytest.mark.parametrize("engine_name", ["legacy", "sparse"])
@pytest.mark.parametrize("n", [50, 200, 500])
def test_distributed_round_time(benchmark, engine_name, n):
    """One full protocol round (gather + regions) on a random deployment.

    The ``distributed-round`` group tracks the round-level backend's
    speedup over the message-level agent path as the network grows.
    """
    from repro.runtime.engines import make_distributed_engine
    from repro.runtime.scheduler import SynchronousScheduler

    region = unit_square()
    network = SensorNetwork(
        region, region.random_points(n, rng=np.random.default_rng(7)), comm_range=0.25
    )
    config = LaacadConfig(k=2, engine=engine_name)
    scheduler = SynchronousScheduler()
    engine = make_distributed_engine(engine_name, network, config, scheduler)
    scheduler.begin_round()
    result = benchmark.pedantic(lambda: engine.run_round(0), rounds=1, iterations=1)
    assert len(result.regions) == n
    benchmark.extra_info["engine"] = engine_name
    benchmark.extra_info["n"] = n


@pytest.mark.benchmark(group="distributed-deployment")
@pytest.mark.parametrize("engine_name", ["legacy", "sparse"])
def test_distributed_deployment_n200_k2(benchmark, engine_name):
    """The N=200, k=2 corner-cluster *distributed* deployment transient.

    The acceptance workload of the round-level backend: clustered nodes
    mean enormous expanding rings (nearly every node is a ring-1 member
    of every other), which is exactly where per-message simulation
    drowns in Python overhead.  The sparse engine matches the legacy
    agents within the tolerance contract, with exact communication
    counters (enforced by tests/test_engine_sparse_equivalence.py).  The
    workload definition is shared with ``export_bench.py``, whose
    BENCH_PR4.json ``batched`` cell runs the same sparse engine (the
    distributed pipeline maps ``batched`` to ``sparse``).
    """
    from export_bench import TRANSIENT_WORKLOAD, build_transient_deployment

    deploy = build_transient_deployment(engine_name)
    result = benchmark.pedantic(deploy, rounds=1, iterations=1)
    assert result.rounds_executed == TRANSIENT_WORKLOAD["max_rounds"]
    assert result.communication.messages > 0
    benchmark.extra_info["engine"] = engine_name
    benchmark.extra_info["max_sensing_range"] = result.max_sensing_range


@pytest.mark.benchmark(group="engine-deployment")
@pytest.mark.parametrize("engine_name", ["legacy", "batched"])
def test_engine_full_deployment_n200_k2(benchmark, engine_name):
    """The N=200, k=2 corner-cluster deployment (Figure 5 workload).

    Runs the deployment transient — the rounds in which the cluster
    actually spreads across the area, after which only epsilon-level
    refinement remains — under each engine.  The batched engine is
    expected to be at least ~3x faster here; in the converged
    steady-state the gap narrows to ~2x (see DESIGN.md).
    """
    region = unit_square()

    def deploy():
        network = SensorNetwork.from_corner_cluster(
            region, 200, comm_range=0.25, rng=np.random.default_rng(11)
        )
        config = LaacadConfig(
            k=2, alpha=1.0, epsilon=1e-3, max_rounds=6, seed=11, engine=engine_name
        )
        return Simulation(network=network, config=config).run()

    result = benchmark.pedantic(deploy, rounds=1, iterations=1)
    assert result.rounds_executed == 6
    assert result.max_sensing_range > 0
    benchmark.extra_info["engine"] = engine_name
    benchmark.extra_info["max_sensing_range"] = result.max_sensing_range
