"""Lossless result serialization: ``from_dict(to_dict(x)) == x`` for every run kind."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    CommunicationSummary,
    DistributedRoundStats,
    RoundStats,
    Simulation,
    SimulationResult,
)
from repro.api.results import round_stats_from_dict
from repro.core.config import LaacadConfig
from repro.network.network import SensorNetwork
from repro.scenarios import make_scenario


def _roundtrip(result: SimulationResult) -> None:
    payload = result.to_dict()
    assert SimulationResult.from_dict(payload) == result
    # ... and through actual JSON text (what the sweep cache stores).
    assert SimulationResult.from_dict(json.loads(json.dumps(payload))) == result


class TestEndToEndRoundTrips:
    def test_centralized_with_position_history(self, square):
        net = SensorNetwork.from_corner_cluster(
            square, 10, comm_range=0.3, rng=np.random.default_rng(2)
        )
        config = LaacadConfig(k=2, epsilon=2e-3, max_rounds=12, record_positions=True)
        result = Simulation(network=net, config=config).run()
        assert result.position_history is not None
        _roundtrip(result)

    def test_centralized_random_start(self, square):
        net = SensorNetwork.from_random(
            square, 8, comm_range=0.35, rng=np.random.default_rng(5)
        )
        config = LaacadConfig(k=1, epsilon=2e-3, max_rounds=6)
        result = Simulation(network=net, config=config).run()
        _roundtrip(result)

    def test_distributed_with_failures_and_drops(self):
        spec = make_scenario(
            "node_failures", node_count=12, k=2, max_rounds=15
        ).replace(drop_probability=0.02)
        result = Simulation.from_spec(spec).run()
        assert result.kind == "distributed"
        assert result.communication is not None
        assert result.killed_nodes
        assert all(isinstance(s, DistributedRoundStats) for s in result.history)
        _roundtrip(result)

    def test_static(self):
        result = Simulation.from_spec(
            make_scenario("static_blueprint", node_count=6, k=1)
        ).run()
        _roundtrip(result)


class TestPayloadCompatibility:
    """The unified serializer keeps the historical pipeline payload shape."""

    LEGACY_KEYS = {
        "node_count",
        "converged",
        "rounds_executed",
        "initial_positions",
        "final_positions",
        "sensing_ranges",
        "max_sensing_range",
        "min_sensing_range",
        "total_movement",
        "history",
    }

    def test_laacad_payload_superset(self):
        payload = make_scenario("open_field", node_count=6, k=1, max_rounds=4).run()
        assert self.LEGACY_KEYS <= set(payload)

    def test_distributed_payload_superset(self):
        payload = make_scenario("node_failures", node_count=8, k=1, max_rounds=5).run()
        assert self.LEGACY_KEYS | {"communication", "killed_nodes"} <= set(payload)
        assert set(payload["communication"]) == {
            "messages",
            "transmissions",
            "bytes_sent",
            "dropped",
        }

    def test_derived_scalars_consistent(self):
        payload = make_scenario("open_field", node_count=6, k=1, max_rounds=4).run()
        rebuilt = SimulationResult.from_dict(payload)
        assert payload["max_sensing_range"] == rebuilt.max_sensing_range
        assert payload["min_sensing_range"] == rebuilt.min_sensing_range
        assert payload["total_movement"] == rebuilt.total_distance_traveled()
        assert payload["node_count"] == len(rebuilt.final_positions)

    def test_unknown_schema_version_rejected(self):
        payload = make_scenario("open_field", node_count=6, k=1, max_rounds=4).run()
        payload["schema_version"] = 999
        with pytest.raises(ValueError, match="schema_version"):
            SimulationResult.from_dict(payload)


# ----------------------------------------------------------------------
# Property tests: arbitrary histories and positions survive the trip
# ----------------------------------------------------------------------
finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
points = st.tuples(finite, finite)


def stats_strategy():
    base = dict(
        round_index=st.integers(0, 10_000),
        max_circumradius=finite,
        min_circumradius=finite,
        max_range_from_position=finite,
        min_range_from_position=finite,
        max_displacement=finite,
        mean_displacement=finite,
        max_ring_hops=st.integers(0, 100),
    )
    plain = st.builds(RoundStats, **base)
    distributed = st.builds(
        DistributedRoundStats,
        messages=st.integers(0, 10**9),
        transmissions=st.integers(0, 10**9),
        bytes_sent=st.integers(0, 10**12),
        **base,
    )
    return st.one_of(plain, distributed)


@settings(max_examples=60, deadline=None)
@given(stats=stats_strategy())
def test_round_stats_roundtrip_preserves_type_and_values(stats):
    import dataclasses

    rebuilt = round_stats_from_dict(json.loads(json.dumps(dataclasses.asdict(stats))))
    assert type(rebuilt) is type(stats)
    assert rebuilt == stats


@settings(max_examples=25, deadline=None)
@given(
    initial=st.lists(points, min_size=1, max_size=6),
    history=st.lists(stats_strategy(), max_size=4),
    ranges=st.lists(finite, min_size=1, max_size=6),
    converged=st.booleans(),
    rounds=st.integers(0, 500),
    kind=st.sampled_from(["laacad", "distributed", "static"]),
    comm=st.one_of(
        st.none(),
        st.builds(
            CommunicationSummary,
            messages=st.integers(0, 10**9),
            transmissions=st.integers(0, 10**9),
            bytes_sent=st.integers(0, 10**12),
            dropped=st.integers(0, 10**9),
        ),
    ),
    killed=st.one_of(st.none(), st.lists(st.integers(0, 100), max_size=5)),
)
def test_simulation_result_roundtrip_property(
    initial, history, ranges, converged, rounds, kind, comm, killed
):
    result = SimulationResult(
        config=LaacadConfig(k=1, seed=3),
        initial_positions=initial,
        final_positions=list(reversed(initial)),
        sensing_ranges=ranges,
        converged=converged,
        rounds_executed=rounds,
        history=history,
        kind=kind,
        communication=comm,
        killed_nodes=killed,
    )
    payload = json.loads(json.dumps(result.to_dict()))
    assert SimulationResult.from_dict(payload) == result
