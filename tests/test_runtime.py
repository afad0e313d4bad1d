"""Unit tests for the distributed runtime: messages, scheduler, agents, failures."""

import numpy as np
import pytest

from repro.core.config import LaacadConfig
from repro.network.network import SensorNetwork
from repro.regions.shapes import unit_square
from repro.runtime.failures import FailureInjector
from repro.runtime.messages import (
    HEADER_BYTES,
    Message,
    MessageKind,
    convergence_vote,
    position_report,
    ring_query,
)
from repro.api import Simulation
from repro.runtime.protocol import LaacadAgent
from repro.runtime.scheduler import SynchronousScheduler


class TestMessages:
    def test_message_validation(self):
        with pytest.raises(ValueError):
            Message(MessageKind.RING_QUERY, 0, 1, {}, hops=0)
        with pytest.raises(ValueError):
            Message(MessageKind.RING_QUERY, 0, 1, {}, size_bytes=0)

    def test_message_ids_unique(self):
        a = ring_query(0, 1, 0.5, 1)
        b = ring_query(0, 1, 0.5, 1)
        assert a.message_id != b.message_id

    def test_ring_query_payload(self):
        msg = ring_query(3, 7, 0.25, 2)
        assert msg.kind is MessageKind.RING_QUERY
        assert msg.payload["radius"] == 0.25
        assert msg.hops == 2
        assert msg.size_bytes > HEADER_BYTES

    def test_position_report_payload(self):
        msg = position_report(1, 2, (0.3, 0.4), 3)
        assert msg.kind is MessageKind.POSITION_REPORT
        assert msg.payload["position"] == (0.3, 0.4)

    def test_convergence_vote(self):
        msg = convergence_vote(0, 1, True)
        assert msg.payload["settled"] is True
        assert msg.hops == 1


class TestScheduler:
    def test_send_and_collect(self):
        sched = SynchronousScheduler()
        sched.send(ring_query(0, 1, 0.5, 2))
        inbox = sched.collect_inbox(1)
        assert len(inbox) == 1
        assert sched.collect_inbox(1) == []

    def test_accounting(self):
        sched = SynchronousScheduler()
        msg = position_report(0, 1, (0.1, 0.2), 3)
        sched.send(msg)
        assert sched.stats.messages == 1
        assert sched.stats.transmissions == 3
        assert sched.stats.bytes_sent == msg.size_bytes * 3

    def test_round_bookkeeping(self):
        sched = SynchronousScheduler()
        assert sched.begin_round() == 0
        sched.send(ring_query(0, 1, 0.5, 1))
        sched.end_round()
        assert sched.stats.per_round_messages == [1]
        assert sched.begin_round() == 1

    def test_drop_probability(self):
        sched = SynchronousScheduler(drop_probability=0.5, rng=np.random.default_rng(0))
        delivered = sum(
            1 for _ in range(200) if sched.send(ring_query(0, 1, 0.5, 1))
        )
        assert 50 < delivered < 150
        assert sched.stats.dropped == 200 - delivered

    def test_drop_probability_validation(self):
        with pytest.raises(ValueError):
            SynchronousScheduler(drop_probability=1.0)

    def test_reset(self):
        sched = SynchronousScheduler()
        sched.begin_round()
        sched.send(ring_query(0, 1, 0.5, 1))
        sched.end_round()
        sched.reset()
        assert sched.stats.messages == 0
        assert sched.collect_inbox(1) == []
        assert sched.current_round == -1

    def test_record_counts_like_send(self):
        # The counting fast path must account exactly like send() —
        # same counters, no Message, nothing delivered.
        by_send = SynchronousScheduler()
        by_send.begin_round()
        by_send.send(ring_query(0, 1, 0.5, 2))
        by_send.send(position_report(1, 0, (0.3, 0.4), 2))
        by_record = SynchronousScheduler()
        by_record.begin_round()
        for msg in (ring_query(0, 1, 0.5, 2), position_report(1, 0, (0.3, 0.4), 2)):
            assert by_record.record(msg.hops, msg.size_bytes)
        assert by_record.stats.messages == by_send.stats.messages
        assert by_record.stats.transmissions == by_send.stats.transmissions
        assert by_record.stats.bytes_sent == by_send.stats.bytes_sent
        assert by_record.collect_inbox(1) == []

    def test_record_draws_the_same_loss_stream_as_send(self):
        lossy_send = SynchronousScheduler(
            drop_probability=0.4, rng=np.random.default_rng(3)
        )
        lossy_record = SynchronousScheduler(
            drop_probability=0.4, rng=np.random.default_rng(3)
        )
        sent = [lossy_send.send(ring_query(0, 1, 0.5, 1)) for _ in range(100)]
        recorded = [lossy_record.record(1, 20) for _ in range(100)]
        assert sent == recorded
        assert lossy_send.stats.dropped == lossy_record.stats.dropped

    def test_record_many_matches_scalar_records(self):
        hops = np.asarray([1, 3, 2, 5, 1, 1])
        sizes = np.asarray([20, 24, 20, 24, 20, 24])
        scalar = SynchronousScheduler(
            drop_probability=0.5, rng=np.random.default_rng(9)
        )
        batched = SynchronousScheduler(
            drop_probability=0.5, rng=np.random.default_rng(9)
        )
        scalar.begin_round()
        batched.begin_round()
        expected = [scalar.record(int(h), int(s)) for h, s in zip(hops, sizes)]
        delivered = batched.record_many(hops, sizes)
        assert list(delivered) == expected
        assert batched.stats == scalar.stats
        assert batched.record_many(np.asarray([], dtype=int), np.asarray([], dtype=int)).shape == (0,)

    def test_record_many_loss_free_draws_nothing(self):
        sched = SynchronousScheduler(rng=np.random.default_rng(5))
        state_before = sched._rng.bit_generator.state
        delivered = sched.record_many(np.asarray([2, 2]), np.asarray([20, 24]))
        assert delivered.all()
        assert sched._rng.bit_generator.state == state_before
        assert sched.stats.messages == 2
        assert sched.stats.transmissions == 4
        assert sched.stats.bytes_sent == 2 * 20 + 2 * 24

    def test_commit_of_own_draws_matches_record_many(self):
        hops = np.asarray([1, 1, 3, 3, 2, 2])
        sizes = np.asarray([20, 24, 20, 24, 20, 24])
        recorded = SynchronousScheduler(
            drop_probability=0.4, rng=np.random.default_rng(4)
        )
        committed = SynchronousScheduler(
            drop_probability=0.4, rng=np.random.default_rng(4)
        )
        recorded.begin_round()
        committed.begin_round()
        delivered = recorded.record_many(hops, sizes)
        draws = committed.rng.random(hops.shape[0])
        assert list(draws >= 0.4) == list(delivered)
        committed.commit(
            messages=hops.shape[0],
            transmissions=int(hops.sum()),
            bytes_sent=int((hops * sizes).sum()),
            dropped=int((draws < 0.4).sum()),
        )
        recorded.end_round()
        committed.end_round()
        assert committed.stats == recorded.stats
        assert committed.rng.bit_generator.state == recorded.rng.bit_generator.state


class TestFailureInjector:
    def test_scheduled_failures(self, square):
        net = SensorNetwork(square, [(0.1, 0.1), (0.5, 0.5), (0.9, 0.9)], comm_range=0.3)
        injector = FailureInjector(scheduled={2: [0, 1]})
        assert injector.apply(net, 0) == []
        killed = injector.apply(net, 2)
        assert set(killed) == {0, 1}
        assert injector.total_killed() == 2
        assert not net.node(0).alive

    def test_double_kill_is_idempotent(self, square):
        net = SensorNetwork(square, [(0.1, 0.1), (0.5, 0.5)], comm_range=0.3)
        injector = FailureInjector(scheduled={0: [0], 1: [0]})
        injector.apply(net, 0)
        assert injector.apply(net, 1) == []

    def test_random_failures(self, square):
        net = SensorNetwork(square, [(0.1 * i, 0.5) for i in range(1, 10)], comm_range=0.3)
        injector = FailureInjector(random_failure_rate=0.5, rng=np.random.default_rng(1))
        injector.apply(net, 0)
        assert 0 < injector.total_killed() < 9

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            FailureInjector(random_failure_rate=1.5)

    def test_from_dict_coerces_json_keys(self, square):
        # Scenario specs round-trip through JSON, which stringifies the
        # round indices; from_dict must coerce them back.
        injector = FailureInjector.from_dict(
            {"scheduled": {"2": [0, 1]}, "random_failure_rate": 0.0, "seed": 3}
        )
        assert injector.scheduled == {2: [0, 1]}
        net = SensorNetwork(square, [(0.1, 0.1), (0.5, 0.5), (0.9, 0.9)], comm_range=0.3)
        assert set(injector.apply(net, 2)) == {0, 1}

    def test_from_dict_defaults_and_validation(self):
        injector = FailureInjector.from_dict({})
        assert injector.scheduled == {}
        assert injector.random_failure_rate == 0.0
        with pytest.raises(ValueError, match="unknown failure options"):
            FailureInjector.from_dict({"cadence": 3})
        with pytest.raises(ValueError):
            FailureInjector.from_dict({"random_failure_rate": 2.0})

    def test_from_dict_random_failures_are_seeded(self, square):
        spec = {"random_failure_rate": 0.5, "seed": 7}

        def run():
            net = SensorNetwork(
                square, [(0.1 * i, 0.5) for i in range(1, 10)], comm_range=0.3
            )
            injector = FailureInjector.from_dict(spec)
            injector.apply(net, 0)
            return injector.killed

        assert run() == run()


class TestLaacadAgent:
    def test_dead_agent_is_inert(self, square):
        net = SensorNetwork(square, [(0.2, 0.2), (0.8, 0.8)], comm_range=0.3)
        sched = SynchronousScheduler()
        config = LaacadConfig(k=1, max_rounds=5)
        agent = LaacadAgent(0, net, sched, config)
        net.kill_node(0)
        agent.step(0)
        assert agent.last_region is None
        assert agent.proposed_target is None

    def test_agent_proposes_move_towards_center(self, square):
        net = SensorNetwork(square, [(0.1, 0.1), (0.9, 0.9)], comm_range=0.4)
        sched = SynchronousScheduler()
        config = LaacadConfig(k=1, max_rounds=5)
        agent = LaacadAgent(0, net, sched, config)
        agent.step(0)
        assert agent.last_region is not None
        assert agent.proposed_target is not None
        assert sched.stats.messages > 0


class TestDistributedRunner:
    def test_requires_enough_nodes(self, square):
        net = SensorNetwork(square, [(0.5, 0.5)], comm_range=0.3)
        with pytest.raises(ValueError):
            Simulation(
                network=net, config=LaacadConfig(k=2, max_rounds=5), kind="distributed"
            )

    def test_run_produces_coverage(self, square):
        from repro.analysis.coverage import is_k_covered

        net = SensorNetwork.from_random(
            square, 14, comm_range=0.35, rng=np.random.default_rng(2)
        )
        config = LaacadConfig(k=2, alpha=1.0, epsilon=2e-3, max_rounds=40)
        result = Simulation(network=net, config=config, kind="distributed").run()
        assert result.communication.messages > 0
        assert is_k_covered(
            result.final_positions, result.sensing_ranges, square, 2, resolution=40
        )

    def test_failures_reduce_alive_count(self, square):
        net = SensorNetwork.from_random(
            square, 12, comm_range=0.4, rng=np.random.default_rng(3)
        )
        injector = FailureInjector(scheduled={3: [0, 1]})
        config = LaacadConfig(k=1, alpha=1.0, epsilon=2e-3, max_rounds=20)
        result = Simulation(
            network=net, config=config, kind="distributed", failure_injector=injector
        ).run()
        assert len(net.alive_nodes()) == 10
        # Dead nodes report zero sensing range.
        assert result.sensing_ranges[0] == 0.0
        assert result.sensing_ranges[1] == 0.0

    def test_message_loss_still_converges(self, square):
        net = SensorNetwork.from_random(
            square, 10, comm_range=0.4, rng=np.random.default_rng(4)
        )
        config = LaacadConfig(k=1, alpha=1.0, epsilon=5e-3, max_rounds=40)
        result = Simulation(
            network=net, config=config, kind="distributed", drop_probability=0.05
        ).run()
        assert result.communication.dropped > 0
        assert result.max_sensing_range > 0

