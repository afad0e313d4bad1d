"""Checkpoint/resume determinism: a restored run is bitwise-identical.

The acceptance bar of the API redesign: checkpoint at round r, restore
(through actual JSON), run to convergence, and every output — positions,
sensing ranges, full history, communication totals — equals the
uninterrupted run exactly (``==`` on floats, no tolerances), across both
round engines, for centralized and distributed (lossy, failing) runs
alike, and for checkpoints written by 1.x.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.api import Simulation, SimulationCheckpoint, SimulationResult
from repro.api.checkpoint import checkpoint_path_for
from repro.core.config import LaacadConfig
from repro.network.network import SensorNetwork
from repro.runtime.failures import FailureInjector
from repro.scenarios import SweepRunner, make_scenario


def _assert_bitwise_equal(resumed, baseline):
    assert resumed.final_positions == baseline.final_positions
    assert resumed.sensing_ranges == baseline.sensing_ranges
    assert resumed.converged == baseline.converged
    assert resumed.rounds_executed == baseline.rounds_executed
    assert [dataclasses.asdict(s) for s in resumed.history] == [
        dataclasses.asdict(s) for s in baseline.history
    ]
    assert resumed.position_history == baseline.position_history
    assert resumed.communication == baseline.communication
    assert resumed.killed_nodes == baseline.killed_nodes


class TestCentralizedResumeDeterminism:
    @pytest.mark.parametrize("engine", ["legacy", "batched"])
    def test_mid_run_restore_is_bitwise_identical(self, square, engine):
        config = LaacadConfig(
            k=2,
            epsilon=2e-3,
            max_rounds=18,
            engine=engine,
            record_positions=True,
        )

        def session():
            return Simulation(
                network=SensorNetwork.from_corner_cluster(
                    square, 10, comm_range=0.3, rng=np.random.default_rng(3)
                ),
                config=config,
            )

        baseline = session().run()
        interrupted = session()
        interrupted.run(until=5)
        # The checkpoint crosses a real JSON round-trip, like a file would.
        payload = json.loads(json.dumps(interrupted.checkpoint().to_dict()))
        resumed = Simulation.restore(payload).run()
        _assert_bitwise_equal(resumed, baseline)

    def test_restore_at_round_cap_matches(self, square):
        config = LaacadConfig(k=2, epsilon=1e-6, max_rounds=6)

        def session():
            return Simulation(
                network=SensorNetwork.from_corner_cluster(
                    square, 8, comm_range=0.3, rng=np.random.default_rng(4)
                ),
                config=config,
            )

        baseline = session().run()
        assert not baseline.converged  # the cap binds
        interrupted = session()
        interrupted.run(until=3)
        resumed = Simulation.restore(interrupted.checkpoint().to_dict()).run()
        _assert_bitwise_equal(resumed, baseline)


class TestDistributedResumeDeterminism:
    def _session(self, square):
        return Simulation(
            network=SensorNetwork.from_random(
                square, 10, comm_range=0.4, rng=np.random.default_rng(7)
            ),
            config=LaacadConfig(k=1, epsilon=3e-3, max_rounds=16),
            kind="distributed",
            drop_probability=0.05,
            failure_injector=FailureInjector(
                scheduled={3: [0]}, random_failure_rate=0.01
            ),
        )

    def test_rng_streams_survive_the_checkpoint(self, square):
        baseline = self._session(square).run()
        interrupted = self._session(square)
        interrupted.run(until=6)
        payload = json.loads(json.dumps(interrupted.checkpoint().to_dict()))
        resumed = Simulation.restore(payload).run()
        _assert_bitwise_equal(resumed, baseline)

    def test_killed_list_restored(self, square):
        interrupted = self._session(square)
        interrupted.run(until=6)
        restored = Simulation.restore(interrupted.checkpoint().to_dict())
        assert 0 in restored.deployer.failure_injector.killed
        assert not restored.network.node(0).alive


class TestCheckpointFiles:
    def test_save_and_restore_from_path(self, square, tmp_path):
        sim = Simulation(
            network=SensorNetwork.from_corner_cluster(
                square, 8, comm_range=0.3, rng=np.random.default_rng(5)
            ),
            config=LaacadConfig(k=1, epsilon=2e-3, max_rounds=20),
        )
        sim.run(until=3)
        path = sim.save_checkpoint(tmp_path / "nested" / "run.ckpt.json")
        assert path.exists()
        loaded = SimulationCheckpoint.load(path)
        assert loaded.kind == "laacad"
        assert loaded.rounds_executed == 3
        resumed = Simulation.restore(path)
        assert resumed.state.rounds_executed == 3

    def test_completed_checkpoint_carries_result(self, square):
        sim = Simulation(
            network=SensorNetwork.from_corner_cluster(
                square, 8, comm_range=0.3, rng=np.random.default_rng(5)
            ),
            config=LaacadConfig(k=1, epsilon=2e-3, max_rounds=40),
        )
        result = sim.run()
        restored = Simulation.restore(json.loads(json.dumps(sim.checkpoint().to_dict())))
        assert restored.done
        assert restored.result() == result

    def test_done_checkpoint_finalizes_before_snapshotting_nodes(self, square):
        # Stepping to completion without calling result() must not leak
        # zero sensing ranges into the checkpoint's node snapshot.
        sim = Simulation(
            network=SensorNetwork.from_corner_cluster(
                square, 8, comm_range=0.3, rng=np.random.default_rng(5)
            ),
            config=LaacadConfig(k=1, epsilon=2e-3, max_rounds=40),
        )
        while not sim.done:
            sim.step()
        restored = Simulation.restore(json.loads(json.dumps(sim.checkpoint().to_dict())))
        assert restored.network.sensing_ranges() == restored.result().sensing_ranges
        assert all(r > 0 for r in restored.network.sensing_ranges())

    def test_non_default_bit_generator_survives_checkpoint(self, square):
        def session():
            return Simulation(
                network=SensorNetwork.from_random(
                    square, 8, comm_range=0.4, rng=np.random.default_rng(9)
                ),
                config=LaacadConfig(k=1, epsilon=3e-3, max_rounds=12),
                kind="distributed",
                drop_probability=0.1,
                rng=np.random.Generator(np.random.Philox(42)),
            )

        baseline = session().run()
        interrupted = session()
        interrupted.run(until=4)
        payload = json.loads(json.dumps(interrupted.checkpoint().to_dict()))
        resumed = Simulation.restore(payload).run()
        _assert_bitwise_equal(resumed, baseline)

    def test_unknown_checkpoint_version_rejected(self):
        with pytest.raises(ValueError, match="checkpoint_version"):
            SimulationCheckpoint.from_dict({"checkpoint_version": 999})

    def test_spec_round_trips_through_checkpoint(self):
        spec = make_scenario("corner_cluster", node_count=8, k=1, max_rounds=10)
        sim = Simulation.from_spec(spec)
        sim.run(until=2)
        restored = Simulation.restore(sim.checkpoint().to_dict())
        assert restored.spec == spec

    def test_resume_or_start_ignores_foreign_checkpoint(self, tmp_path):
        spec_a = make_scenario("corner_cluster", node_count=8, k=1, max_rounds=10)
        spec_b = spec_a.replace(seed=spec_a.seed + 1)
        sim = Simulation.from_spec(spec_a)
        sim.run(until=2)
        path = tmp_path / "cell.ckpt.json"
        sim.save_checkpoint(path)
        resumed = Simulation.resume_or_start(spec_a, path)
        assert resumed.state.rounds_executed == 2
        with pytest.warns(UserWarning, match="ignoring checkpoint"):
            fresh = Simulation.resume_or_start(spec_b, path)
        assert fresh.state.rounds_executed == 0


class TestOneXPayloads:
    """Payloads written by 1.x carry ``config.use_localized``.

    ``False`` named the only behaviour 2.0 keeps, so such results and
    checkpoints load and resume bitwise; ``True`` selected the removed
    centralized Algorithm-2 mode and must be refused by every loader.
    """

    @staticmethod
    def _as_1x(payload, use_localized=False):
        payload = json.loads(json.dumps(payload))
        for holder in (payload, payload.get("result")):
            if holder is not None and holder.get("config") is not None:
                holder["config"]["use_localized"] = use_localized
        return payload

    @staticmethod
    def _session(square, kind="laacad"):
        return Simulation(
            network=SensorNetwork.from_corner_cluster(
                square, 10, comm_range=0.3, rng=np.random.default_rng(3)
            ),
            config=LaacadConfig(k=2, epsilon=2e-3, max_rounds=12),
            kind=kind,
        )

    @pytest.mark.parametrize("kind", ["laacad", "distributed"])
    def test_1x_result_dict_loads(self, square, kind):
        result = self._session(square, kind).run()
        payload = self._as_1x(result.to_dict())
        assert SimulationResult.from_dict(payload) == result

    @pytest.mark.parametrize("kind", ["laacad", "distributed"])
    def test_1x_checkpoint_resumes_bitwise(self, square, kind):
        baseline = self._session(square, kind).run()
        interrupted = self._session(square, kind)
        interrupted.run(until=4)
        payload = self._as_1x(interrupted.checkpoint().to_dict())
        _assert_bitwise_equal(Simulation.restore(payload).run(), baseline)

    def test_1x_completed_checkpoint_carries_result(self, square):
        sim = self._session(square)
        result = sim.run()
        restored = Simulation.restore(self._as_1x(sim.checkpoint().to_dict()))
        assert restored.result() == result

    def test_use_localized_true_refused_by_every_loader(self, square):
        sim = self._session(square)
        sim.run(until=2)
        checkpoint = self._as_1x(sim.checkpoint().to_dict(), use_localized=True)
        result = self._as_1x(
            self._session(square).run().to_dict(), use_localized=True
        )
        net = SensorNetwork(square, [(0.2, 0.2), (0.8, 0.8)], comm_range=0.4)
        loaders = [
            lambda: SimulationResult.from_dict(result),
            lambda: Simulation.restore(checkpoint),
            lambda: Simulation(network=net, use_localized=True),
        ]
        for load in loaders:
            with pytest.raises(ValueError, match='kind="distributed"'):
                load()


class TestSweepCheckpointing:
    def _spec(self):
        return make_scenario("corner_cluster", node_count=8, k=1, max_rounds=12)

    def test_interrupted_cell_resumes_from_checkpoint_dir(self, tmp_path):
        spec = self._spec()
        baseline = SweepRunner().run([spec]).results[0]

        # Simulate preemption: a mid-run checkpoint exists for the cell.
        checkpoint_dir = tmp_path / "ckpt"
        interrupted = Simulation.from_spec(spec)
        interrupted.run(until=4)
        interrupted.save_checkpoint(checkpoint_path_for(checkpoint_dir, spec.digest()))

        runner = SweepRunner(
            cache_dir=tmp_path / "cache",
            checkpoint_dir=checkpoint_dir,
            checkpoint_every=3,
        )
        report = runner.run([spec])
        assert report.misses == 1
        assert report.results[0] == baseline
        # The finished cell cleans its checkpoint up.
        assert not checkpoint_path_for(checkpoint_dir, spec.digest()).exists()

    def test_checkpointed_sweep_equals_plain_sweep(self, tmp_path):
        spec = self._spec()
        plain = SweepRunner().run([spec]).results[0]
        checkpointed = SweepRunner(
            checkpoint_dir=tmp_path / "ckpt", checkpoint_every=2
        ).run([spec]).results[0]
        assert checkpointed == plain

    def test_checkpoint_env_restored_after_run(self, tmp_path, monkeypatch):
        from repro.api.checkpoint import CHECKPOINT_DIR_ENV, CHECKPOINT_EVERY_ENV

        monkeypatch.delenv(CHECKPOINT_DIR_ENV, raising=False)
        monkeypatch.delenv(CHECKPOINT_EVERY_ENV, raising=False)
        SweepRunner(checkpoint_dir=tmp_path, checkpoint_every=5).run([self._spec()])
        import os

        assert CHECKPOINT_DIR_ENV not in os.environ
        assert CHECKPOINT_EVERY_ENV not in os.environ


class TestCliCheckpointFlags:
    def test_resume_from_file_completes_the_run(self, tmp_path, capsys):
        from repro.experiments.cli import main

        spec = make_scenario("corner_cluster", node_count=8, k=1, max_rounds=12)
        baseline = Simulation.from_spec(spec).run()
        sim = Simulation.from_spec(spec)
        sim.run(until=4)
        path = tmp_path / "cell.ckpt.json"
        sim.save_checkpoint(path)

        out_dir = tmp_path / "results"
        code = main(["run", "--resume-from", str(path), "--output-dir", str(out_dir)])
        captured = capsys.readouterr().out
        assert code == 0
        assert "resuming laacad session" in captured
        result_files = list(out_dir.glob("*.result.json"))
        assert len(result_files) == 1
        payload = json.loads(result_files[0].read_text())
        assert payload["final_positions"] == baseline.to_dict()["final_positions"]

    def test_resume_from_missing_path_errors(self, tmp_path):
        from repro.experiments.cli import main

        code = main(
            ["run", "fig2_rings", "--resume-from", str(tmp_path / "nope"), "--no-files"]
        )
        assert code == 2

    def test_run_without_experiment_or_resume_errors(self):
        from repro.experiments.cli import main

        assert main(["run", "--no-files"]) == 2

    def test_checkpoint_flags_thread_into_environment(self, tmp_path, monkeypatch):
        from repro.api.checkpoint import CHECKPOINT_DIR_ENV, CHECKPOINT_EVERY_ENV
        from repro.experiments.cli import _apply_sweep_options, build_parser

        monkeypatch.delenv(CHECKPOINT_DIR_ENV, raising=False)
        monkeypatch.delenv(CHECKPOINT_EVERY_ENV, raising=False)
        args = build_parser().parse_args(
            [
                "run",
                "fig2_rings",
                "--checkpoint-every",
                "7",
                "--checkpoint-dir",
                str(tmp_path / "ck"),
            ]
        )
        _apply_sweep_options(args)
        import os

        assert os.environ[CHECKPOINT_EVERY_ENV] == "7"
        assert os.environ[CHECKPOINT_DIR_ENV] == str(tmp_path / "ck")
        monkeypatch.delenv(CHECKPOINT_DIR_ENV, raising=False)
        monkeypatch.delenv(CHECKPOINT_EVERY_ENV, raising=False)
