"""Tests for the scenario subsystem: spec, registry, pipelines, sweep."""

import json

import pytest

import repro.scenarios.sweep as sweep_module
from repro.core.config import LaacadConfig
from repro.network.mobility import MobilityModel
from repro.scenarios import (
    ScenarioSpec,
    SweepRunner,
    available_families,
    available_pipelines,
    expand_grid,
    get_family,
    make_scenario,
    register_pipeline,
    run_scenarios,
)


class TestScenarioSpec:
    def test_dict_roundtrip_preserves_digest(self):
        spec = make_scenario("corner_cluster", k=3, node_count=17, max_rounds=9)
        clone = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert clone == spec
        assert clone.digest() == spec.digest()

    def test_digest_ignores_name_but_not_params(self):
        spec = ScenarioSpec(name="a", k=2)
        assert spec.digest() == spec.replace(name="b").digest()
        assert spec.digest() != spec.replace(k=3).digest()
        assert spec.digest() != spec.replace(seed=99).digest()

    def test_digest_is_engine_agnostic(self):
        # The engines are bit-identical, so a sweep cached under one
        # backend must resolve under the other.
        spec = ScenarioSpec(k=2)
        assert spec.digest() == spec.replace(engine="legacy").digest()

    def test_override_rejects_unknown_parameter(self):
        with pytest.raises(ValueError, match="unknown scenario parameter"):
            ScenarioSpec().override("node_cout", 8)
        with pytest.raises(ValueError, match="unknown scenario parameter"):
            ScenarioSpec().override("placment.kind", "random")

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown scenario fields"):
            ScenarioSpec.from_dict({"k": 2, "bogus": 1})

    def test_dotted_override(self):
        spec = ScenarioSpec(placement={"kind": "corner_cluster", "cluster_fraction": 0.15})
        updated = spec.override("placement.cluster_fraction", 0.3)
        assert updated.placement["cluster_fraction"] == 0.3
        assert updated.placement["kind"] == "corner_cluster"
        assert spec.placement["cluster_fraction"] == 0.15  # original untouched

    def test_dotted_override_requires_mapping_field(self):
        with pytest.raises(ValueError, match="not a mapping"):
            ScenarioSpec().override("k.sub", 1)

    def test_build_config_and_mobility(self):
        spec = ScenarioSpec(k=2, alpha=0.5, max_rounds=7, seed=5, mobility={"max_step": 0.1})
        config = spec.build_config()
        assert config == LaacadConfig(k=2, alpha=0.5, epsilon=1e-3, max_rounds=7, seed=5)
        assert spec.build_mobility() == MobilityModel(max_step=0.1)

    def test_placement_seed_defaults_to_seed(self):
        assert ScenarioSpec(seed=9).resolved_placement_seed() == 9
        assert ScenarioSpec(seed=9, placement_seed=4).resolved_placement_seed() == 4

    def test_same_hash_means_identical_results(self):
        # The determinism contract behind the content-addressed cache:
        # two runs of the same scenario hash are bit-identical.
        spec = make_scenario("corner_cluster", node_count=12, k=2, max_rounds=8)
        twin = ScenarioSpec.from_dict(spec.to_dict())
        assert twin.digest() == spec.digest()
        assert spec.run() == twin.run()

    def test_unknown_pipeline_fails_fast(self):
        with pytest.raises(ValueError, match="unknown pipeline"):
            ScenarioSpec(pipeline="warp_drive").run()

    def test_unknown_region_and_placement(self):
        with pytest.raises(ValueError, match="unknown region kind"):
            ScenarioSpec(region={"kind": "klein_bottle"}).build_region()
        with pytest.raises(ValueError, match="unknown placement kind"):
            ScenarioSpec(placement={"kind": "teleport"}).build_network()


class TestRegistry:
    def test_builtin_families_exist(self):
        names = set(available_families())
        assert {
            "open_field",
            "corner_cluster",
            "obstacle_field",
            "l_hall_obstacles",
            "node_failures",
            "constrained_mobility",
            "ring_probe",
            "voronoi_partition",
            "static_blueprint",
            "dense_uniform",
        } <= names

    def test_unknown_family_error_lists_choices(self):
        with pytest.raises(KeyError, match="open_field"):
            get_family("does_not_exist")

    def test_expand_grid_order_matches_nested_loops(self):
        base = ScenarioSpec()
        specs = expand_grid(base, {"node_count": [10, 20], "k": [1, 2]})
        cells = [(s.node_count, s.k) for s in specs]
        assert cells == [(10, 1), (10, 2), (20, 1), (20, 2)]

    def test_expand_grid_empty_returns_base(self):
        base = ScenarioSpec(k=4)
        assert expand_grid(base, {}) == [base]

    def test_override_pins_default_grid_axis(self):
        # A fixed override must not be swept away by the default grid.
        specs = get_family("open_field").grid(None, node_count=50)
        assert all(s.node_count == 50 for s in specs)
        assert [s.k for s in specs] == [1, 2, 3]

    def test_voronoi_pipeline_rejects_non_random_placement(self):
        spec = make_scenario(
            "voronoi_partition", node_count=10
        ).override("placement", {"kind": "lattice", "lattice": "triangular"})
        with pytest.raises(ValueError, match="voronoi pipeline"):
            spec.run()

    def test_family_default_grids_expand(self):
        for name in available_families():
            specs = get_family(name).grid()
            assert specs, name
            digests = {s.digest() for s in specs}
            assert len(digests) == len(specs), f"{name} grid has duplicate cells"

    def test_every_family_base_builds(self):
        # Each family's base spec must construct a valid network + config
        # (cheap structural check; no simulation).
        for name in available_families():
            spec = get_family(name).base.replace(node_count=10)
            spec.build_region()
            spec.build_config()
            spec.build_mobility()


class TestPipelines:
    def test_builtin_pipelines_registered(self):
        assert {
            "laacad",
            "static",
            "distributed",
            "voronoi",
            "rings",
            "localized_compare",
        } <= set(available_pipelines())

    def test_register_pipeline_roundtrip(self):
        register_pipeline("echo_test", lambda spec: {"k": spec.k})
        try:
            assert ScenarioSpec(pipeline="echo_test", k=7).run() == {"k": 7}
        finally:
            from repro.scenarios import pipelines

            del pipelines._PIPELINES["echo_test"]

    def test_static_pipeline_keeps_positions(self):
        result = make_scenario("static_blueprint", node_count=8, k=1).run()
        assert result["rounds_executed"] == 0
        assert result["initial_positions"] == result["final_positions"]
        assert all(r > 0 for r in result["sensing_ranges"])

    def test_distributed_pipeline_reports_failures(self):
        spec = make_scenario("node_failures", node_count=14, k=2, max_rounds=25)
        result = spec.run()
        # Crashes are scheduled at rounds 10 and 20; both fire within the cap.
        assert result["killed_nodes"] == [0, 1, 2]
        assert result["communication"]["messages"] > 0

    def test_constrained_mobility_limits_steps(self):
        free = make_scenario(
            "constrained_mobility", node_count=10, k=1, max_rounds=6, mobility={}
        ).run()
        limited = make_scenario(
            "constrained_mobility", node_count=10, k=1, max_rounds=6
        ).run()
        assert limited["total_movement"] < free["total_movement"]


class TestSweepRunner:
    def _grid(self, n=10, rounds=6):
        base = make_scenario("corner_cluster", node_count=n, max_rounds=rounds)
        return expand_grid(base, {"k": [1, 2]})

    def test_cache_hits_on_second_run(self, tmp_path):
        specs = self._grid()
        runner = SweepRunner(cache_dir=tmp_path)
        first = runner.run(specs)
        assert (first.hits, first.misses) == (0, 2)
        second = runner.run(specs)
        assert (second.hits, second.misses) == (2, 0)
        assert second.results == first.results

    def test_resume_computes_only_missing_cells(self, tmp_path):
        specs = self._grid()
        runner = SweepRunner(cache_dir=tmp_path)
        runner.run(specs[:1])
        report = runner.run(specs)
        assert (report.hits, report.misses) == (1, 1)

    def test_parallel_results_equal_serial(self, tmp_path, monkeypatch):
        # Pool size is capped at the usable CPUs; pretend there are two
        # so the pooled path runs on a one-CPU host too.
        monkeypatch.setattr(sweep_module, "_usable_cores", lambda: 2)
        specs = self._grid()
        serial = SweepRunner(jobs=1).run(specs)
        parallel = SweepRunner(jobs=2).run(specs)
        assert parallel.results == serial.results
        # ... and a jobs>1 run populates the same cache a serial run reads.
        SweepRunner(cache_dir=tmp_path, jobs=2).run(specs)
        warmed = SweepRunner(cache_dir=tmp_path, jobs=1).run(specs)
        assert warmed.misses == 0
        assert warmed.results == serial.results

    def test_duplicate_specs_computed_once(self):
        spec = self._grid()[0]
        report = SweepRunner().run([spec, spec, spec])
        assert report.misses == 1
        assert len(report.outcomes) == 3
        assert report.results[0] == report.results[1] == report.results[2]

    def test_stale_or_mismatched_cache_entries_recompute(self, tmp_path):
        spec = self._grid()[0]
        runner = SweepRunner(cache_dir=tmp_path)
        runner.run([spec])
        path = runner._cache_path(spec.digest())
        payload = json.loads(path.read_text())
        payload["schema_version"] = -1
        path.write_text(json.dumps(payload))
        assert runner.run([spec]).misses == 1

    def test_corrupt_cache_file_recomputes(self, tmp_path):
        spec = self._grid()[0]
        runner = SweepRunner(cache_dir=tmp_path)
        runner.run([spec])
        runner._cache_path(spec.digest()).write_text("{not json")
        report = runner.run([spec])
        assert report.misses == 1

    def test_jobs_validation(self):
        with pytest.raises(ValueError):
            SweepRunner(jobs=0)

    def test_run_scenarios_convenience(self):
        results = run_scenarios(self._grid())
        assert len(results) == 2
        assert all("rounds_executed" in r for r in results)
