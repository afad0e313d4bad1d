"""The public surface of the :mod:`repro` packages, pinned.

Every package's ``__all__`` must resolve; the four entry-point packages
export exactly the committed names; the 1.x runner entry points removed
in 2.0 stay removed; and the package version matches the distribution
metadata.
"""

import dataclasses
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import repro

PACKAGES = sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.") if info.ispkg
)

PUBLIC = {
    "repro": {
        "BatchedRoundEngine",
        "Deployer",
        "DominatingRegion",
        "EnergyModel",
        "KOrderVoronoiDiagram",
        "LaacadConfig",
        "LegacyRoundEngine",
        "MinNodeSizer",
        "NodeArrayState",
        "Region",
        "RoundEngine",
        "RoundEvent",
        "RoundStats",
        "ScenarioFamily",
        "ScenarioSpec",
        "SensorNetwork",
        "SessionState",
        "Simulation",
        "SimulationCheckpoint",
        "SimulationResult",
        "SweepRunner",
        "__version__",
        "available_engines",
        "available_families",
        "compute_dominating_region",
        "cross_region",
        "deploy",
        "evaluate_coverage",
        "expand_grid",
        "is_k_covered",
        "l_shaped_region",
        "localized_dominating_region",
        "make_engine",
        "make_scenario",
        "rectangle_region",
        "register_family",
        "run_scenarios",
        "square_region",
        "unit_square",
    },
    "repro.api": {
        "CHECKPOINT_DIR_ENV",
        "CHECKPOINT_EVERY_ENV",
        "CHECKPOINT_VERSION",
        "CentralizedDeployer",
        "CommunicationSummary",
        "ConvergenceProbe",
        "CoverageProbe",
        "DEPLOYERS",
        "Deployer",
        "DistributedDeployer",
        "DistributedRoundStats",
        "EnergyProbe",
        "RESULT_FORMAT_VERSION",
        "RoundEvent",
        "RoundStats",
        "SessionState",
        "Simulation",
        "SimulationCheckpoint",
        "SimulationResult",
        "StaticDeployer",
        "checkpoint_path_for",
        "deploy",
        "resolve_checkpoint_dir",
        "resolve_checkpoint_every",
    },
    "repro.core": {
        "ConvergenceTracker",
        "LaacadConfig",
        "LocalizedComputation",
        "MinNodeResult",
        "MinNodeSizer",
        "localized_dominating_region",
    },
    "repro.runtime": {
        "CommunicationStats",
        "DistributedEngineRound",
        "DistributedRoundEngine",
        "DistributedRoundStats",
        "FailureInjector",
        "LegacyDistributedEngine",
        "Message",
        "MessageKind",
        "NodeAgent",
        "SparseDistributedEngine",
        "SynchronousScheduler",
        "available_distributed_engines",
        "make_distributed_engine",
        "register_distributed_engine",
    },
}

#: The 1.x runner entry points, by the module that used to export them.
REMOVED = {
    "repro": ["LaacadRunner", "LaacadResult", "run_laacad", "DistributedLaacadRunner"],
    "repro.core": ["LaacadRunner", "LaacadResult", "RoundStats", "run_laacad"],
    "repro.runtime": ["DistributedLaacadRunner"],
    "repro.runtime.protocol": ["DistributedLaacadRunner"],
}


@pytest.mark.parametrize("package", PACKAGES)
def test_all_resolves(package):
    module = importlib.import_module(package)
    assert module.__all__, package
    assert len(set(module.__all__)) == len(module.__all__), package
    for name in module.__all__:
        assert hasattr(module, name), f"{package}.{name}"


@pytest.mark.parametrize("package", sorted(PUBLIC))
def test_all(package):
    assert set(importlib.import_module(package).__all__) == PUBLIC[package]


@pytest.mark.parametrize("package", sorted(REMOVED))
def test_removed_names_stay_removed(package):
    module = importlib.import_module(package)
    for name in REMOVED[package]:
        assert not hasattr(module, name), f"{package}.{name}"


def test_removed_modules_and_members():
    from repro.api.deployers import DistributedDeployer
    from repro.core.config import LaacadConfig
    from repro.scenarios.spec import ScenarioSpec

    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.core.laacad")
    assert not hasattr(ScenarioSpec, "build_runner")
    assert not hasattr(ScenarioSpec, "build_distributed_runner")
    assert not hasattr(DistributedDeployer, "agents")
    assert "use_localized" not in {f.name for f in dataclasses.fields(LaacadConfig)}


def test_version_matches_distribution_metadata():
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    match = re.search(
        r'^\[project\][^\[]*?^version = "([^"]+)"', pyproject.read_text(), re.M | re.S
    )
    assert match is not None
    assert repro.__version__ == match.group(1)
