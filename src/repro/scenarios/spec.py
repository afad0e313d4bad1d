"""The declarative scenario specification.

A :class:`ScenarioSpec` is a frozen, fully serializable description of
one simulation: the target area, how the nodes are placed, the LAACAD
parameters, the execution pipeline and every seed involved.  Two specs
with the same canonical dict are the same experiment — the sha256 digest
of that dict is the content address the sweep cache is keyed by.

The spec is deliberately *plain data*: regions, placements, mobility
constraints and failure schedules are small dicts (``{"kind": ...}``)
rather than live objects, so a spec round-trips through JSON, hashes
stably, and crosses process boundaries into sweep workers unchanged.
Construction of the live objects is delegated to the scenario-driven
hooks on the domain classes (``SensorNetwork.from_placement``,
``MobilityModel.from_dict``, ``FailureInjector.from_dict``,
``LaacadConfig.from_mapping``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any, Dict, List, Mapping, Optional

from repro.core.config import LaacadConfig
from repro.network.mobility import MobilityModel
from repro.regions.region import Region
from repro.regions.shapes import (
    cross_region,
    figure8_region_one,
    figure8_region_two,
    l_shaped_region,
    rectangle_region,
    square_region,
    unit_square,
)

#: Bump when the result payload layout changes; stale cache entries are
#: recomputed instead of being misread.  Version 2: deployment pipelines
#: serialize through ``SimulationResult.to_dict`` (payloads gained the
#: lossless ``schema_version``/``kind``/``config`` fields).
RESULT_SCHEMA_VERSION = 2


def _region_from_dict(spec: Mapping[str, Any]) -> Region:
    """Build the target area described by a region dict."""
    kind = spec.get("kind", "unit_square")
    params = {k: v for k, v in spec.items() if k != "kind"}
    if kind == "unit_square":
        return unit_square(**params)
    if kind == "square":
        return square_region(**params)
    if kind == "rectangle":
        return rectangle_region(**params)
    if kind == "l_shape":
        return l_shaped_region(**params)
    if kind == "cross":
        return cross_region(**params)
    if kind == "fig8_region_one":
        return figure8_region_one(**params)
    if kind == "fig8_region_two":
        return figure8_region_two(**params)
    if kind == "polygon":
        outer = [tuple(p) for p in params["outer"]]
        holes = [[tuple(p) for p in hole] for hole in params.get("holes", [])]
        return Region(outer, holes=holes, name=params.get("name", "polygon"))
    raise ValueError(f"unknown region kind {kind!r}")


def _canonicalize(value: Any) -> Any:
    """Deep-convert a value into canonical JSON-compatible form.

    Tuples become lists, mappings become plain dicts, and non-string
    mapping keys are stringified the way ``json.dumps`` would, so the
    canonical dict of a spec is identical whether it was built in Python
    or reloaded from a cache file.
    """
    if isinstance(value, Mapping):
        return {str(k): _canonicalize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonicalize(v) for v in value]
    if isinstance(value, (str, bool, type(None))):
        return value
    if isinstance(value, int):
        return int(value)
    if isinstance(value, float):
        return float(value)
    raise TypeError(f"value {value!r} is not scenario-serializable")


@dataclasses.dataclass(frozen=True)
class ScenarioSpec:
    """Declarative description of one simulation run.

    Attributes:
        name: human-readable label (not part of the content hash).
        pipeline: which execution pipeline interprets the spec — see
            ``repro.scenarios.pipelines`` (``"laacad"``, ``"static"``,
            ``"distributed"``, ``"voronoi"``, ``"rings"``,
            ``"localized_compare"``).
        region: region dict (``{"kind": "unit_square"}``,
            ``{"kind": "fig8_region_one"}``, ...).
        node_count: number of nodes to place (spacing-driven lattice
            placements may override it; the result records the actual
            count).
        k: coverage order.
        comm_range: transmission range ``gamma``.
        placement: placement dict (``{"kind": "random"}``,
            ``{"kind": "corner_cluster", "cluster_fraction": 0.15}``,
            ``{"kind": "lattice", "lattice": "triangular"}``,
            ``{"kind": "triangular_spacing", "spacing": 0.1}``).
        alpha, epsilon, max_rounds: Algorithm 1 knobs.
        seed: the LAACAD config seed.
        placement_seed: RNG seed of the initial placement; ``None``
            means "use ``seed``".
        engine: round-engine backend name (``"sparse"`` by default;
            see ``LaacadConfig.engine``).
        mobility: mobility dict (``{"max_step": 0.05}``); empty = the
            default unconstrained model.
        failures: failure dict (``{"scheduled": {"10": [0, 1]},
            "random_failure_rate": 0.01, "seed": 0}``); empty = none.
        drop_probability: message-drop probability (distributed pipeline).
        extra: pipeline-specific knobs (``seed_resolution`` for the
            Voronoi pipeline, ``comm_factor`` for the ring probe, ...).
    """

    name: str = "scenario"
    pipeline: str = "laacad"
    region: Mapping[str, Any] = dataclasses.field(
        default_factory=lambda: {"kind": "unit_square"}
    )
    node_count: int = 40
    k: int = 1
    comm_range: float = 0.25
    placement: Mapping[str, Any] = dataclasses.field(
        default_factory=lambda: {"kind": "random"}
    )
    alpha: float = 1.0
    epsilon: float = 1e-3
    max_rounds: int = 200
    seed: int = 0
    placement_seed: Optional[int] = None
    engine: str = "sparse"
    mobility: Mapping[str, Any] = dataclasses.field(default_factory=dict)
    failures: Mapping[str, Any] = dataclasses.field(default_factory=dict)
    drop_probability: float = 0.0
    extra: Mapping[str, Any] = dataclasses.field(default_factory=dict)

    # ------------------------------------------------------------------
    # Serialization and identity
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Canonical dict: every field in canonical JSON-compatible form."""
        payload = dataclasses.asdict(self)
        return {key: _canonicalize(value) for key, value in payload.items()}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ScenarioSpec":
        """Rebuild a spec from (a superset of) its canonical dict."""
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown scenario fields: {sorted(unknown)}")
        return cls(**{k: _canonicalize(v) for k, v in payload.items()})

    def canonical_json(self) -> str:
        """Deterministic JSON text of the content-relevant fields.

        Two fields are excluded: the ``name`` label (renaming a scenario
        must not invalidate its cached result) and ``engine`` (round
        backends are held to the equivalence contracts — bitwise for
        ``legacy``/``batched``, 1e-9 geometry with identical rounds and
        counters for ``sparse`` — so a sweep cached under one backend
        resolves under the other).  A backend outside those contracts
        must therefore be modeled as a different pipeline or an
        ``extra`` knob, never via ``engine``.
        """
        payload = self.to_dict()
        payload.pop("name", None)
        payload.pop("engine", None)
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        """sha256 content address of this scenario."""
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()

    def replace(self, **changes: Any) -> "ScenarioSpec":
        """A copy of this spec with some fields replaced."""
        return dataclasses.replace(self, **changes)

    def override(self, path: str, value: Any) -> "ScenarioSpec":
        """A copy with one (possibly dotted) parameter overridden.

        ``spec.override("k", 3)`` replaces a top-level field;
        ``spec.override("placement.cluster_fraction", 0.2)`` replaces one
        key inside a dict-valued field.
        """
        known = {f.name for f in dataclasses.fields(self)}
        if "." not in path:
            if path not in known:
                raise ValueError(
                    f"unknown scenario parameter {path!r}; "
                    f"fields: {', '.join(sorted(known))}"
                )
            return self.replace(**{path: value})
        field_name, _, key = path.partition(".")
        if field_name not in known:
            raise ValueError(
                f"unknown scenario parameter {path!r}; "
                f"fields: {', '.join(sorted(known))}"
            )
        current = getattr(self, field_name)
        if not isinstance(current, Mapping):
            raise ValueError(
                f"cannot apply dotted override {path!r}: field {field_name!r} "
                "is not a mapping"
            )
        updated = dict(current)
        updated[key] = value
        return self.replace(**{field_name: updated})

    # ------------------------------------------------------------------
    # Construction of live objects
    # ------------------------------------------------------------------
    def build_region(self) -> Region:
        """The target area this scenario runs on."""
        return _region_from_dict(self.region)

    def resolved_placement_seed(self) -> int:
        """The placement RNG seed (defaults to the config seed)."""
        return self.seed if self.placement_seed is None else self.placement_seed

    def build_network(self, region: Optional[Region] = None):
        """Construct the sensor network described by the spec."""
        from repro.network.network import SensorNetwork

        if region is None:
            region = self.build_region()
        return SensorNetwork.from_placement(
            region,
            self.placement,
            count=self.node_count,
            comm_range=self.comm_range,
            seed=self.resolved_placement_seed(),
        )

    def build_config(self) -> LaacadConfig:
        """The LAACAD configuration for this scenario."""
        options = {
            "k": self.k,
            "alpha": self.alpha,
            "epsilon": self.epsilon,
            "max_rounds": self.max_rounds,
            "seed": self.seed,
            "engine": self.engine,
        }
        options.update(self.extra.get("config", {}))
        return LaacadConfig.from_mapping(options)

    def build_mobility(self) -> MobilityModel:
        """The mobility model (default: unconstrained, kept in region)."""
        return MobilityModel.from_dict(self.mobility)

    def build_failure_injector(self):
        """The failure injector described by the spec (``None`` if none)."""
        from repro.runtime.failures import FailureInjector

        return FailureInjector.from_dict(self.failures) if self.failures else None

    def simulation(self):
        """A :class:`repro.api.Simulation` session for this scenario.

        The session is steppable, observable and checkpointable; the
        spec's ``pipeline`` selects the deployer kind.
        """
        from repro.api.session import Simulation

        return Simulation.from_spec(self)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self) -> Dict[str, Any]:
        """Execute the scenario; returns a JSON-normalized result dict.

        The result is passed through a JSON round-trip before being
        returned so that freshly computed and cache-loaded results are
        indistinguishable (identical types and float values).
        """
        from repro.scenarios.pipelines import execute_pipeline

        result = execute_pipeline(self)
        return json.loads(json.dumps(result, default=float))
