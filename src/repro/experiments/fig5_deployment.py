"""Figure 5: k-coverage deployments produced from a corner cluster.

The paper deploys 100 nodes at the bottom-left corner of a 1 km^2 square
and shows the converged deployments for k = 1..4, observing (i) full
k-coverage, (ii) an "even" distribution for k = 1, and (iii) an "even
clustering" distribution for k >= 2 where nodes gather in groups of
roughly k.  The runner reproduces the run and reports quantitative
versions of those observations: coverage fractions, the final sensing
ranges, and a clustering statistic (the ratio between each node's
nearest-neighbour distance and the lattice spacing a perfectly even
1-coverage deployment would have — small values for k >= 2 indicate the
paper's co-location clusters).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.analysis.coverage import evaluate_coverage
from repro.experiments.common import (
    ExperimentResult,
    execute_scenarios,
    resolve_engine,
    resolve_scale,
)
from repro.geometry.primitives import distance
from repro.regions.shapes import unit_square
from repro.scenarios import expand_grid, make_scenario


def nearest_neighbor_distances(positions: Sequence) -> List[float]:
    """Distance from every node to its nearest other node."""
    dists: List[float] = []
    for i, p in enumerate(positions):
        best = math.inf
        for j, q in enumerate(positions):
            if i == j:
                continue
            d = distance(p, q)
            if d < best:
                best = d
        dists.append(best)
    return dists


def clustering_statistic(positions: Sequence, k: int, region_area: float) -> float:
    """Mean nearest-neighbour distance normalised by the even-deployment spacing.

    A value near 1 means nodes are spread out individually ("even"
    distribution, expected for k = 1); values well below ``1/k`` indicate
    that nodes sit in tight groups (the paper's "even clustering" for
    k >= 2).
    """
    n = len(positions)
    if n < 2:
        return 0.0
    even_spacing = math.sqrt(region_area / n)
    nn = nearest_neighbor_distances(positions)
    return float(np.mean(nn)) / even_spacing


def run_fig5_deployment(
    node_count: Optional[int] = None,
    k_values: Sequence[int] = (1, 2, 3, 4),
    cluster_fraction: float = 0.15,
    comm_range: float = 0.25,
    max_rounds: Optional[int] = None,
    epsilon: float = 1e-3,
    seed: int = 11,
    coverage_resolution: int = 60,
    include_positions: bool = False,
    engine: Optional[str] = None,
) -> ExperimentResult:
    """Run the Figure 5 corner-cluster deployment for each k.

    Args:
        node_count: nodes to deploy (paper: 100; reduced scale: 60).
        k_values: coverage orders to run.
        cluster_fraction: size of the initial corner cluster.
        comm_range: transmission range ``gamma``.
        max_rounds: round cap (defaults by scale).
        epsilon: stopping tolerance.
        seed: RNG seed for the initial cluster.
        coverage_resolution: grid resolution of the coverage check.
        include_positions: embed the final node positions in the rows
            (one row per node per k) in addition to the summary rows.
        engine: round-engine backend ("sparse", "batched" or "legacy";
            defaults to the REPRO_ENGINE environment selection).
    """
    scale = resolve_scale()
    if engine is None:
        engine = resolve_engine()
    if node_count is None:
        node_count = 100 if scale == "full" else 60
    if max_rounds is None:
        max_rounds = 250 if scale == "full" else 120
    region = unit_square()

    base = make_scenario(
        "corner_cluster",
        node_count=node_count,
        comm_range=comm_range,
        alpha=1.0,
        epsilon=epsilon,
        max_rounds=max_rounds,
        seed=seed,
        engine=engine,
    ).override("placement.cluster_fraction", cluster_fraction)
    specs = expand_grid(base, {"k": list(k_values)})
    results = execute_scenarios(specs)

    rows: List[Dict] = []
    position_rows: List[Dict] = []
    for k, result in zip(k_values, results):
        final_positions = [tuple(p) for p in result["final_positions"]]
        coverage = evaluate_coverage(
            final_positions, result["sensing_ranges"], region, k,
            resolution=coverage_resolution,
        )
        rows.append(
            {
                "k": k,
                "node_count": node_count,
                "rounds": result["rounds_executed"],
                "converged": result["converged"],
                "max_sensing_range": result["max_sensing_range"],
                "min_sensing_range": result["min_sensing_range"],
                "coverage_fraction": coverage.fraction_k_covered,
                "min_coverage": coverage.min_coverage,
                "clustering_statistic": clustering_statistic(
                    final_positions, k, region.area
                ),
            }
        )
        if include_positions:
            for node_id, pos in enumerate(final_positions):
                position_rows.append(
                    {"k": k, "node_id": node_id, "x": pos[0], "y": pos[1]}
                )

    return ExperimentResult(
        name="fig5_deployment",
        description=(
            "Converged corner-cluster deployments for k = 1..4 (Figure 5): "
            "coverage, sensing ranges and clustering statistics"
        ),
        rows=rows + position_rows,
        metadata={
            "node_count": node_count,
            "k_values": list(k_values),
            "cluster_fraction": cluster_fraction,
            "comm_range": comm_range,
            "max_rounds": max_rounds,
            "seed": seed,
            "scale": scale,
            "engine": engine,
        },
    )
