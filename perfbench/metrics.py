"""The benchmark's metric catalogue (mirrored in BENCHMARK.json).

Every workload prints every metric of the list its mode asks for:
``--trace 0`` the end-to-end list, ``--trace 1`` the per-layer list.  A
per-layer metric of a layer the workload never enters reads 0.
"""

from __future__ import annotations

from typing import Dict

#: name -> unit.  "Step" and "deploy" are defined per workload in README.md.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "deploy_s": "s",
    "step_p50_ms": "ms",
    "peak_rss_mib": "MiB",
}

PER_LAYER: Dict[str, str] = {
    "engine.compute_regions_s": "s",
    "engine.summary_s": "s",
    "sparse_kernels.clip_s": "s",
    "sparse_kernels.clip_calls": "count",
    "sparse_kernels.clip_rows": "count",
    "sparse_kernels.clip_verts_out": "count",
    "sparse_kernels.clip_bytes_out": "bytes",
    "sparse_kernels.clip_rows_per_node_round": "ratio",
    "sparse_kernels.mec_s": "s",
    "neighbors.query_s": "s",
    "neighbors.query_calls": "count",
    "neighbors.candidates": "count",
    "network.apply_moves_s": "s",
    "network.moved_nodes": "count",
    "api.step_self_s": "s",
    "api.result_s": "s",
    "api.rounds": "count",
    "api.moved_fraction": "ratio",
    "api.checkpoint_s": "s",
    "api.restore_s": "s",
    "api.checkpoint_bytes": "bytes",
    "runtime.run_round_s": "s",
    "runtime.gather_s": "s",
    "runtime.messages": "count",
    "runtime.transmissions": "count",
    "runtime.dropped": "count",
    "runtime.delivery_ratio": "ratio",
    "manager.self_ms_p50": "ms",
    "manager.self_ms_p99": "ms",
    "manager.resurrections_per_step": "ratio",
    "manager.evictions": "count",
    "http.self_ms_p50": "ms",
    "http.self_ms_p99": "ms",
    "spec.build_network_s": "s",
    "sweep.cache_load_s": "s",
    "sweep.cache_store_s": "s",
    "sweep.cache_hits": "count",
    "sweep.cache_misses": "count",
    "sweep.cell_s": "s",
    "sweep.pool_busy_ratio": "ratio",
    "loadgen.step_p99_ms": "ms",
    "loadgen.read_p50_ms": "ms",
    "loadgen.read_p99_ms": "ms",
    "loadgen.lag_p99_ms": "ms",
    "loadgen.goodput_rps": "1/s",
    "trace.overhead": "ratio",
    "trace.coverage": "ratio",
    "trace.inner_coverage": "ratio",
}


def render(values: Dict[str, float], catalogue: Dict[str, str]) -> Dict[str, Dict]:
    """``{name: {"value": v, "unit": u}}`` for every catalogue entry."""
    unknown = set(values) - set(catalogue)
    if unknown:
        raise KeyError(f"metrics outside the catalogue: {sorted(unknown)}")
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in catalogue.items()
    }
