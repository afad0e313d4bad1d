"""Pluggable round-execution backends for the LAACAD iteration.

The engine subsystem splits the hot path of Algorithm 1 into four
layers (see DESIGN.md for the full diagram):

* :mod:`repro.engine.arrays` — per-round copies of the network's node
  arrays (:class:`NodeArrayState`);
* :mod:`repro.engine.kernels` — vectorized distance, pre-filter and
  clipping kernels shared with the analysis layer;
* :mod:`repro.engine.base` — the :class:`RoundEngine` protocol, the
  backend registry and the shared per-round summarisation;
* :mod:`repro.engine.batch` / :mod:`repro.engine.legacy` /
  :mod:`repro.engine.sparse` — the built-in backends, selected by
  ``LaacadConfig.engine``.

``"sparse"`` (grid-bucketed candidate pairs, no dense N×N matrix, one
whole-network clip for small N) is the default; it matches the other
two under the 1e-9 tolerance contract documented in DESIGN.md.
``"legacy"`` and ``"batched"`` produce bitwise-identical results; new
backends plug in via :func:`register_engine`.
"""

from repro.engine.arrays import NodeArrayState
from repro.engine.base import (
    EngineRound,
    RoundEngine,
    available_engines,
    make_engine,
    register_engine,
    summarize_regions,
)
from repro.engine.batch import BatchedRoundEngine
from repro.engine.legacy import LegacyRoundEngine
from repro.engine.sparse import SparseRoundEngine

__all__ = [
    "BatchedRoundEngine",
    "EngineRound",
    "LegacyRoundEngine",
    "SparseRoundEngine",
    "NodeArrayState",
    "RoundEngine",
    "available_engines",
    "make_engine",
    "register_engine",
    "summarize_regions",
]
