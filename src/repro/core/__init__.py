"""The paper's primary contribution: the LAACAD algorithm.

* :mod:`repro.core.config` — run configuration (k, alpha, epsilon, ...).
* :mod:`repro.core.dominating` — Algorithm 2: localized dominating-region
  computation via an expanding ring.
* :mod:`repro.core.convergence` — convergence tracking and stopping rules.
* :mod:`repro.core.minnode` — the Sec. IV-C transform towards min-node
  k-coverage.

Algorithm 1, the iterative deployment driver, runs through
:class:`repro.api.Simulation`: the centralized pipeline steps a
:mod:`repro.engine` round engine, the distributed one executes
Algorithms 1+2 as the message protocol of :mod:`repro.runtime`.
"""

from repro.core.config import LaacadConfig
from repro.core.dominating import localized_dominating_region, LocalizedComputation
from repro.core.convergence import ConvergenceTracker
from repro.core.minnode import MinNodeSizer, MinNodeResult

__all__ = [
    "LaacadConfig",
    "localized_dominating_region",
    "LocalizedComputation",
    "ConvergenceTracker",
    "MinNodeSizer",
    "MinNodeResult",
]
