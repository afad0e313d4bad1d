"""Distributed runtime: message-passing execution of LAACAD.

The centralized pipeline (:class:`repro.api.deployers.CentralizedDeployer`
over a :mod:`repro.engine` round engine) evaluates the geometry
directly.  This package executes the same algorithm as a *protocol*:
every node is an agent that, once per period, floods a position query
through its expanding ring, receives replies hop by hop, computes its
dominating region from the replies only, and moves.  The scheduler is
synchronous (round = the paper's period ``tau``) and every message is
accounted for, which yields the communication-overhead data the
localized design is meant to minimise.

Failure injection (node crashes, reply losses) is layered on top so the
robustness of k-coverage under failures can be studied — the motivation
the paper gives for k > 1 in the first place.
"""

from repro.runtime.messages import Message, MessageKind
from repro.runtime.scheduler import SynchronousScheduler, CommunicationStats
from repro.runtime.agent import NodeAgent
from repro.runtime.engines import (
    DistributedEngineRound,
    DistributedRoundEngine,
    LegacyDistributedEngine,
    available_distributed_engines,
    make_distributed_engine,
    register_distributed_engine,
)
from repro.runtime.sparse import SparseDistributedEngine
from repro.runtime.protocol import DistributedRoundStats
from repro.runtime.failures import FailureInjector

__all__ = [
    "Message",
    "MessageKind",
    "SynchronousScheduler",
    "CommunicationStats",
    "NodeAgent",
    "DistributedEngineRound",
    "DistributedRoundEngine",
    "LegacyDistributedEngine",
    "SparseDistributedEngine",
    "available_distributed_engines",
    "make_distributed_engine",
    "register_distributed_engine",
    "DistributedRoundStats",
    "FailureInjector",
]
