"""Synchronous round scheduler with message accounting."""

from __future__ import annotations

import dataclasses
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional

import numpy as np

from repro.runtime.messages import Message


@dataclasses.dataclass
class CommunicationStats:
    """Cumulative communication accounting.

    Attributes:
        messages: total number of messages sent.
        transmissions: total number of per-hop radio transmissions
            (each message counts once per hop it traverses).
        bytes_sent: total serialised bytes, weighted by hop count.
        per_round_messages: message count per completed round.
        dropped: messages lost to the configured drop probability.
    """

    messages: int = 0
    transmissions: int = 0
    bytes_sent: int = 0
    per_round_messages: List[int] = dataclasses.field(default_factory=list)
    dropped: int = 0


class SynchronousScheduler:
    """Round-driven scheduler used by the distributed LAACAD protocol.

    Agents register with the scheduler and are stepped once per round in
    node-id order (the order is irrelevant because moves are applied only
    at the end of the round by the protocol driver).  All messages go
    through :meth:`send`, which applies the loss model and updates the
    accounting; delivery is immediate within the round — the paper's
    period ``tau`` is assumed long enough for the multi-hop exchange to
    finish inside one round.
    """

    def __init__(
        self,
        drop_probability: float = 0.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if not 0.0 <= drop_probability < 1.0:
            raise ValueError("drop_probability must be in [0, 1)")
        self.drop_probability = drop_probability
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._inboxes: Dict[int, List[Message]] = defaultdict(list)
        self.stats = CommunicationStats()
        self._round_messages = 0
        self.current_round = -1

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------
    def send(self, message: Message) -> bool:
        """Send a message; returns False when the loss model dropped it."""
        self.stats.messages += 1
        self.stats.transmissions += message.hops
        self.stats.bytes_sent += message.size_bytes * message.hops
        self._round_messages += 1
        if self.drop_probability > 0.0 and self._rng.random() < self.drop_probability:
            self.stats.dropped += 1
            return False
        self._inboxes[message.receiver].append(message)
        return True

    def record(self, hops: int, size_bytes: int) -> bool:
        """Counting fast path: account one transmission without a ``Message``.

        Performs exactly the accounting and loss sampling of
        :meth:`send` — same counters, same single RNG draw in the same
        stream position — but allocates no message object and delivers
        nothing to an inbox.  Agents whose receivers never inspect
        payloads (the LAACAD expanding-ring exchange consumes the
        position *at the sender side* of the simulated reply) use this
        so a loss-free broadcast round costs two counter bumps per
        transmission instead of one frozen dataclass each.

        Returns False when the loss model dropped the transmission.
        """
        self.stats.messages += 1
        self.stats.transmissions += hops
        self.stats.bytes_sent += size_bytes * hops
        self._round_messages += 1
        if self.drop_probability > 0.0 and self._rng.random() < self.drop_probability:
            self.stats.dropped += 1
            return False
        return True

    def record_many(self, hops: np.ndarray, size_bytes: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`record` over aligned hop/size arrays.

        Accounts ``len(hops)`` transmissions in one shot and, when the
        channel is lossy, draws all loss samples with a single
        ``Generator.random(n)`` call — the resulting stream is
        *element-for-element identical* to ``n`` scalar ``random()``
        calls, so batched callers consume the RNG in exactly the order
        the scalar path would (the distributed engines' draw-order
        contract; see ``repro.runtime.engines``).

        Returns the boolean delivered mask, aligned with the inputs.
        """
        hops = np.asarray(hops)
        count = int(hops.shape[0])
        if count == 0:
            return np.ones(0, dtype=bool)
        sizes = np.asarray(size_bytes)
        self.stats.messages += count
        self.stats.transmissions += int(hops.sum())
        self.stats.bytes_sent += int((sizes * hops).sum())
        self._round_messages += count
        if self.drop_probability > 0.0:
            dropped = self._rng.random(count) < self.drop_probability
            if dropped.any():
                self.stats.dropped += int(dropped.sum())
                return ~dropped
        return np.ones(count, dtype=bool)

    @property
    def rng(self) -> np.random.Generator:
        """The loss-draw generator (one ``random()`` draw per transmission)."""
        return self._rng

    def commit(
        self, messages: int, transmissions: int, bytes_sent: int, dropped: int
    ) -> None:
        """Account transmissions whose loss draws the caller made itself.

        A caller that draws the loss samples straight from :attr:`rng`
        — in exactly the order :meth:`record_many` would — commits the
        resulting counts here as sums, once per batch: the counters are
        order-independent, so this equals the per-transmission
        accounting.
        """
        self.stats.messages += messages
        self.stats.transmissions += transmissions
        self.stats.bytes_sent += bytes_sent
        self.stats.dropped += dropped
        self._round_messages += messages

    def collect_inbox(self, node_id: int) -> List[Message]:
        """Drain and return the pending messages of one node."""
        inbox = self._inboxes.get(node_id, [])
        self._inboxes[node_id] = []
        return inbox

    # ------------------------------------------------------------------
    # Round bookkeeping
    # ------------------------------------------------------------------
    def begin_round(self) -> int:
        """Start a new round and return its index."""
        self.current_round += 1
        self._round_messages = 0
        return self.current_round

    def end_round(self) -> None:
        """Close the current round's accounting."""
        self.stats.per_round_messages.append(self._round_messages)

    def reset(self) -> None:
        """Clear all inboxes and statistics (used between experiments)."""
        self._inboxes.clear()
        self.stats = CommunicationStats()
        self._round_messages = 0
        self.current_round = -1
