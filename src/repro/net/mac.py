"""CSMA-style medium access control.

Each node owns one :class:`CsmaMac`.  Outgoing frames are queued; the head
of the queue is transmitted after an optional random *jitter* (the paper's
"nodes typically back off for a random amount of time before forwarding",
section 3.5 — the protocol-deviation attacker sets jitter to zero), subject
to carrier sensing with binary-exponential backoff.

The MAC gives up on a frame after ``max_attempts`` busy senses and reports
it via a trace record — such losses count toward the natural-loss budget of
the experiments.

Every jitter and backoff delay is drawn as ``w * rng.random()``: for a
window ``w >= 0`` that is bit for bit ``rng.uniform(0.0, w)`` (which
computes ``0.0 + (w - 0.0) * random()``) from the same single draw,
without ``uniform``'s Python frame.
"""

from __future__ import annotations

import functools
import random
from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional, Tuple

from repro.net.channel import Channel
from repro.net.packet import Frame, NodeId
from repro.sim.engine import Simulator
from repro.sim.trace import TraceLog


@dataclass(frozen=True)
class MacConfig:
    """Tunables for the CSMA MAC.

    Attributes
    ----------
    base_backoff:
        Initial backoff window (seconds); doubles per failed sense.
    max_attempts:
        Carrier-sense attempts before the frame is dropped.
    default_jitter:
        Upper bound of the uniform pre-transmission jitter applied to
        broadcast forwards when the caller does not specify one.
    arq_retries:
        Link-layer retransmissions for unicast frames whose destination
        did not acknowledge (802.11-style ARQ; broadcasts are never
        retransmitted).
    """

    base_backoff: float = 0.010
    max_attempts: int = 12
    default_jitter: float = 0.015
    arq_retries: int = 4

    def __post_init__(self) -> None:
        if self.base_backoff <= 0:
            raise ValueError("base_backoff must be positive")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.default_jitter < 0:
            raise ValueError("default_jitter must be non-negative")
        if self.arq_retries < 0:
            raise ValueError("arq_retries must be non-negative")


class CsmaMac:
    """Carrier-sense MAC with jitter and exponential backoff for one node."""

    def __init__(
        self,
        sim: Simulator,
        channel: Channel,
        node: NodeId,
        rng: random.Random,
        config: Optional[MacConfig] = None,
        trace: Optional[TraceLog] = None,
    ) -> None:
        self._sim = sim
        self._channel = channel
        self._node = node
        self._rng = rng
        self._config = config or MacConfig()
        self._trace = trace
        self._queue: Deque[Tuple[Frame, Optional[float], int]] = deque()
        self._busy = False
        self.enabled = True
        self.sent = 0
        self.dropped = 0
        self.arq_failures = 0

    @property
    def queue_length(self) -> int:
        """Frames waiting for the medium (excluding one in service)."""
        return len(self._queue)

    def disable(self) -> None:
        """Crash support: drop the queue and refuse service until
        :meth:`enable`.  Pending scheduler events drain as no-ops."""
        self.enabled = False
        self.dropped += len(self._queue)
        self._queue.clear()

    def enable(self) -> None:
        """Resume service after :meth:`disable` (the queue starts empty)."""
        self.enabled = True

    def send(self, frame: Frame, jitter: Optional[float] = None, tx_range: Optional[float] = None) -> None:
        """Enqueue a frame.

        ``jitter`` is the upper bound of a uniform pre-transmission delay;
        pass ``0.0`` to transmit as soon as the medium allows (the rushing
        attacker does this).  ``None`` selects the configured default.
        """
        if not self.enabled:
            self.dropped += 1
            return
        self._queue.append((frame, tx_range, 0))
        effective = self._config.default_jitter if jitter is None else jitter
        if not self._busy:
            self._busy = True
            delay = effective * self._rng.random() if effective > 0 else 0.0
            self._sim.schedule(delay, self._attempt, 0)

    def _attempt(self, attempt: int) -> None:
        if not self.enabled or not self._queue:
            self._busy = False
            return
        if self._channel.is_busy(self._node):
            if attempt + 1 >= self._config.max_attempts:
                frame, _, _ = self._queue.popleft()
                self.dropped += 1
                if self._trace is not None:
                    self._trace.emit(
                        self._sim.now, "mac_drop", node=self._node, **frame.describe()
                    )
                self._next_frame()
                return
            window = self._config.base_backoff * (2 ** attempt)
            self._sim.schedule(window * self._rng.random(), self._attempt, attempt + 1)
            return
        frame, tx_range, tries = self._queue.popleft()
        if frame.link_dst is not None and self._config.arq_retries > 0:
            duration = self._channel.transmit(
                self._node,
                frame,
                tx_range=tx_range,
                on_unicast_outcome=functools.partial(self._arq_outcome, frame, tx_range, tries),
            )
            self.sent += 1
            return
        duration = self._channel.transmit(self._node, frame, tx_range=tx_range)
        self.sent += 1
        self._sim.schedule(duration, self._next_frame)

    def _arq_outcome(self, frame: Frame, tx_range: Optional[float], tries: int, delivered: bool) -> None:
        if not self.enabled:
            self._busy = False
            return
        if not delivered and tries < self._config.arq_retries:
            # Retransmit ahead of anything queued later, after a short backoff.
            self._queue.appendleft((frame, tx_range, tries + 1))
            self._sim.schedule(self._config.base_backoff * self._rng.random(), self._attempt, 0)
            return
        if not delivered:
            self.arq_failures += 1
            if self._trace is not None:
                self._trace.emit(
                    self._sim.now, "arq_failure", node=self._node, **frame.describe()
                )
        self._next_frame()

    def _next_frame(self) -> None:
        if self._queue:
            self._sim.schedule(self._config.base_backoff * self._rng.random(), self._attempt, 0)
        else:
            self._busy = False
