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

A crash (:meth:`CsmaMac.disable`) advances the MAC's *epoch*.  Every
event the MAC schedules, and the ARQ callback of a unicast in service,
carries the epoch it was made in; one from an earlier epoch is a no-op,
so a rebooted MAC serves its first frame on its own jitter and attempt
count.

:class:`CsmaMac` is the reference implementation.  On the C kernel's
simulator the channel's ``Medium`` runs the MAC instead
(``repro/sim/_ckernel.c``): the node's queue, busy and enabled flags,
epoch, counters and the ``random`` of its ``mac:`` stream live in the
node's slot, and ``send`` is the medium's, so a send, each attempt, the
transmission itself (:meth:`Channel.transmit`'s body) and the ARQ outcome
cost no Python frame.  Every event is scheduled one for one, at the same
time, in the same order, with the same draw, so event counts, RNG draws
and trace records are those of this class; ``mac_drop`` and
``arq_failure`` records still go through ``TraceLog.emit``.  The counters
and ``queue_length`` read the medium's state.

The wrapper rule (:func:`repro.sim.accel.unwrapped`): the medium runs a
MAC only while the MAC's class still has every method in
:data:`MAC_METHODS` and its channel's class still has
:data:`repro.net.channel.CHANNEL_TRANSMIT`, checked when the MAC is
built.  A wrapper installed on ``CsmaMac.send``, ``CsmaMac._attempt`` or
``Channel.transmit`` before the network is wired (the layer tracer of
``benchmarks/e2e`` installs them) therefore keeps every MAC in Python and
is called for every frame; ``REPRO_ACCEL=off``,
:func:`repro.sim.accel.reference_mode` and a missing compiler do the
same.
"""

from __future__ import annotations

import functools
import random
from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional, Tuple

from repro.net.channel import Channel
from repro.net.packet import Frame, NodeId
from repro.sim import accel
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
        # Advanced by disable(): every event the MAC schedules, and every
        # ARQ callback, carries the epoch it was made in, and one from an
        # earlier epoch is a no-op.
        self._epoch = 0
        self._enabled = True
        self._sent = 0
        self._dropped = 0
        self._arq_failures = 0
        # The C medium runs this MAC while its class and the channel's
        # still have the reference methods (module docstring); then
        # ``send`` is the medium's and the state lives there.
        self._medium_mac = None
        if accel.unwrapped(type(self), MAC_METHODS):
            self._medium_mac = channel.medium_mac(node, rng, self._config, trace)
        if self._medium_mac is not None:
            self.send = self._medium_mac.send  # type: ignore[method-assign]

    @property
    def enabled(self) -> bool:
        """Whether the MAC serves frames (False between a crash and reboot)."""
        return self._enabled if self._medium_mac is None else self._medium_mac.enabled

    @property
    def sent(self) -> int:
        """Frames put on the air, retransmissions included."""
        return self._sent if self._medium_mac is None else self._medium_mac.sent

    @property
    def dropped(self) -> int:
        """Frames given up: busy senses exhausted, or lost in a crash."""
        return self._dropped if self._medium_mac is None else self._medium_mac.dropped

    @property
    def arq_failures(self) -> int:
        """Unicasts never acknowledged after every retransmission."""
        return self._arq_failures if self._medium_mac is None else self._medium_mac.arq_failures

    @property
    def queue_length(self) -> int:
        """Frames waiting for the medium (excluding one in service)."""
        return len(self._queue) if self._medium_mac is None else self._medium_mac.queue_length

    def disable(self) -> None:
        """Crash support: drop the queue and refuse service until
        :meth:`enable`.  Pending scheduler events drain as no-ops: a
        frame sent after :meth:`enable` starts its own jitter and attempt
        count, never a backoff timer started before the crash."""
        if self._medium_mac is not None:
            self._medium_mac.disable()
            return
        self._enabled = False
        self._dropped += len(self._queue)
        self._queue.clear()
        self._busy = False
        self._epoch += 1

    def enable(self) -> None:
        """Resume service after :meth:`disable` (the queue starts empty)."""
        if self._medium_mac is not None:
            self._medium_mac.enable()
            return
        self._enabled = True

    def send(self, frame: Frame, jitter: Optional[float] = None, tx_range: Optional[float] = None) -> None:
        """Enqueue a frame.

        ``jitter`` is the upper bound of a uniform pre-transmission delay;
        pass ``0.0`` to transmit as soon as the medium allows (the rushing
        attacker does this).  ``None`` selects the configured default.
        """
        if not self._enabled:
            self._dropped += 1
            return
        self._queue.append((frame, tx_range, 0))
        effective = self._config.default_jitter if jitter is None else jitter
        if not self._busy:
            self._busy = True
            delay = effective * self._rng.random() if effective > 0 else 0.0
            self._sim.schedule(delay, self._attempt, 0, self._epoch)

    def _attempt(self, attempt: int, epoch: int) -> None:
        if epoch != self._epoch:
            return
        if self._channel.is_busy(self._node):
            if attempt + 1 >= self._config.max_attempts:
                frame, _, _ = self._queue.popleft()
                self._dropped += 1
                if self._trace is not None:
                    self._trace.emit(
                        self._sim.now, "mac_drop", node=self._node, **frame.describe()
                    )
                self._next_frame(epoch)
                return
            window = self._config.base_backoff * (2 ** attempt)
            self._sim.schedule(window * self._rng.random(), self._attempt, attempt + 1, epoch)
            return
        frame, tx_range, tries = self._queue.popleft()
        if frame.link_dst is not None and self._config.arq_retries > 0:
            duration = self._channel.transmit(
                self._node,
                frame,
                tx_range=tx_range,
                on_unicast_outcome=functools.partial(self._acked, epoch, frame, tx_range, tries),
            )
            self._sent += 1
            return
        duration = self._channel.transmit(self._node, frame, tx_range=tx_range)
        self._sent += 1
        self._sim.schedule(duration, self._next_frame, epoch)

    def _acked(
        self, epoch: int, frame: Frame, tx_range: Optional[float], tries: int, delivered: bool
    ) -> None:
        """The link-layer ACK, or its absence, for a unicast in service."""
        if epoch == self._epoch:
            self._arq_outcome(frame, tx_range, tries, delivered)

    def _arq_outcome(self, frame: Frame, tx_range: Optional[float], tries: int, delivered: bool) -> None:
        if not delivered and tries < self._config.arq_retries:
            # Retransmit ahead of anything queued later, after a short backoff.
            self._queue.appendleft((frame, tx_range, tries + 1))
            self._sim.schedule(
                self._config.base_backoff * self._rng.random(), self._attempt, 0, self._epoch
            )
            return
        if not delivered:
            self._arq_failures += 1
            if self._trace is not None:
                self._trace.emit(
                    self._sim.now, "arq_failure", node=self._node, **frame.describe()
                )
        self._next_frame(self._epoch)

    def _next_frame(self, epoch: int) -> None:
        if epoch != self._epoch:
            return
        if self._queue:
            self._sim.schedule(
                self._config.base_backoff * self._rng.random(), self._attempt, 0, epoch
            )
        else:
            self._busy = False


#: The reference methods.  A MAC whose class has every one of them, on a
#: channel whose class has ``Channel.transmit``, is run by the C medium
#: (module docstring); a wrapper on any of them keeps the MAC in Python.
MAC_METHODS = {
    name: CsmaMac.__dict__[name]
    for name in ("send", "_attempt", "_acked", "_arq_outcome", "_next_frame")
}
