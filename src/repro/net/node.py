"""The per-node runtime container.

A :class:`Node` owns a MAC instance and dispatches every received frame
through a two-stage pipeline:

1. **Filters** — admission checks that may reject a frame before any
   listener sees it.  LITEWORP's receive hook is installed here: it
   monitors every frame, then applies the legitimacy checks (non-neighbor
   reject, revoked-node reject, second-hop check) and dispatches accepted
   alerts and probes itself.
2. **Listeners** — protocol agents (routing, neighbor discovery).
   Listeners receive accepted frames whether addressed to the node or
   overheard; each listener decides what concerns it.

**Observers** run on every frame before filtering, so a rejected frame is
still *observable* (the relay attacker and the RTT and SND defenses tap
frames here).

:meth:`Node.deliver` is the reference body of that pipeline.  On the C
kernel's simulator the channel's ``Medium`` runs the same steps itself,
in the same order, on the node's own (shared) observer, filter and
listener lists, so a reception costs no Python frame of its own.  It does
so only while the handler the channel was given is ``Node.deliver`` as
defined here (:data:`NODE_DELIVER`) and the node's class still has it: a
subclass's override, or a wrapper installed on ``Node.deliver`` before
the network is wired, is called as the handler for every reception (see
:meth:`repro.net.channel.Channel.attach`).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.net.mac import CsmaMac
from repro.net.packet import Frame, NodeId, Packet

FrameFilter = Callable[[Frame], bool]
FrameListener = Callable[[Frame], None]
SendFilter = Callable[[Frame], bool]
LifecycleListener = Callable[[bool], None]


class Node:
    """A network participant: id, position, MAC, and a protocol pipeline.

    Slotted, so the C medium reads ``alive`` and bumps the frame counters
    by offset for every reception.  ``__dict__`` and ``__weakref__`` keep
    instances open to extra attributes, weak references and ``__class__``
    reassignment to a plain subclass; a subclass that makes ``alive`` or a
    counter anything but a plain slot is read and written through
    attribute access.
    """

    __slots__ = (
        "node_id", "position", "mac", "alive", "clock_skew",
        "_filters", "_listeners", "_observers", "_send_filters", "_lifecycle_listeners",
        "frames_received", "frames_rejected", "crashes",
        "__dict__", "__weakref__",
    )

    def __init__(self, node_id: NodeId, position: Tuple[float, float], mac: CsmaMac) -> None:
        self.node_id = node_id
        self.position = position
        self.mac = mac
        # Written only by fail()/recover(); Network mirrors it into the
        # channel's deaf set through a lifecycle listener.
        self.alive = True
        self.clock_skew = 0.0
        self._filters: List[FrameFilter] = []
        self._listeners: List[FrameListener] = []
        self._observers: List[FrameListener] = []
        self._send_filters: List[SendFilter] = []
        self._lifecycle_listeners: List[LifecycleListener] = []
        self.frames_received = 0
        self.frames_rejected = 0
        self.crashes = 0

    # ------------------------------------------------------------------
    # Pipeline wiring
    # ------------------------------------------------------------------
    def add_filter(self, frame_filter: FrameFilter) -> None:
        """Admission check: return False to reject the frame."""
        self._filters.append(frame_filter)

    def add_listener(self, listener: FrameListener) -> None:
        """Protocol handler invoked for every accepted frame."""
        self._listeners.append(listener)

    def add_observer(self, observer: FrameListener) -> None:
        """Promiscuous tap invoked for every frame, even rejected ones."""
        self._observers.append(observer)

    def add_send_filter(self, send_filter: SendFilter) -> None:
        """Outbound check: return False to suppress a transmission
        (LITEWORP refuses to send to revoked nodes)."""
        self._send_filters.append(send_filter)

    def add_lifecycle_listener(self, listener: LifecycleListener) -> None:
        """Called with ``alive`` whenever the node fails or recovers —
        protocol agents use this to drop volatile state on a crash and
        rejoin on reboot."""
        self._lifecycle_listeners.append(listener)

    def release(self) -> None:
        """Empty every hook list: the end of a run's wiring.  The counters
        and the MAC stay."""
        for hooks in (
            self._filters, self._listeners, self._observers,
            self._send_filters, self._lifecycle_listeners,
        ):
            hooks.clear()

    # ------------------------------------------------------------------
    # Fault lifecycle
    # ------------------------------------------------------------------
    def fail(self) -> None:
        """Crash-stop: the radio goes silent and deaf until :meth:`recover`.

        Frames already on the air keep propagating (a real crash truncates
        mid-frame; the difference is below the channel model's resolution).
        Queued, not-yet-transmitted frames are dropped with the MAC.
        """
        if not self.alive:
            return
        self.alive = False
        self.crashes += 1
        self.mac.disable()
        for listener in self._lifecycle_listeners:
            listener(False)

    def recover(self) -> None:
        """Reboot after a crash: the radio comes back with an empty queue;
        protocol agents re-run their join procedures via the lifecycle
        listeners."""
        if self.alive:
            return
        self.alive = True
        self.mac.enable()
        for listener in self._lifecycle_listeners:
            listener(True)

    # ------------------------------------------------------------------
    # Receive path (channel delivery handler)
    # ------------------------------------------------------------------
    def deliver(self, frame: Frame) -> None:
        """Entry point registered with the channel (the C medium runs this
        body itself for a node wired with it, see the module docstring)."""
        if not self.alive:
            return
        self.frames_received += 1
        for observer in self._observers:
            observer(frame)
        for frame_filter in self._filters:
            if not frame_filter(frame):
                self.frames_rejected += 1
                return
        for listener in self._listeners:
            listener(frame)

    # ------------------------------------------------------------------
    # Send path
    # ------------------------------------------------------------------
    def broadcast(
        self,
        packet: Packet,
        prev_hop: Optional[NodeId] = None,
        jitter: Optional[float] = None,
        tx_range: Optional[float] = None,
    ) -> bool:
        """Broadcast ``packet``; returns False if a send filter vetoed it."""
        return self._submit(Frame(packet, self.node_id, None, prev_hop), jitter, tx_range)

    def unicast(
        self,
        packet: Packet,
        next_hop: NodeId,
        prev_hop: Optional[NodeId] = None,
        jitter: Optional[float] = None,
        tx_range: Optional[float] = None,
    ) -> bool:
        """Send ``packet`` to ``next_hop``; still overheard by all in range."""
        return self._submit(Frame(packet, self.node_id, next_hop, prev_hop), jitter, tx_range)

    def raw_send(self, frame: Frame, jitter: Optional[float] = None, tx_range: Optional[float] = None) -> bool:
        """Transmit an arbitrary pre-built frame (attack code uses this to
        spoof headers); send filters still apply on the *local* node."""
        return self._submit(frame, jitter, tx_range)

    def _submit(self, frame: Frame, jitter: Optional[float], tx_range: Optional[float]) -> bool:
        if not self.alive:
            return False
        for send_filter in self._send_filters:
            if not send_filter(frame):
                return False
        self.mac.send(frame, jitter=jitter, tx_range=tx_range)
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Node {self.node_id} @ ({self.position[0]:.1f}, {self.position[1]:.1f})>"


#: The receive pipeline's reference body.  The channel compares handlers
#: against this function, not against whatever ``Node.deliver`` is at
#: wiring time, so a wrapper installed on the class is never bypassed.
NODE_DELIVER = Node.deliver
#: The send path's reference methods.  The C medium builds and submits a
#: forwarder's rebroadcast itself only for a node whose class still has
#: both (see :mod:`repro.routing.ondemand`).
NODE_SEND = {name: Node.__dict__[name] for name in ("broadcast", "_submit")}
