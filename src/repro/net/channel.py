"""Shared broadcast medium with interference-based collisions.

The channel delivers every transmission to every node inside the sender's
transmit range — promiscuous reception is what makes local monitoring
possible.  Losses arise from three mechanisms, all of which the paper's
simulation "accounts for" as natural collisions:

- **Overlap interference** — two receptions overlapping in time at the same
  receiver destroy each other, unless the *capture effect* saves the
  stronger one: a signal whose transmitter is at least ``capture_ratio``
  times closer than the interferer is decoded anyway (standard
  SIR-threshold capture under path loss).
- **Half-duplex receivers** — a node transmitting during any part of a
  reception misses it.
- **Optional ambient loss** — an independent per-reception loss probability
  for failure-injection experiments.

The channel does not queue or defer; carrier sensing and backoff live in
:mod:`repro.net.mac`.

Two implementations apply these rules.  When the simulator is the C
kernel's, the per-reception work — fan-out, in-flight bookkeeping,
carrier sense and the end-of-air-time finish — runs in the kernel's
``Medium`` (``repro/sim/_ckernel.c``), with one finish event per
transmission.  Otherwise (``REPRO_ACCEL=off``, :func:`accel.reference_mode`,
no C compiler) :class:`Channel` runs its per-receiver reference path,
one finish event per reception.  Both give the same deliveries, losses,
RNG draws, trace records and hook order.

The medium also takes the Python glue out of each reception, under one
wrapper rule: it enters a body itself only while the class still holds
the function it replaces, and otherwise calls the method as the
reference path does, so a wrapper installed on the class (the layer
tracer of ``benchmarks/e2e`` installs them) sees every call.

- **Delivery.** A node attached with ``Node.deliver`` as its handler
  (:data:`repro.net.node.NODE_DELIVER`, on a class that has not replaced
  it) has that method's body run by the medium: the ``alive`` check,
  ``frames_received``, the observers, the filters (a False verdict counts
  in ``frames_rejected`` and stops), then the listeners, on the node's own
  lists.  Any other handler, a wrapped ``Node.deliver`` included, is
  called.
- **Loss time.** A loss handler that is the reference
  ``LocalMonitor.note_reception_loss``
  (:data:`repro.core.monitor.MONITOR_NOTE_LOSS`, on a class that has not
  replaced it) is not called: the medium sets the monitor's
  ``_last_loss`` to the loss's time, which is all the method does.
- **Loss records.** While ``type(trace).emit`` is ``TraceLog.emit``
  (:data:`repro.sim.trace.TRACE_EMIT`), the medium builds each
  ``rx_lost`` record itself, with the field names and values
  ``emit(now, "rx_lost", receiver=..., collided=..., **frame.describe())``
  would give them, reading the frame's slots and the packet's cached key,
  and hands it to ``TraceLog._publish``, the method ``emit`` ends in.
  Otherwise it calls ``emit``.  While ``_publish`` too is the reference
  (:data:`repro.sim.trace.TRACE_PUBLISH`) and only the log's store sees
  the record, the medium runs its body as well.
- **Transmission.** While the channel's class still has
  :data:`CHANNEL_TRANSMIT`, a MAC built on it may run in the medium
  (:mod:`repro.net.mac`); the medium then runs :meth:`Channel.transmit`'s
  body for it (the frame stamper, the air time from the frame's size,
  ``transmissions += 1``, the tx observers) and reads each sender's
  receivers from a per-(sender, range) table compiled once from the
  radio, the network being static.  A MAC kept in Python, a wrapped
  ``Channel.transmit`` included, calls the method for every frame.
"""

from __future__ import annotations

import random
import sys
from typing import TYPE_CHECKING, Callable, Collection, Dict, List, Optional, Set, Tuple

from repro.net.packet import Frame, NodeId, Packet
from repro.net.radio import UnitDiskRadio
from repro.sim import accel
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.trace import _LAYOUTS, TRACE_EMIT, TRACE_PUBLISH, TraceLog, TraceRecord

if TYPE_CHECKING:  # repro.net.mac imports this module
    from repro.net.mac import MacConfig

#: An ``rx_lost`` record's field names, in the order the reference path
#: emits them, interned as ``TraceRecord`` interns every layout.
RX_LOST_NAMES = ("receiver", "collided", "packet", "tx", "dst", "prev")
RX_LOST_NAMES = _LAYOUTS.setdefault(RX_LOST_NAMES, RX_LOST_NAMES)


class Reception:
    """An in-flight reception at one receiver.

    The reference path builds one per (transmission, in-range receiver)
    and tracks it until its finish event.  The C medium keeps receptions
    in its own tables and builds a :class:`Reception`, with the final
    ``collided``, ``lost`` and ``on_outcome``, only for reception
    observers.
    """

    __slots__ = (
        "receiver", "frame", "start", "end", "distance",
        "collided", "lost", "on_outcome",
    )

    def __init__(
        self,
        receiver: NodeId,
        frame: Frame,
        start: float,
        end: float,
        distance: float = 0.0,
    ) -> None:
        self.receiver = receiver
        self.frame = frame
        self.start = start
        self.end = end
        self.distance = distance
        self.collided = False
        self.lost = False
        # Link-layer ACK callback for the unicast destination (else None).
        self.on_outcome: Optional[Callable[[bool], None]] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "collided" if self.collided else ("lost" if self.lost else "ok")
        return (
            f"<Reception rx={self.receiver} [{self.start:.6f}, {self.end:.6f}] {state}>"
        )


class Channel:
    """The wireless medium.

    Parameters
    ----------
    sim, radio, rng, trace:
        Simulation kernel, propagation model, RNG registry, and trace sink.
    bandwidth_bps:
        Channel bit rate (Table 2: 40 kbps).
    ambient_loss:
        Independent probability that an otherwise-successful reception is
        lost (failure injection; 0 by default).
    capture_ratio:
        A reception survives an overlap when its transmitter is at least
        this factor closer to the receiver than the interferer
        (0 disables capture: every overlap kills both frames).

    On the C kernel's simulator the channel hands its per-reception work
    to the kernel's ``Medium``: one finish event per transmission, its
    receptions finished in creation order, each fully handled before the
    next.  The per-receiver finish events of the reference path carry
    consecutive sequence numbers and fire back-to-back in the same order,
    so the two are indistinguishable to every hook.  The wiring methods
    keep this object's tables and the medium's in step.
    """

    def __init__(
        self,
        sim: Simulator,
        radio: UnitDiskRadio,
        rng: RngRegistry,
        trace: Optional[TraceLog] = None,
        bandwidth_bps: float = 40_000.0,
        ambient_loss: float = 0.0,
        capture_ratio: float = 1.1,
    ) -> None:
        if bandwidth_bps <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth_bps!r}")
        if not 0.0 <= ambient_loss < 1.0:
            raise ValueError(f"ambient_loss must be in [0, 1), got {ambient_loss!r}")
        if capture_ratio < 0:
            raise ValueError(f"capture_ratio must be non-negative, got {capture_ratio!r}")
        self._sim = sim
        self._radio = radio
        self._rng = rng.stream("channel")
        self._trace = trace
        self._bandwidth = float(bandwidth_bps)
        self._ambient_loss = float(ambient_loss)
        self._capture_ratio = float(capture_ratio)
        self._blocked_links: Set[Tuple[NodeId, NodeId]] = set()
        self._in_flight: Dict[NodeId, List[Reception]] = {}
        self._tx_until: Dict[NodeId, float] = {}
        self._delivery_handlers: Dict[NodeId, Callable[[Frame], None]] = {}
        self._deaf: Set[NodeId] = set()
        self._stampers: Dict[NodeId, Callable[[Frame], Frame]] = {}
        self._loss_handlers: Dict[NodeId, Callable[[float], None]] = {}
        # (observer, senders) pairs; senders None observes every sender.
        self._tx_observers: List[
            Tuple[Callable[[NodeId, Frame, float], None], Optional[Collection[NodeId]]]
        ] = []
        self._reception_observers: List[Callable[[Reception], None]] = []
        self._transmissions = 0
        self._collisions = 0
        self._medium = None
        medium_type = accel.medium_type(sim)
        if medium_type is not None:
            records = {} if trace is None else {
                "records": (TRACE_EMIT, TRACE_PUBLISH, TraceRecord, RX_LOST_NAMES, Packet)
            }
            # The radio's range overrides are read per transmission, as
            # radio.tx_range reads them: an attacker may raise its range
            # mid-run.
            self._medium = medium_type(
                sim, radio.coverage_with_distance, self._rng.random, trace,
                self._capture_ratio, self._ambient_loss,
                self._tx_observers, self._reception_observers, Reception,
                self._bandwidth, radio._range_overrides, radio.default_range, Frame,
                **records,
            )
            # Carrier sense is the MAC's per-attempt query: bind it to the
            # medium directly instead of going through a Python frame.
            self.is_busy = self._medium.is_busy  # type: ignore[method-assign]
            self.is_transmitting = self._medium.is_transmitting  # type: ignore[method-assign]

    @property
    def transmissions(self) -> int:
        """Frames put on the air so far."""
        if self._medium is not None:
            return self._medium.transmissions
        return self._transmissions

    @property
    def collisions(self) -> int:
        """Receptions destroyed so far (interference or half-duplex)."""
        if self._medium is not None:
            return self._medium.collisions
        return self._collisions

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, node: NodeId, handler: Callable[[Frame], None]) -> None:
        """Register the frame-delivery handler for ``node``.

        On the C medium a ``Node.deliver`` handler is not called: the
        medium runs its body on the node's lists (module docstring)."""
        self._delivery_handlers[node] = handler
        if self._medium is not None:
            self._medium.attach(node, handler, _pipeline_owner(handler))

    def set_deaf(self, node: NodeId, deaf: bool) -> None:
        """Switch ``node``'s radio off (crashed / depleted) or back on.
        While it is off no reception is created for it at all — in
        particular the link-layer ack of a unicast to it never comes."""
        if deaf:
            self._deaf.add(node)
        else:
            self._deaf.discard(node)
        if self._medium is not None:
            self._medium.set_deaf(node, deaf)

    def set_frame_stamper(self, node: NodeId, stamper: Callable[[Frame], Frame]) -> None:
        """Transform every frame ``node`` transmits, at the moment of
        transmission (PHY-layer stamping — packet leashes use this to
        attach the sender's location and the *actual* send time, after any
        MAC queueing).  A node that re-sends someone else's frame without
        a stamper of its own leaves the original stamp in place."""
        self._stampers[node] = stamper
        if self._medium is not None:
            self._medium.set_stamper(node, stamper)

    def attach_loss_handler(self, node: NodeId, handler: Callable[[float], None]) -> None:
        """Notify ``node`` when it loses a reception (a real radio senses a
        garbled frame via energy detection / CRC failure even though it
        cannot decode it).  LITEWORP guards use this to withhold judgment
        when their own observation was impaired.

        On the C medium the reference ``LocalMonitor.note_reception_loss``
        is not called: the medium stores the time itself (module
        docstring)."""
        self._loss_handlers[node] = handler
        if self._medium is not None:
            self._medium.set_loss_handler(node, handler, _loss_owner(handler))

    def add_tx_observer(
        self,
        observer: Callable[[NodeId, Frame, float], None],
        senders: Optional[Collection[NodeId]] = None,
    ) -> None:
        """Observe every physical transmission, or only those of
        ``senders`` (used by tests, defenses and metrics)."""
        self._tx_observers.append((observer, senders))

    def add_reception_observer(self, observer: Callable[[Reception], None]) -> None:
        """Observe every finished reception, decodable or not (the energy
        meter charges radios for listening either way)."""
        self._reception_observers.append(observer)

    def medium_mac(
        self, node: NodeId, rng: random.Random, config: MacConfig, trace: Optional[TraceLog]
    ) -> Optional[object]:
        """A handle to ``node``'s MAC run by the C medium, or None.

        None unless the channel has a medium and its class still has
        :data:`CHANNEL_TRANSMIT` (the MAC's transmissions then skip the
        method; see the module docstring).  ``rng`` is the node's ``mac:``
        stream."""
        if self._medium is None or type(self).transmit is not CHANNEL_TRANSMIT:
            return None
        return self._medium.mac(
            node, rng.random, trace, config.base_backoff, config.max_attempts,
            config.default_jitter, config.arq_retries,
        )

    def release(self) -> None:
        """Drop every handler, observer and in-flight reception, here and
        in the medium: the end of a run's hooks.  The counters stay
        readable."""
        for hooks in (
            self._delivery_handlers, self._loss_handlers, self._stampers,
            self._in_flight, self._tx_observers, self._reception_observers,
        ):
            hooks.clear()
        if self._medium is not None:
            self._medium.release()

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    @property
    def ambient_loss(self) -> float:
        """Current independent per-reception loss probability."""
        return self._ambient_loss

    def set_ambient_loss(self, probability: float) -> None:
        """Change the ambient loss probability mid-run (loss bursts)."""
        if not 0.0 <= probability < 1.0:
            raise ValueError(f"ambient_loss must be in [0, 1), got {probability!r}")
        self._ambient_loss = float(probability)
        if self._medium is not None:
            self._medium.set_ambient_loss(self._ambient_loss)

    def set_link_down(self, a: NodeId, b: NodeId) -> None:
        """Sever the symmetric radio link a <-> b (link-flap faults).
        Neither endpoint hears the other while the link is down; everyone
        else is unaffected."""
        self._blocked_links.add(self._link_key(a, b))
        if self._medium is not None:
            self._medium.set_link(a, b, True)

    def set_link_up(self, a: NodeId, b: NodeId) -> None:
        """Restore a link severed by :meth:`set_link_down`.  Idempotent."""
        self._blocked_links.discard(self._link_key(a, b))
        if self._medium is not None:
            self._medium.set_link(a, b, False)

    def link_is_down(self, a: NodeId, b: NodeId) -> bool:
        """Whether the a <-> b link is currently severed."""
        return self._link_key(a, b) in self._blocked_links

    @staticmethod
    def _link_key(a: NodeId, b: NodeId) -> Tuple[NodeId, NodeId]:
        return (a, b) if a <= b else (b, a)

    # ------------------------------------------------------------------
    # Medium state
    # ------------------------------------------------------------------
    def duration_of(self, frame: Frame) -> float:
        """Air time of a frame at the channel bit rate."""
        return frame.size_bytes * 8.0 / self._bandwidth

    def is_transmitting(self, node: NodeId) -> bool:
        """Whether ``node`` is mid-transmission."""
        return self._tx_until.get(node, 0.0) > self._sim.now

    def is_busy(self, node: NodeId) -> bool:
        """Carrier sense at ``node``: own transmission or any audible one."""
        if self.is_transmitting(node):
            return True
        return bool(self._in_flight.get(node))

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def transmit(
        self,
        sender: NodeId,
        frame: Frame,
        tx_range: Optional[float] = None,
        on_unicast_outcome: Optional[Callable[[bool], None]] = None,
    ) -> float:
        """Put a frame on the air from ``sender``.

        Returns the transmission duration.  Collision bookkeeping happens
        immediately; deliveries are scheduled at end of reception.

        ``on_unicast_outcome`` — for frames with a link destination, called
        once at end of transmission with whether that destination decoded
        the frame.  This models the link-layer acknowledgment of the MAC
        (the ACK itself is not simulated; it is short enough to ignore).
        """
        if self._medium is not None:
            return self._medium.transmit(sender, frame, tx_range, on_unicast_outcome)
        stamper = self._stampers.get(sender)
        if stamper is not None:
            frame = stamper(frame)
        duration = self.duration_of(frame)
        self._transmissions += 1
        now = self._sim.now
        end = now + duration
        self._tx_until[sender] = max(self._tx_until.get(sender, 0.0), end)

        # Half-duplex: transmitting kills the sender's own in-flight receptions.
        for reception in self._in_flight.get(sender, ()):
            if not reception.collided:
                reception.collided = True
                self._collisions += 1

        for observer, senders in self._tx_observers:
            if senders is None or sender in senders:
                observer(sender, frame, now)

        # Everything below runs once per transmission for every in-range
        # receiver — the innermost loop of the whole simulator.  The
        # receiver set and all sender->receiver distances come from the
        # radio's static-topology memo, and the per-iteration attribute
        # lookups are hoisted.
        delivery_handlers = self._delivery_handlers
        deaf = self._deaf
        blocked = self._blocked_links
        tx_until = self._tx_until
        in_flight = self._in_flight
        ambient_loss = self._ambient_loss
        schedule = self._sim.schedule
        link_dst = frame.link_dst if on_unicast_outcome is not None else None
        destination_covered = False
        for receiver, dist in self._radio.coverage_with_distance(sender, tx_range):
            if receiver not in delivery_handlers:
                continue
            if blocked and self.link_is_down(sender, receiver):
                continue
            if deaf and receiver in deaf:
                continue
            reception = Reception(receiver, frame, now, end, dist)
            if tx_until.get(receiver, 0.0) > now:
                # Receiver is itself transmitting: misses the frame.
                reception.collided = True
                self._collisions += 1
            queue = in_flight.get(receiver)
            if queue is None:
                queue = in_flight[receiver] = []
            else:
                for other in queue:
                    self._resolve_overlap(reception, other)
            if ambient_loss and self._rng.random() < ambient_loss:
                reception.lost = True
            if receiver == link_dst:
                destination_covered = True
                reception.on_outcome = on_unicast_outcome
            queue.append(reception)
            schedule(duration, self._finish_reception, reception)
        if on_unicast_outcome is not None and not destination_covered:
            # Destination out of range (or detached): the ACK never comes.
            self._sim.schedule(duration, on_unicast_outcome, False)
        return duration

    def _resolve_overlap(self, new: Reception, other: Reception) -> None:
        """Apply interference between two overlapping receptions at one
        receiver, honoring the capture effect."""
        ratio = self._capture_ratio
        new_captures = ratio > 0 and new.distance * ratio <= other.distance
        other_captures = ratio > 0 and other.distance * ratio <= new.distance
        if not other_captures and not other.collided:
            other.collided = True
            self._collisions += 1
        if not new_captures and not new.collided:
            new.collided = True
            self._collisions += 1

    def _finish_reception(self, reception: Reception) -> None:
        queue = self._in_flight.get(reception.receiver)
        if queue is not None:
            try:
                queue.remove(reception)
            except ValueError:  # pragma: no cover - defensive
                pass
        for observer in self._reception_observers:
            observer(reception)
        outcome = reception.on_outcome
        if reception.collided or reception.lost:
            if self._trace is not None:
                self._trace.emit(
                    self._sim.now,
                    "rx_lost",
                    receiver=reception.receiver,
                    collided=reception.collided,
                    **reception.frame.describe(),
                )
            loss_handler = self._loss_handlers.get(reception.receiver)
            if loss_handler is not None:
                loss_handler(self._sim.now)
            if outcome is not None:
                outcome(False)
            return
        handler = self._delivery_handlers.get(reception.receiver)
        if handler is not None:
            handler(reception.frame)
        if outcome is not None:
            outcome(True)


def _pipeline_owner(handler: Callable[[Frame], None]) -> Optional[object]:
    """The node whose pipeline the medium may run in place of ``handler``:
    ``handler.__self__`` when ``handler`` is the reference
    ``Node.deliver`` bound to a node whose class still has it, else None."""
    from repro.net.node import NODE_DELIVER  # repro.net.node imports this module

    owner = getattr(handler, "__self__", None)
    if getattr(handler, "__func__", None) is NODE_DELIVER and type(owner).deliver is NODE_DELIVER:
        return owner
    return None


def _loss_owner(handler: Callable[[float], None]) -> Optional[object]:
    """The monitor whose ``_last_loss`` the medium may set in place of
    calling ``handler``: ``handler.__self__`` when ``handler`` is the
    reference ``LocalMonitor.note_reception_loss`` bound to a monitor whose
    class still has it, else None."""
    # Looked up, not imported: the monitor sits above this layer, and a
    # handler can be its method only once its module is loaded.
    monitor = sys.modules.get("repro.core.monitor")
    reference = getattr(monitor, "MONITOR_NOTE_LOSS", None)
    owner = getattr(handler, "__self__", None)
    if reference is not None and getattr(handler, "__func__", None) is reference and (
        type(owner).note_reception_loss is reference
    ):
        return owner
    return None


#: The reference body of a transmission.  A MAC runs in the C medium only
#: while its channel's class still has this function (module docstring).
CHANNEL_TRANSMIT = Channel.transmit
