"""Point-to-point links with latency, bandwidth, loss, and middleboxes.

Each direction of a link serializes packets FIFO at the configured
bandwidth, then applies propagation latency.  Random loss models path
noise; middleboxes (the GFW) apply targeted interference on top.
"""

from __future__ import annotations

import random
import typing as t
from dataclasses import dataclass

from ..errors import NetworkError
from ..sim import Simulator, TraceLog
from ..sim.events import PRIORITY_NORMAL
from .middlebox import Middlebox, Verdict
from .packet import Packet

if t.TYPE_CHECKING:  # pragma: no cover
    from .node import Node


@dataclass(frozen=True)
class Direction:
    """One direction of a link, identified by its endpoints."""

    sender: str
    receiver: str

    def __str__(self) -> str:
        return f"{self.sender}->{self.receiver}"


class _Arrival:
    """A packet due at a node: the kernel queue entry of one delivery.

    The kernel pops it like an event and calls :meth:`_run_callbacks`,
    but it carries no waiters or state: one small object per delivery
    instead of a ``Timeout`` plus two closures.  ``receive`` is looked
    up when the packet arrives, never bound in advance, so a method
    patched onto ``Node`` while the simulation runs still sees every
    arrival.
    """

    __slots__ = ("receiver", "packet", "link")

    def __init__(self, receiver: "Node", packet: Packet, link: "Link") -> None:
        self.receiver = receiver
        self.packet = packet
        self.link = link

    def _run_callbacks(self) -> None:
        self.receiver.receive(self.packet, self.link)


class Link:
    """Full-duplex point-to-point link between two nodes."""

    def __init__(
        self,
        sim: Simulator,
        a: "Node",
        b: "Node",
        latency: float,
        bandwidth: float,
        loss: float = 0.0,
        rng: t.Optional[random.Random] = None,
        name: t.Optional[str] = None,
        trace: t.Optional[TraceLog] = None,
    ) -> None:
        """
        Parameters
        ----------
        latency:
            One-way propagation delay in seconds.
        bandwidth:
            Capacity in bytes per second (see :func:`repro.units.Mbps`).
        loss:
            Per-packet random loss probability in [0, 1).
        """
        if latency < 0:
            raise NetworkError(f"negative latency: {latency}")
        if bandwidth <= 0:
            raise NetworkError(f"bandwidth must be positive: {bandwidth}")
        if not 0.0 <= loss < 1.0:
            raise NetworkError(f"loss must be in [0,1): {loss}")
        self.sim = sim
        self.a = a
        self.b = b
        self.latency = latency
        self.bandwidth = bandwidth
        self.loss = loss
        self.rng = rng if rng is not None else sim.rng.stream("link.loss")
        self.name = name or f"{a.name}<->{b.name}"
        self.trace = trace
        #: Administrative state; a downed link drops every packet.
        self.up = True
        self.middleboxes: t.List[Middlebox] = []
        # Per-direction FIFO serialization horizon.
        self._busy_until: t.Dict[str, float] = {a.name: 0.0, b.name: 0.0}
        # Byte counters per direction, for overhead accounting.
        self.bytes_sent: t.Dict[str, int] = {a.name: 0, b.name: 0}
        self.packets_sent: t.Dict[str, int] = {a.name: 0, b.name: 0}
        self.packets_dropped: t.Dict[str, int] = {a.name: 0, b.name: 0}
        # (receiver, direction) for a packet sent by a, and by b.
        self._from_a = (b, Direction(a.name, b.name))
        self._from_b = (a, Direction(b.name, a.name))
        a._attach(self)
        b._attach(self)

    def peer_of(self, node: "Node") -> "Node":
        """The node at the other end of the link."""
        if node is self.a:
            return self.b
        if node is self.b:
            return self.a
        raise NetworkError(f"{node.name} is not attached to {self.name}")

    def add_middlebox(self, middlebox: Middlebox) -> None:
        """Attach an inspector to this link (both directions)."""
        self.middleboxes.append(middlebox)

    # -- fault injection -----------------------------------------------------

    def set_up(self, up: bool) -> None:
        """Flap the link; packets in flight are unaffected, new ones drop."""
        self.up = up
        self._notify_fluid()
        if self.trace is not None:
            self.trace.emit("link.admin", link=self.name,
                            state="up" if up else "down")

    def set_conditions(self, loss: t.Optional[float] = None,
                       latency: t.Optional[float] = None) -> None:
        """Audited mid-sim change of loss and/or latency (degradation)."""
        if loss is not None:
            if not 0.0 <= loss < 1.0:
                raise NetworkError(f"loss must be in [0,1): {loss}")
            self.loss = loss
        if latency is not None:
            if latency < 0:
                raise NetworkError(f"negative latency: {latency}")
            self.latency = latency
        self._notify_fluid()
        if self.trace is not None:
            self.trace.emit("link.conditions", link=self.name,
                            loss=self.loss, latency=self.latency)

    def _notify_fluid(self) -> None:
        """Fault injection invalidates fluid calibration snapshots."""
        if self.sim.fluid is not None:
            self.sim.fluid.on_link_change(self)

    # -- data path -----------------------------------------------------------

    def transmit(self, packet: Packet, sender: "Node") -> None:
        """Send ``packet`` from ``sender`` toward the other endpoint."""
        if sender is self.a:
            receiver, direction = self._from_a
        elif sender is self.b:
            receiver, direction = self._from_b
        else:
            raise NetworkError(f"{sender.name} is not attached to {self.name}")
        self.bytes_sent[sender.name] += packet.size
        self.packets_sent[sender.name] += 1

        if not self.up:
            self._record_drop(packet, direction, reason="link-down")
            return

        for middlebox in self.middleboxes:
            verdict = middlebox.process(packet, direction, self)
            if verdict is Verdict.DROP:
                self._record_drop(packet, direction, reason=middlebox.name)
                return

        if self.loss and self.rng.random() < self.loss:
            self._record_drop(packet, direction, reason="path-loss")
            return

        self._deliver(packet, sender, receiver)

    def inject(self, packet: Packet, toward: "Node") -> None:
        """Middlebox API: deliver a forged packet toward ``toward``.

        Injected packets race the genuine ones, as real GFW RSTs do; we
        model the injection point as on-path, so only the remaining
        propagation (half the link latency) applies.
        """
        if toward not in (self.a, self.b):
            raise NetworkError(f"{toward.name} is not attached to {self.name}")
        self.sim._schedule_event(_Arrival(toward, packet, self),
                                 PRIORITY_NORMAL, self.latency / 2.0)
        if self.trace is not None:
            self.trace.emit(
                "link.inject", link=self.name, toward=toward.name,
                packet_id=packet.packet_id, protocol=packet.protocol)

    def _deliver(self, packet: Packet, sender: "Node", receiver: "Node") -> None:
        now = self.sim.now
        serialization = packet.size / self.bandwidth
        start = max(now, self._busy_until[sender.name])
        self._busy_until[sender.name] = start + serialization
        arrival_delay = (start - now) + serialization + self.latency
        self.sim._schedule_event(_Arrival(receiver, packet, self),
                                 PRIORITY_NORMAL, arrival_delay)

    def _record_drop(self, packet: Packet, direction: Direction, reason: str) -> None:
        self.packets_dropped[direction.sender] += 1
        if self.trace is not None:
            self.trace.emit(
                "link.drop", link=self.name, direction=str(direction),
                packet_id=packet.packet_id, reason=reason,
                flow=packet.flow, protocol=packet.protocol)
