"""A packet-level TCP model.

Faithful enough that the paper's mechanisms emerge:

* 3-way handshake with SYN retransmission (exponential backoff) — the
  GFW's SYN-eating and RST injection manifest as connect latency or
  :class:`~repro.errors.ConnectionReset`.
* Sliding-window transfer with slow start / AIMD congestion avoidance,
  RFC 6298-style RTO estimation, timeout retransmission, and
  triple-duplicate-ACK fast retransmit — random loss inflates transfer
  time the way it does for real flows, which is how GFW-added loss
  turns into the paper's PLT differences.
* Application *messages*: the app enqueues (length, meta) payloads;
  the receiver gets each meta back once all its bytes arrive in order.
  This gives byte-accurate traffic accounting without simulating
  payload bytes.

* Delayed ACKs (RFC 1122): ack every second segment or within 40 ms,
  with immediate ACKs on out-of-order data so fast retransmit works.

The model deliberately omits: SACK, window scaling (windows here are
already in segments), and Nagle.
"""

from __future__ import annotations

import typing as t
from dataclasses import dataclass

from ..errors import (
    ConnectionReset,
    ConnectionTimeout,
    TransportError,
)
from ..net import IP_HEADER, MSS, TCP_HEADER, IPv4Address, Packet, WireFeatures
from ..sim import Event, Simulator, Store

if t.TYPE_CHECKING:  # pragma: no cover
    from .sockets import TransportLayer

#: Handshake segment size (IP + TCP with options).
SYN_SIZE = IP_HEADER + TCP_HEADER + 12
#: Pure-ACK segment size.
ACK_SIZE = IP_HEADER + TCP_HEADER
#: Initial congestion window in segments (RFC 6928).
INITIAL_CWND = 10
#: Initial retransmission timeout (RFC 6298).
INITIAL_RTO = 1.0
#: Floor for the computed RTO.
MIN_RTO = 0.2
#: Ceiling for backed-off RTOs.
MAX_RTO = 30.0
#: SYN retry limit before the connect attempt fails.
SYN_RETRIES = 6
#: FIN retransmissions before giving up on confirming EOF delivery.
FIN_RETRIES = 6


@dataclass
class Message:
    """An application payload: ``length`` bytes plus opaque ``meta``."""

    length: int
    meta: t.Any = None
    features: t.Optional[WireFeatures] = None


#: Flag sets, shared by every segment that carries them.
FLAGS_SYN = frozenset({"SYN"})
FLAGS_SYN_ACK = frozenset({"SYN", "ACK"})
FLAGS_ACK = frozenset({"ACK"})
FLAGS_FIN_ACK = frozenset({"FIN", "ACK"})
FLAGS_RST = frozenset({"RST"})


class Segment:
    """TCP segment carried as a packet payload.

    A hand-written ``__slots__`` class rather than a dataclass (Python
    3.9 has no ``dataclass(slots=True)``): one is built for every
    segment sent, and in-flight tables keep them until acknowledged.
    """

    __slots__ = ("sport", "dport", "seq", "ack", "flags", "length",
                 "message_ends")

    def __init__(
        self,
        sport: int,
        dport: int,
        seq: int,
        ack: int,
        flags: t.FrozenSet[str],
        length: int = 0,
        # (end_offset, meta) pairs for app messages ending inside this segment.
        message_ends: t.Tuple[t.Tuple[int, t.Any], ...] = (),
    ) -> None:
        self.sport = sport
        self.dport = dport
        self.seq = seq
        self.ack = ack
        self.flags = flags
        self.length = length
        self.message_ends = message_ends

    def wire_size(self) -> int:
        return IP_HEADER + TCP_HEADER + self.length

    def copy(self, **changes: t.Any) -> "Segment":
        """A shallow copy with ``changes`` applied (NAT port rewrites)."""
        fields = {name: getattr(self, name) for name in self.__slots__}
        fields.update(changes)
        return Segment(**fields)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Segment({self.sport}->{self.dport} seq={self.seq} "
                f"ack={self.ack} {sorted(self.flags)} len={self.length})")


def _drop_through(entries: t.List[t.Tuple[int, t.Any]], acked: int) -> None:
    """Delete the leading entries whose end offset is at or below ``acked``."""
    count = 0
    for end_offset, _value in entries:
        if end_offset > acked:
            break
        count += 1
    if count:
        del entries[:count]


class _SendBuffer:
    """Outgoing byte stream with the message boundaries not yet acknowledged.

    Offsets only grow, so both lists stay sorted by end offset.
    """

    __slots__ = ("length", "_boundaries", "_features")

    def __init__(self) -> None:
        self.length = 0  # total bytes ever enqueued
        self._boundaries: t.List[t.Tuple[int, t.Any]] = []  # (end_offset, meta)
        self._features: t.List[t.Tuple[int, WireFeatures]] = []

    def enqueue(self, message: Message) -> None:
        self.length += message.length
        self._boundaries.append((self.length, message.meta))
        if message.features is not None:
            self._features.append((self.length, message.features))

    def ends_in(self, start: int, end: int) -> t.Tuple[t.Tuple[int, t.Any], ...]:
        return tuple((off, meta) for off, meta in self._boundaries
                     if start < off <= end)

    def features_for(self, start: int) -> t.Optional[WireFeatures]:
        for end_offset, features in self._features:
            if start < end_offset:
                return features
        return None

    def release(self, acked: int) -> None:
        """Forget boundaries and features at or below offset ``acked``.

        Exact for every later ``ends_in(start, ...)`` and
        ``features_for(start)`` with ``start >= acked``: both only
        match entries that end past ``start``.  The sender guarantees
        that bound, since it never transmits below ``snd_una``.
        """
        _drop_through(self._boundaries, acked)
        _drop_through(self._features, acked)

    def skip(self, length: int) -> None:
        """Account ``length`` bytes carried out-of-band (fluid fast path).

        No boundary is recorded: the fluid path delivers the message
        meta directly, so the packet machinery must never see it.
        """
        self.length += length


class _InFlight:
    __slots__ = ("segment", "sent_at", "retransmitted")

    def __init__(self, segment: Segment, sent_at: float) -> None:
        self.segment = segment
        self.sent_at = sent_at
        self.retransmitted = False


class TcpConnection:
    """One endpoint of an established (or establishing) TCP connection.

    Slotted: a world keeps every connection it ever opened (see
    DESIGN.md, *Performance model*), so per-connection size sets the
    memory of large runs.
    """

    __slots__ = (
        "transport", "sim", "local_addr", "local_port", "remote_addr",
        "remote_port", "features", "state",
        # Sender.
        "_send_buffer", "_snd_una", "_snd_nxt", "_cwnd", "_ssthresh",
        "_dup_acks", "_in_flight",
        # RTO estimation and handshake.
        "_srtt", "_rttvar", "_rto", "_rto_timer_version", "_syn_sent_at",
        "_syn_tries", "_connect_event",
        # Receiver, orderly close and delayed ACKs.
        "_rcv_nxt", "_ooo", "_pending_ends", "_inbox", "_peer_closed",
        "_fin_seq", "_fin_acked", "_fin_tries", "_unacked_segments",
        "_delack_version",
        # Accounting.
        "bytes_sent", "bytes_received", "packets_sent", "retransmissions",
        # Fluid fast path.
        "_fluid_horizon", "_fluid_pending", "_fluid_block", "_fluid_epoch",
        "_fluid_peer", "_fluid_path",
    )

    # Connection states.
    SYN_SENT = "SYN_SENT"
    SYN_RCVD = "SYN_RCVD"
    ESTABLISHED = "ESTABLISHED"
    CLOSED = "CLOSED"
    RESET = "RESET"

    def __init__(
        self,
        transport: "TransportLayer",
        local_addr: IPv4Address,
        local_port: int,
        remote_addr: IPv4Address,
        remote_port: int,
        features: t.Optional[WireFeatures] = None,
    ) -> None:
        self.transport = transport
        self.sim: Simulator = transport.sim
        self.local_addr = local_addr
        self.local_port = local_port
        self.remote_addr = remote_addr
        self.remote_port = remote_port
        #: Default wire features for data segments of this connection.
        self.features = features or WireFeatures()
        self.state = self.CLOSED

        # Sender state.
        self._send_buffer = _SendBuffer()
        self._snd_una = 0      # oldest unacknowledged byte
        self._snd_nxt = 0      # next byte to send
        self._cwnd = float(INITIAL_CWND)      # in segments
        self._ssthresh = 64.0
        self._dup_acks = 0
        self._in_flight: t.Dict[int, _InFlight] = {}  # keyed by seq

        # RTO estimation (RFC 6298).
        self._srtt: t.Optional[float] = None
        self._rttvar = 0.0
        self._rto = INITIAL_RTO
        self._rto_timer_version = 0
        self._syn_sent_at = 0.0
        self._syn_tries = 0
        self._connect_event: t.Optional[Event] = None

        # Receiver state.
        self._rcv_nxt = 0
        self._ooo: t.Dict[int, Segment] = {}     # out-of-order segments by seq
        self._pending_ends: t.List[t.Tuple[int, t.Any]] = []
        self._inbox: Store = Store(self.sim)
        self._peer_closed = False
        # Orderly-close state: the FIN occupies one sequence number and
        # is retransmitted until the peer acknowledges it — a single
        # lost FIN must not strand a reader waiting for EOF forever.
        self._fin_seq: t.Optional[int] = None
        self._fin_acked = False
        self._fin_tries = 0
        # Delayed-ACK state (RFC 1122: ack at least every 2nd segment
        # or within 40 ms).
        self._unacked_segments = 0
        self._delack_version = 0

        # Accounting.
        self.bytes_sent = 0
        self.bytes_received = 0
        self.packets_sent = 0
        self.retransmissions = 0

        # Fluid fast-path state (see repro.perf.fluid); inert in packet
        # mode — nothing below is touched unless sim.fluid is installed.
        self._fluid_horizon = 0.0       # latest scheduled fluid delivery
        self._fluid_pending = 0         # bytes in fluid flight
        self._fluid_block = 0           # packets_sent gate after de-fluidization
        self._fluid_epoch: t.Optional[int] = None
        self._fluid_peer: t.Optional["TcpConnection"] = None
        self._fluid_path: t.Optional[t.Any] = None

    # -- public API --------------------------------------------------------------

    @property
    def flow(self) -> t.Tuple[t.Any, ...]:
        return ("tcp", str(self.local_addr), self.local_port,
                str(self.remote_addr), self.remote_port)

    def send_message(self, length: int, meta: t.Any = None,
                     features: t.Optional[WireFeatures] = None) -> None:
        """Enqueue an application message for transmission."""
        if self.state == self.RESET:
            raise ConnectionReset(f"{self.flow}: connection was reset")
        if length <= 0:
            raise TransportError(f"message length must be positive: {length}")
        fluid = self.sim.fluid
        if fluid is not None and fluid.try_transfer(self, length, meta, features):
            return
        self._send_buffer.enqueue(Message(length, meta, features))
        self._pump()

    def recv_message(self) -> Event:
        """Event that fires with the next (length, meta) delivered in order.

        Fails with :class:`ConnectionReset` if the connection is reset
        while waiting; fires with ``None`` on orderly close (EOF).
        """
        if self.state == self.RESET:
            failed = self.sim.event()
            failed.fail(ConnectionReset(f"{self.flow}: connection was reset"))
            return failed
        return self._inbox.get()

    def close(self) -> None:
        """Orderly close (modeled as a FIN that delivers EOF at the peer)."""
        if self.state in (self.CLOSED, self.RESET):
            return
        self.state = self.CLOSED
        # A fluid delivery still in flight must reach the peer before
        # EOF; defer the FIN to the fluid horizon (packet mode: 0.0,
        # so the FIN goes out synchronously as it always did).
        delay = self._fluid_horizon - self.sim.now
        if delay > 0:
            self.sim.call_later(delay, self._emit_fin)
        else:
            self._emit_fin()

    def _emit_fin(self) -> None:
        """Send (or resend) the FIN; rearm until the peer acks it.

        The FIN consumes one sequence number past the data stream, so
        the peer's cumulative ACK of ``_fin_seq + 1`` confirms EOF
        delivery.  Links drop packets; without this a close racing a
        drop leaves the peer blocked on ``recv_message`` forever.
        """
        if self.state != self.CLOSED or self._fin_acked:
            return  # reset in the meantime, or EOF already confirmed
        if self._fin_tries >= FIN_RETRIES:
            return  # peer unreachable; give up like a real stack
        if self._fin_seq is None:
            self._fin_seq = self._snd_nxt
        self._fin_tries += 1
        if self._fin_tries > 1:
            self.retransmissions += 1
        fin = Segment(self.local_port, self.remote_port,
                      seq=self._fin_seq, ack=self._rcv_nxt,
                      flags=FLAGS_FIN_ACK)
        self._emit(fin, ACK_SIZE, self.features)
        backoff = min(self._rto * (2 ** (self._fin_tries - 1)), MAX_RTO)
        self.sim.call_later(backoff, self._emit_fin)

    def abort(self) -> None:
        """Send a RST and tear down immediately."""
        if self.state == self.RESET:
            return
        rst = Segment(self.local_port, self.remote_port,
                      seq=self._snd_nxt, ack=self._rcv_nxt,
                      flags=FLAGS_RST)
        self._emit(rst, ACK_SIZE, self.features)
        self._enter_reset(local=True)

    # -- connection establishment ---------------------------------------------------

    def start_connect(self, timeout: t.Optional[float] = None) -> Event:
        """Client side: send SYN; event fires with self when established."""
        if self.state != self.CLOSED:
            raise TransportError(f"connect() in state {self.state}")
        self.state = self.SYN_SENT
        self._connect_event = self.sim.event()
        self._send_syn()
        if timeout is not None:
            deadline = self.sim.timeout(timeout)
            connect_event = self._connect_event

            def on_deadline(_event: Event) -> None:
                if not connect_event.triggered:
                    self.state = self.CLOSED
                    connect_event.fail(ConnectionTimeout(
                        f"connect to {self.remote_addr}:{self.remote_port} timed out"))
            deadline.add_callback(on_deadline)
        return self._connect_event

    def _send_syn(self) -> None:
        self._syn_tries += 1
        self._syn_sent_at = self.sim.now
        syn = Segment(self.local_port, self.remote_port, seq=0, ack=0,
                      flags=FLAGS_SYN)
        self._emit(syn, SYN_SIZE,
                   WireFeatures(protocol_tag=self.features.protocol_tag,
                                sni=self.features.sni, handshake=True,
                                entropy=0.5))
        backoff = INITIAL_RTO * (2 ** (self._syn_tries - 1))
        version = self._bump_timer()
        self.sim.call_later(backoff, self._on_syn_timer, version)

    def _on_syn_timer(self, version: int) -> None:
        if version != self._rto_timer_version or self.state != self.SYN_SENT:
            return
        if self._syn_tries >= SYN_RETRIES:
            self.state = self.CLOSED
            if self._connect_event and not self._connect_event.triggered:
                self._connect_event.fail(ConnectionTimeout(
                    f"SYN retries exhausted to {self.remote_addr}:{self.remote_port}"))
            return
        self.retransmissions += 1
        self._send_syn()

    def accept_from_syn(self) -> None:
        """Server side: a SYN arrived; reply SYN+ACK."""
        self.state = self.SYN_RCVD
        synack = Segment(self.local_port, self.remote_port, seq=0, ack=0,
                         flags=FLAGS_SYN_ACK)
        self._emit(synack, SYN_SIZE,
                   WireFeatures(protocol_tag=self.features.protocol_tag,
                                handshake=True, entropy=0.5))

    # -- segment processing ------------------------------------------------------------

    def handle_segment(self, segment: Segment) -> None:
        """Demuxed inbound segment for this connection."""
        if "RST" in segment.flags:
            self._enter_reset(local=False)
            return
        if self.state == self.SYN_SENT:
            if segment.flags >= FLAGS_SYN_ACK:
                self._establish_client(segment)
            return
        if self.state == self.SYN_RCVD:
            if "ACK" in segment.flags and "SYN" not in segment.flags:
                self.state = self.ESTABLISHED
                self.transport._on_established(self)
            # fall through: the ACK may carry data
        if "SYN" in segment.flags:
            # Duplicate SYN/SYN+ACK (retransmission); re-ack politely.
            if self.state == self.SYN_RCVD:
                self.accept_from_syn()
            elif self.state == self.ESTABLISHED and "ACK" in segment.flags:
                self._send_ack()
            return
        if "ACK" in segment.flags:
            self._process_ack(segment.ack)
        if segment.length > 0:
            self._process_data(segment)
        if "FIN" in segment.flags:
            if not self._peer_closed:
                self._peer_closed = True
                self._inbox.put(None)  # EOF
            if segment.seq <= self._rcv_nxt:
                # Everything before the FIN has arrived: acknowledge the
                # FIN itself (cumulative ack past it) so the closer can
                # stop retransmitting.  Re-acking duplicates covers a
                # lost FIN-ack.
                fin_ack = Segment(self.local_port, self.remote_port,
                                  seq=self._snd_nxt, ack=segment.seq + 1,
                                  flags=FLAGS_ACK)
                self._emit(fin_ack, ACK_SIZE, self.features)

    def _establish_client(self, segment: Segment) -> None:
        self.state = self.ESTABLISHED
        sample = self.sim.now - self._syn_sent_at
        if self._syn_tries == 1:  # Karn's rule: only unambiguous samples
            self._update_rtt(sample)
        self._bump_timer()
        self._send_ack()
        if self._connect_event and not self._connect_event.triggered:
            self._connect_event.succeed(self)
        self._pump()

    # -- sender machinery -----------------------------------------------------------------

    def _pump(self) -> None:
        """Send as much buffered data as the congestion window allows."""
        if self.state != self.ESTABLISHED:
            return
        window_bytes = int(self._cwnd) * MSS
        while (self._snd_nxt < self._send_buffer.length
               and self._snd_nxt - self._snd_una < window_bytes):
            chunk = min(MSS,
                        self._send_buffer.length - self._snd_nxt,
                        window_bytes - (self._snd_nxt - self._snd_una))
            self._transmit_range(self._snd_nxt, chunk, retransmission=False)
            self._snd_nxt += chunk

    def _transmit_range(self, start: int, length: int, retransmission: bool) -> None:
        segment = Segment(
            self.local_port, self.remote_port,
            seq=start, ack=self._rcv_nxt,
            flags=FLAGS_ACK,
            length=length,
            message_ends=self._send_buffer.ends_in(start, start + length),
        )
        features = self._send_buffer.features_for(start) or self.features
        if not retransmission:
            self._in_flight[start] = _InFlight(segment, self.sim.now)
        else:
            entry = self._in_flight.get(start)
            if entry is not None:
                entry.retransmitted = True
                entry.sent_at = self.sim.now
            self.retransmissions += 1
        self._emit(segment, segment.wire_size(), features)
        self._arm_rto()

    def _process_ack(self, ack: int) -> None:
        if self._fin_seq is not None and ack > self._fin_seq:
            self._fin_acked = True  # EOF confirmed delivered
        if ack > self._snd_una:
            # New data acknowledged.
            in_flight = self._in_flight
            newly_acked = [seq for seq, entry in in_flight.items()
                           if seq + entry.segment.length <= ack]
            samples = []
            for seq in newly_acked:
                entry = in_flight.pop(seq)
                if not entry.retransmitted:
                    samples.append(self.sim.now - entry.sent_at)
                # Congestion window growth.
                if self._cwnd < self._ssthresh:
                    self._cwnd += 1.0                      # slow start
                else:
                    self._cwnd += 1.0 / self._cwnd         # congestion avoidance
            if samples:
                # A cumulative ACK delayed by loss recovery would yield
                # wildly inflated samples for the older segments it
                # covers; the youngest segment (minimum sample) is the
                # honest path-RTT measurement, akin to what TCP
                # timestamps give real stacks.
                self._update_rtt(min(samples))
            if not in_flight:
                # A dict keeps its peak table size after its entries
                # are popped; an idle connection should hold none.
                self._in_flight = {}
            self._snd_una = ack
            self._send_buffer.release(ack)
            self._dup_acks = 0
            # Forward progress cancels exponential RTO backoff (RFC 6298
            # §5.7 behaviour): re-derive the timeout from the estimator.
            if self._srtt is not None:
                self._rto = min(MAX_RTO, max(MIN_RTO, self._srtt + 4.0 * self._rttvar))
            else:
                self._rto = INITIAL_RTO
            self._arm_rto()
            self._pump()
        elif ack == self._snd_una and self._snd_nxt > self._snd_una:
            self._dup_acks += 1
            if self._dup_acks == 3:
                self._fast_retransmit()

    def _fast_retransmit(self) -> None:
        entry = self._in_flight.get(self._snd_una)
        if entry is None:
            return
        self._ssthresh = max(self._cwnd / 2.0, 2.0)
        self._cwnd = self._ssthresh
        self._transmit_range(self._snd_una, entry.segment.length, retransmission=True)

    def _arm_rto(self) -> None:
        version = self._bump_timer()
        if not self._in_flight:
            return
        self.sim.call_later(self._rto, self._on_rto, version)

    def _on_rto(self, version: int) -> None:
        if version != self._rto_timer_version or not self._in_flight:
            return
        if self.state != self.ESTABLISHED:
            return
        # Timeout: multiplicative backoff, shrink to one segment.
        self._ssthresh = max(self._cwnd / 2.0, 2.0)
        self._cwnd = 1.0
        self._rto = min(self._rto * 2.0, MAX_RTO)
        oldest = min(self._in_flight)
        self._transmit_range(oldest, self._in_flight[oldest].segment.length,
                             retransmission=True)

    def _bump_timer(self) -> int:
        self._rto_timer_version += 1
        return self._rto_timer_version

    def _update_rtt(self, sample: float) -> None:
        if self._srtt is None:
            self._srtt = sample
            self._rttvar = sample / 2.0
        else:
            self._rttvar = 0.75 * self._rttvar + 0.25 * abs(self._srtt - sample)
            self._srtt = 0.875 * self._srtt + 0.125 * sample
        self._rto = min(MAX_RTO, max(MIN_RTO, self._srtt + 4.0 * self._rttvar))

    # -- receiver machinery ------------------------------------------------------------------

    def _process_data(self, segment: Segment) -> None:
        if segment.seq > self._rcv_nxt:
            # Out of order: buffer and send an immediate duplicate ACK
            # (required for the sender's fast retransmit).
            self._ooo[segment.seq] = segment
            self._send_ack()
            return
        if segment.seq + segment.length <= self._rcv_nxt:
            # Pure duplicate: re-ack immediately.
            self._send_ack()
            return
        delivered_message = self._admit(segment)
        # Drain any now-contiguous buffered segments.
        filled_hole = False
        while self._rcv_nxt in self._ooo:
            delivered_message |= self._admit(self._ooo.pop(self._rcv_nxt))
            filled_hole = True
        # Delayed ACK: ack at once on every 2nd segment, when a hole was
        # just filled, or when an app message completed (push); else arm
        # a 40 ms timer.
        self._unacked_segments += 1
        if self._unacked_segments >= 2 or filled_hole or delivered_message:
            self._send_ack()
        else:
            self._delack_version += 1
            version = self._delack_version
            self.sim.call_later(0.04, self._on_delack_timer, version)

    def _on_delack_timer(self, version: int) -> None:
        if version != self._delack_version or self._unacked_segments == 0:
            return
        self._send_ack()

    def _admit(self, segment: Segment) -> bool:
        """Accept in-order data; True if an app message completed."""
        end = segment.seq + segment.length
        advance = end - self._rcv_nxt
        self.bytes_received += advance
        self._rcv_nxt = end
        self._pending_ends.extend(segment.message_ends)
        self._pending_ends.sort(key=lambda pair: pair[0])
        delivered = False
        while self._pending_ends and self._pending_ends[0][0] <= self._rcv_nxt:
            end_offset, meta = self._pending_ends.pop(0)
            self._inbox.put(meta)
            delivered = True
        return delivered

    def _send_ack(self) -> None:
        self._unacked_segments = 0
        self._delack_version += 1
        ack = Segment(self.local_port, self.remote_port,
                      seq=self._snd_nxt, ack=self._rcv_nxt,
                      flags=FLAGS_ACK)
        self._emit(ack, ACK_SIZE, self.features)

    # -- plumbing ---------------------------------------------------------------------------

    def _emit(self, segment: Segment, size: int, features: WireFeatures) -> None:
        self.packets_sent += 1
        self.bytes_sent += size
        packet = Packet(
            src=self.local_addr, dst=self.remote_addr,
            protocol="tcp", payload=segment, size=size,
            features=features, flow=self.flow)
        self.transport.host.send(packet)

    def _enter_reset(self, local: bool) -> None:
        self.state = self.RESET
        fluid = self.sim.fluid
        if fluid is not None:
            fluid.on_reset(self)
        self.transport._forget(self)
        error = ConnectionReset(
            f"{self.flow}: reset {'locally' if local else 'by peer or on-path injection'}")
        if self._connect_event and not self._connect_event.triggered:
            self._connect_event.fail(error)
        self._inbox.fail_getters(lambda: ConnectionReset(str(error)))

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<TcpConnection {self.local_addr}:{self.local_port}"
                f"->{self.remote_addr}:{self.remote_port} {self.state}>")
