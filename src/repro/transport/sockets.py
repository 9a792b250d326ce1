"""Host transport layer: demux, listeners, connect, UDP, and ping.

Install one :class:`TransportLayer` per :class:`~repro.net.Host`; it
registers itself as ``host.transport`` and demultiplexes inbound
packets to TCP connections, UDP handlers, or ICMP echo logic.
"""

from __future__ import annotations

import itertools
import typing as t

from ..errors import TransportError
from ..net import Host, IP_HEADER, IPv4Address, Packet, WireFeatures
from ..sim import Event, Simulator
from .tcp import ACK_SIZE, FLAGS_RST, Segment, TcpConnection

#: ICMP echo packet size (IP header + ICMP header + payload).
PING_SIZE = IP_HEADER + 8 + 56

#: Signature for TCP accept callbacks.
Acceptor = t.Callable[[TcpConnection], None]
#: Signature for UDP datagram handlers: (payload, size, src, sport).
UdpHandler = t.Callable[[t.Any, int, IPv4Address, int], None]


class Datagram:
    """UDP payload wrapper."""

    __slots__ = ("sport", "dport", "payload", "length")

    def __init__(self, sport: int, dport: int, payload: t.Any, length: int) -> None:
        self.sport = sport
        self.dport = dport
        self.payload = payload
        self.length = length


class _Echo:
    """ICMP echo request/reply payload."""

    __slots__ = ("ident", "is_reply")

    def __init__(self, ident: int, is_reply: bool) -> None:
        self.ident = ident
        self.is_reply = is_reply


class TransportLayer:
    """TCP/UDP/ICMP endpoint logic for one host."""

    def __init__(self, sim: Simulator, host: Host) -> None:
        self.sim = sim
        self.host = host
        host.transport = self
        self._tcp_listeners: t.Dict[int, Acceptor] = {}
        self._connections: t.Dict[t.Tuple[int, str, int], TcpConnection] = {}
        self._udp_handlers: t.Dict[int, UdpHandler] = {}
        self._ephemeral = itertools.count(49152)
        self._echo_waiters: t.Dict[int, t.Tuple[float, Event]] = {}
        self._echo_ids = itertools.count(1)

    # -- TCP -----------------------------------------------------------------------

    def listen_tcp(self, port: int, acceptor: Acceptor) -> None:
        """Accept inbound connections on ``port``."""
        if port in self._tcp_listeners:
            raise TransportError(f"{self.host.name}: port {port} already bound")
        self._tcp_listeners[port] = acceptor

    def close_tcp_listener(self, port: int) -> None:
        self._tcp_listeners.pop(port, None)

    def connect_tcp(
        self,
        remote_addr: t.Union[str, IPv4Address],
        remote_port: int,
        features: t.Optional[WireFeatures] = None,
        timeout: t.Optional[float] = None,
        local_addr: t.Optional[IPv4Address] = None,
    ) -> Event:
        """Open a connection; the event fires with the TcpConnection."""
        # Addresses are immutable: share the caller's instance (and its
        # cached text) rather than copying it per connection.
        remote = (remote_addr if isinstance(remote_addr, IPv4Address)
                  else IPv4Address(remote_addr))
        local_port = next(self._ephemeral)
        conn = TcpConnection(
            self, local_addr or self.host.address, local_port,
            remote, remote_port, features=features)
        self._connections[(local_port, str(remote), remote_port)] = conn
        return conn.start_connect(timeout=timeout)

    def _on_established(self, conn: TcpConnection) -> None:
        """Server-side connection reached ESTABLISHED: hand to acceptor."""
        acceptor = self._tcp_listeners.get(conn.local_port)
        if acceptor is not None:
            acceptor(conn)

    def _forget(self, conn: TcpConnection) -> None:
        self._connections.pop(
            (conn.local_port, str(conn.remote_addr), conn.remote_port), None)

    # -- crash/restart (fault injection) ------------------------------------------

    def crash(self) -> t.Dict[str, t.Any]:
        """Kill every service on this host, as a process crash would.

        Established connections are aborted (peers see RSTs), listeners
        and UDP handlers vanish (new dials are refused).  Returns the
        snapshot :meth:`restore` needs to model the service restarting.
        """
        snapshot = {
            "tcp_listeners": dict(self._tcp_listeners),
            "udp_handlers": dict(self._udp_handlers),
        }
        for conn in list(self._connections.values()):
            conn.abort()
        self._tcp_listeners.clear()
        self._udp_handlers.clear()
        return snapshot

    def restore(self, snapshot: t.Dict[str, t.Any]) -> None:
        """Re-register the listeners captured by :meth:`crash`."""
        for port, acceptor in snapshot["tcp_listeners"].items():
            if port not in self._tcp_listeners:
                self._tcp_listeners[port] = acceptor
        for port, handler in snapshot["udp_handlers"].items():
            if port not in self._udp_handlers:
                self._udp_handlers[port] = handler

    # -- UDP ------------------------------------------------------------------------

    def listen_udp(self, port: int, handler: UdpHandler) -> None:
        if port in self._udp_handlers:
            raise TransportError(f"{self.host.name}: UDP port {port} already bound")
        self._udp_handlers[port] = handler

    def send_udp(
        self,
        remote_addr: t.Union[str, IPv4Address],
        remote_port: int,
        payload: t.Any,
        length: int,
        sport: t.Optional[int] = None,
        features: t.Optional[WireFeatures] = None,
    ) -> int:
        """Fire-and-forget datagram; returns the source port used."""
        remote = IPv4Address(remote_addr)
        source_port = sport if sport is not None else next(self._ephemeral)
        datagram = Datagram(source_port, remote_port, payload, length)
        packet = Packet(
            src=self.host.address, dst=remote, protocol="udp",
            payload=datagram, size=IP_HEADER + 8 + length,
            features=features or WireFeatures(),
            flow=("udp", str(self.host.address), source_port, str(remote), remote_port))
        self.host.send(packet)
        return source_port

    # -- ICMP ------------------------------------------------------------------------

    def ping(self, remote_addr: t.Union[str, IPv4Address]) -> Event:
        """Echo request; the event fires with the measured RTT in seconds."""
        remote = IPv4Address(remote_addr)
        ident = next(self._echo_ids)
        waiter = self.sim.event()
        self._echo_waiters[ident] = (self.sim.now, waiter)
        packet = Packet(
            src=self.host.address, dst=remote, protocol="icmp",
            payload=_Echo(ident, is_reply=False), size=PING_SIZE,
            flow=("icmp", str(self.host.address), str(remote), ident))
        self.host.send(packet)
        return waiter

    # -- demux -------------------------------------------------------------------------

    def demux(self, packet: Packet) -> None:
        """Entry point from :meth:`repro.net.Host.deliver`."""
        if packet.protocol == "tcp":
            self._demux_tcp(packet)
        elif packet.protocol == "udp":
            self._demux_udp(packet)
        elif packet.protocol == "icmp":
            self._demux_icmp(packet)
        # Unknown protocols are dropped silently, as a real stack would.

    def _demux_tcp(self, packet: Packet) -> None:
        segment: Segment = packet.payload
        key = (segment.dport, str(packet.src), segment.sport)
        conn = self._connections.get(key)
        if conn is not None:
            conn.handle_segment(segment)
            return
        if "SYN" in segment.flags and "ACK" not in segment.flags:
            acceptor = self._tcp_listeners.get(segment.dport)
            if acceptor is not None:
                conn = TcpConnection(
                    self, packet.dst, segment.dport,
                    packet.src, segment.sport)
                self._connections[key] = conn
                conn.accept_from_syn()
                return
        if "RST" not in segment.flags:
            self._refuse(packet, segment)

    def _refuse(self, packet: Packet, segment: Segment) -> None:
        """No listener: answer with a RST, as real stacks do."""
        rst = Segment(segment.dport, segment.sport, seq=0, ack=0,
                      flags=FLAGS_RST)
        reply = Packet(
            src=packet.dst, dst=packet.src, protocol="tcp",
            payload=rst, size=ACK_SIZE,
            flow=("tcp", str(packet.dst), segment.dport,
                  str(packet.src), segment.sport))
        self.host.send(reply)

    def _demux_udp(self, packet: Packet) -> None:
        datagram: Datagram = packet.payload
        handler = self._udp_handlers.get(datagram.dport)
        if handler is not None:
            handler(datagram.payload, datagram.length, packet.src, datagram.sport)

    def _demux_icmp(self, packet: Packet) -> None:
        echo: _Echo = packet.payload
        if echo.is_reply:
            entry = self._echo_waiters.pop(echo.ident, None)
            if entry is not None:
                sent_at, waiter = entry
                if not waiter.triggered:
                    waiter.succeed(self.sim.now - sent_at)
            return
        reply = Packet(
            src=packet.dst, dst=packet.src, protocol="icmp",
            payload=_Echo(echo.ident, is_reply=True), size=PING_SIZE,
            flow=("icmp", str(packet.dst), str(packet.src), echo.ident))
        self.host.send(reply)


def install_transport(sim: Simulator, host: Host) -> TransportLayer:
    """Create and attach a transport layer to ``host``."""
    return TransportLayer(sim, host)
