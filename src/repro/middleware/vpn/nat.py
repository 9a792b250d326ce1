"""Source NAT at the VPN server.

Decapsulated client packets leave the VPN server with the server's own
address; the table remembers how to map replies back to the client.
TCP/UDP map on ports, ICMP on the echo identifier.
"""

from __future__ import annotations

import dataclasses
import itertools
import typing as t

from ...net import IPv4Address, Packet
from ...transport.sockets import Datagram, _Echo
from ...transport.tcp import Segment


@dataclasses.dataclass(frozen=True)
class NatEntry:
    client_addr: IPv4Address
    client_port: int


class NatTable:
    """Port-based source NAT."""

    def __init__(self, public_addr: IPv4Address) -> None:
        self.public_addr = public_addr
        self._next_port = itertools.count(40_000)
        # (proto, nat_port) -> entry;  (proto, client, client_port) -> nat_port
        # Bounded by the run's distinct client flows: mappings must
        # outlive their flow (the packet layer has no flow-end signal),
        # and modeling NAT timeouts would change flow identity mid-run.
        self._by_nat: t.Dict[t.Tuple[str, int], NatEntry] = {}  # reprolint: disable=unbounded-cache-field
        self._by_client: t.Dict[t.Tuple[str, str, int], int] = {}  # reprolint: disable=unbounded-cache-field

    def translations(self) -> int:
        return len(self._by_nat)

    def outbound(self, packet: Packet) -> t.Optional[Packet]:
        """Rewrite a client packet to source from the public address."""
        if packet.protocol == "tcp":
            segment: Segment = packet.payload
            nat_port = self._port_for(packet.protocol, packet.src, segment.sport)
            rewritten = segment.copy(sport=nat_port)
            return packet.copy(src=self.public_addr, payload=rewritten,
                               flow=("tcp", str(self.public_addr), nat_port,
                                     str(packet.dst), segment.dport))
        if packet.protocol == "udp":
            datagram: Datagram = packet.payload
            nat_port = self._port_for(packet.protocol, packet.src, datagram.sport)
            rewritten = Datagram(nat_port, datagram.dport, datagram.payload,
                                 datagram.length)
            return packet.copy(src=self.public_addr, payload=rewritten,
                               flow=("udp", str(self.public_addr), nat_port,
                                     str(packet.dst), datagram.dport))
        if packet.protocol == "icmp":
            echo: _Echo = packet.payload
            nat_ident = self._port_for(packet.protocol, packet.src, echo.ident)
            return packet.copy(src=self.public_addr,
                               payload=_Echo(nat_ident, echo.is_reply),
                               flow=("icmp", str(self.public_addr),
                                     str(packet.dst), nat_ident))
        return None

    def inbound(self, packet: Packet) -> t.Optional[Packet]:
        """Rewrite a reply back toward the client; None if unmapped."""
        if packet.protocol == "tcp":
            segment = packet.payload
            entry = self._by_nat.get(("tcp", segment.dport))
            if entry is None:
                return None
            rewritten = segment.copy(dport=entry.client_port)
            return packet.copy(dst=entry.client_addr, payload=rewritten)
        if packet.protocol == "udp":
            datagram = packet.payload
            entry = self._by_nat.get(("udp", datagram.dport))
            if entry is None:
                return None
            rewritten = Datagram(datagram.sport, entry.client_port,
                                 datagram.payload, datagram.length)
            return packet.copy(dst=entry.client_addr, payload=rewritten)
        if packet.protocol == "icmp":
            echo = packet.payload
            entry = self._by_nat.get(("icmp", echo.ident))
            if entry is None:
                return None
            return packet.copy(dst=entry.client_addr,
                               payload=_Echo(entry.client_port, echo.is_reply))
        return None

    def _port_for(self, proto: str, client: IPv4Address, port: int) -> int:
        key = (proto, str(client), port)
        existing = self._by_client.get(key)
        if existing is not None:
            return existing
        nat_port = next(self._next_port)
        self._by_client[key] = nat_port
        self._by_nat[(proto, nat_port)] = NatEntry(client, port)
        return nat_port
