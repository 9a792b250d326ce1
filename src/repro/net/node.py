"""Nodes: hosts and routers.

A :class:`Node` owns addresses and link attachments and forwards
packets via a next-hop routing table.  :class:`Host` additionally
carries a transport layer (installed by ``repro.transport``) and
packet hooks, the extension point used by VPN tunnels and NAT.
"""

from __future__ import annotations

import typing as t

from ..errors import NetworkError, RoutingError
from ..sim import Simulator, TraceLog
from .addresses import IPv4Address, Prefix
from .link import Link
from .packet import Packet

#: An outbound hook receives a packet about to leave the node and
#: returns a replacement packet, or None to consume it (the hook takes
#: over delivery, e.g. tunnel encapsulation that re-sends).
PacketHook = t.Callable[[Packet], t.Optional[Packet]]


class Node:
    """A network element with addresses, links, and a routing table."""

    def __init__(self, sim: Simulator, name: str,
                 trace: t.Optional[TraceLog] = None) -> None:
        self.sim = sim
        self.name = name
        self.trace = trace
        self.addresses: t.List[IPv4Address] = []
        # Integer values of ``addresses``, for the per-packet owns().
        self._owned: t.Set[int] = set()
        self.links: t.List[Link] = []
        # Next-hop routing: exact destination -> link, prefix routes in
        # longest-prefix-first order, and an optional default link.
        # Host routes are keyed by address value: an int lookup per
        # packet instead of IPv4Address.__hash__ and __eq__.
        self._host_routes: t.Dict[int, Link] = {}
        self._prefix_routes: t.List[t.Tuple[Prefix, Link]] = []
        self._default_route: t.Optional[Link] = None
        self.outbound_hooks: t.List[PacketHook] = []
        self.inbound_hooks: t.List[PacketHook] = []
        self.packets_forwarded = 0

    # -- configuration --------------------------------------------------------

    def add_address(self, address: t.Union[str, IPv4Address]) -> IPv4Address:
        addr = IPv4Address(address)
        self.addresses.append(addr)
        self._owned.add(int(addr))
        return addr

    @property
    def address(self) -> IPv4Address:
        """The node's primary address."""
        if not self.addresses:
            raise NetworkError(f"{self.name} has no address")
        return self.addresses[0]

    def _attach(self, link: Link) -> None:
        self.links.append(link)

    def add_host_route(self, destination: t.Union[str, IPv4Address], link: Link) -> None:
        if not isinstance(destination, IPv4Address):
            destination = IPv4Address(destination)
        self._host_routes[destination._value] = link

    def add_prefix_route(self, prefix: t.Union[str, Prefix], link: Link) -> None:
        pfx = prefix if isinstance(prefix, Prefix) else Prefix(prefix)
        self._prefix_routes.append((pfx, link))
        self._prefix_routes.sort(key=lambda entry: -entry[0].length)

    def set_default_route(self, link: Link) -> None:
        self._default_route = link

    def clear_routes(self) -> None:
        self._host_routes.clear()
        self._prefix_routes.clear()
        self._default_route = None

    def route_for(self, destination: IPv4Address) -> Link:
        """Longest-match route lookup; raises :class:`RoutingError`."""
        link = self._host_routes.get(destination._value)
        if link is not None:
            return link
        for prefix, prefix_link in self._prefix_routes:
            if destination in prefix:
                return prefix_link
        if self._default_route is not None:
            return self._default_route
        raise RoutingError(f"{self.name}: no route to {destination}")

    # -- data path -------------------------------------------------------------

    def owns(self, address: IPv4Address) -> bool:
        return address._value in self._owned

    def send(self, packet: Packet) -> None:
        """Originate or forward ``packet`` out of this node."""
        for hook in self.outbound_hooks:
            replacement = hook(packet)
            if replacement is None:
                return
            packet = replacement
        link = self.route_for(packet.dst)
        link.transmit(packet, self)

    def receive(self, packet: Packet, link: Link) -> None:
        """Called by a link when a packet arrives."""
        for hook in self.inbound_hooks:
            replacement = hook(packet)
            if replacement is None:
                return
            packet = replacement
        if self.owns(packet.dst):
            self.deliver(packet)
            return
        self.forward(packet)

    def forward(self, packet: Packet) -> None:
        """Forward a transit packet toward its destination."""
        if packet.ttl <= 0:
            return  # silently drop expired packets
        self.packets_forwarded += 1
        forwarded = packet.hop()
        try:
            link = self.route_for(forwarded.dst)
        except RoutingError:
            if self.trace is not None:
                self.trace.emit("node.no-route", node=self.name,
                                dst=str(forwarded.dst))
            return
        link.transmit(forwarded, self)

    def deliver(self, packet: Packet) -> None:
        """Packet addressed to this node; routers drop silently."""

    def __repr__(self) -> str:  # pragma: no cover
        addr = str(self.addresses[0]) if self.addresses else "-"
        return f"<{type(self).__name__} {self.name} {addr}>"


class Router(Node):
    """A pure forwarding element."""


class Host(Node):
    """An end host: packets addressed to it are handed to its transport.

    The transport layer is installed by ``repro.transport.sockets`` —
    keeping the dependency one-directional (transport imports net).
    """

    def __init__(self, sim: Simulator, name: str,
                 trace: t.Optional[TraceLog] = None) -> None:
        super().__init__(sim, name, trace)
        self.transport: t.Optional[t.Any] = None

    def deliver(self, packet: Packet) -> None:
        if packet.is_tunneled:
            # Tunnel endpoints register inbound hooks; an encapsulated
            # packet reaching deliver() means no hook claimed it.
            if self.trace is not None:
                self.trace.emit("host.unclaimed-tunnel", node=self.name,
                                packet_id=packet.packet_id)
            return
        if self.transport is None:
            if self.trace is not None:
                self.trace.emit("host.no-transport", node=self.name,
                                packet_id=packet.packet_id)
            return
        self.transport.demux(packet)
