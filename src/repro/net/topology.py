"""Network builder: nodes, links, and automatic route computation.

:class:`Network` is the container a scenario assembles: add hosts and
routers, connect them with links, then call :meth:`build_routes` to
install latency-weighted shortest-path next hops everywhere.  Only
nodes with several links need a Dijkstra search; the backbone is tens
of nodes, and the thousands of client hosts a sweep adds are stubs.
"""

from __future__ import annotations

import heapq
import typing as t

from ..errors import NetworkError
from ..sim import RngRegistry, Simulator, TraceLog
from .addresses import AddressAllocator, IPv4Address
from .link import Link
from .node import Host, Node, Router


class Network:
    """A set of nodes and links under one simulator."""

    def __init__(
        self,
        sim: Simulator,
        rng: t.Optional[RngRegistry] = None,
        trace: t.Optional[TraceLog] = None,
    ) -> None:
        self.sim = sim
        self.rng = rng if rng is not None else sim.rng
        self.trace = trace if trace is not None else TraceLog(sim)
        # Topology tables: filled while the testbed is built, static
        # once traffic flows — bounded by the experiment's host count.
        self.nodes: t.Dict[str, Node] = {}  # reprolint: disable=unbounded-cache-field
        self.links: t.List[Link] = []
        self._by_address: t.Dict[IPv4Address, Node] = {}  # reprolint: disable=unbounded-cache-field
        self._allocators: t.Dict[str, AddressAllocator] = {}  # reprolint: disable=unbounded-cache-field

    # -- construction -----------------------------------------------------------

    def region(self, name: str, cidr: str) -> None:
        """Declare an address region (e.g. ``cernet``, ``us-west``)."""
        self._allocators[name] = AddressAllocator(cidr)

    def _register(self, node: Node, address: t.Optional[str], region: t.Optional[str]) -> None:
        if node.name in self.nodes:
            raise NetworkError(f"duplicate node name {node.name!r}")
        self.nodes[node.name] = node
        if address is not None:
            addr = node.add_address(address)
        elif region is not None:
            allocator = self._allocators.get(region)
            if allocator is None:
                raise NetworkError(f"unknown region {region!r}")
            addr = node.add_address(allocator.allocate())
        else:
            return
        self._by_address[addr] = node

    def add_host(
        self,
        name: str,
        address: t.Optional[str] = None,
        region: t.Optional[str] = None,
    ) -> Host:
        host = Host(self.sim, name, trace=self.trace)
        self._register(host, address, region)
        return host

    def add_router(
        self,
        name: str,
        address: t.Optional[str] = None,
        region: t.Optional[str] = None,
    ) -> Router:
        router = Router(self.sim, name, trace=self.trace)
        self._register(router, address, region)
        return router

    def add_address(self, node: Node, address: t.Union[str, IPv4Address]) -> IPv4Address:
        """Attach an extra address to an existing node."""
        addr = node.add_address(address)
        self._by_address[addr] = node
        return addr

    def connect(
        self,
        a: t.Union[str, Node],
        b: t.Union[str, Node],
        latency: float,
        bandwidth: float,
        loss: float = 0.0,
        name: t.Optional[str] = None,
    ) -> Link:
        """Create a full-duplex link between two nodes."""
        node_a = self.node(a)
        node_b = self.node(b)
        link = Link(
            self.sim, node_a, node_b, latency, bandwidth, loss,
            rng=self.rng.stream(f"link:{name or (node_a.name + '-' + node_b.name)}"),
            name=name, trace=self.trace)
        self.links.append(link)
        return link

    # -- lookup -----------------------------------------------------------------

    def node(self, ref: t.Union[str, Node]) -> Node:
        if isinstance(ref, Node):
            return ref
        found = self.nodes.get(ref)
        if found is None:
            raise NetworkError(f"unknown node {ref!r}")
        return found

    def node_by_address(self, address: t.Union[str, IPv4Address]) -> Node:
        found = self._by_address.get(IPv4Address(address))
        if found is None:
            raise NetworkError(f"no node owns address {address}")
        return found

    def link_between(self, a: t.Union[str, Node], b: t.Union[str, Node]) -> Link:
        node_a, node_b = self.node(a), self.node(b)
        for link in node_a.links:
            if link.peer_of(node_a) is node_b:
                return link
        raise NetworkError(f"no link between {node_a.name} and {node_b.name}")

    def link_by_name(self, name: str) -> Link:
        """Find a link by its ``name=`` label (fault injection targets)."""
        for link in self.links:
            if link.name == name:
                return link
        raise NetworkError(f"no link named {name!r}")

    # -- routing ----------------------------------------------------------------

    def build_routes(self) -> None:
        """Install latency-weighted shortest-path next hops on all nodes.

        Stub nodes (single link) also get a default route over that
        link, so traffic to unknown destinations (e.g. addresses forged
        by DNS poisoning) is carried toward the core and blackholed
        there rather than erroring at the sender — matching how real
        hosts behave behind a default gateway.

        A stub's shortest path to every node it can reach starts on its
        only link, so stubs skip the search.  Client hosts are stubs,
        and one Dijkstra run per client made building a 2,000-client
        testbed take longer than the simulation it served.
        """
        component = self._components()
        for origin in self.nodes.values():
            origin.clear_routes()
            if len(origin.links) == 1:
                uplink = origin.links[0]
                origin.set_default_route(uplink)
                first_hop = {node: uplink for node in component[origin]
                             if node is not origin}
            else:
                first_hop = self._dijkstra_first_hops(origin)
            for target, link in first_hop.items():
                for address in target.addresses:
                    origin.add_host_route(address, link)

    def _components(self) -> t.Dict[Node, t.List[Node]]:
        """Map every node to the nodes connected to it, itself included."""
        component: t.Dict[Node, t.List[Node]] = {}
        for start in self.nodes.values():
            if start in component:
                continue
            members = [start]
            component[start] = members
            for node in members:  # appended to while iterated: breadth-first
                for link in node.links:
                    peer = link.peer_of(node)
                    if peer not in component:
                        component[peer] = members
                        members.append(peer)
        return component

    def _dijkstra_first_hops(self, origin: Node) -> t.Dict[Node, Link]:
        """Map every reachable node to the first link out of ``origin``."""
        dist: t.Dict[str, float] = {origin.name: 0.0}
        first: t.Dict[Node, Link] = {}
        counter = 0
        heap: t.List[t.Tuple[float, int, Node, t.Optional[Link]]] = [
            (0.0, counter, origin, None)]
        visited: t.Set[str] = set()
        while heap:
            cost, _tie, node, via = heapq.heappop(heap)
            if node.name in visited:
                continue
            visited.add(node.name)
            if via is not None:
                first[node] = via
            for link in node.links:
                peer = link.peer_of(node)
                next_cost = cost + link.latency
                if next_cost < dist.get(peer.name, float("inf")):
                    dist[peer.name] = next_cost
                    counter += 1
                    heapq.heappush(
                        heap,
                        (next_cost, counter, peer, via if via is not None else link))
        return first
