"""Tests for links, nodes, routing, and the topology builder."""

import pytest

from repro.errors import NetworkError, RoutingError
from repro.net import IPv4Address, Network, Packet, PacketCapture, WireFeatures
from repro.sim import Simulator
from repro.units import Mbps, ms


def build_line():
    """client -- r1 -- r2 -- server, with distinct latencies."""
    sim = Simulator()
    net = Network(sim)
    client = net.add_host("client", address="10.0.0.1")
    r1 = net.add_router("r1", address="10.0.0.254")
    r2 = net.add_router("r2", address="198.51.100.254")
    server = net.add_host("server", address="203.0.113.1")
    net.connect(client, r1, latency=ms(1), bandwidth=Mbps(100))
    net.connect(r1, r2, latency=ms(40), bandwidth=Mbps(100))
    net.connect(r2, server, latency=ms(2), bandwidth=Mbps(100))
    net.build_routes()
    return sim, net, client, server


def test_duplicate_node_name_rejected():
    sim = Simulator()
    net = Network(sim)
    net.add_host("a", address="10.0.0.1")
    with pytest.raises(NetworkError):
        net.add_host("a", address="10.0.0.2")


def test_unknown_region_rejected():
    net = Network(Simulator())
    with pytest.raises(NetworkError):
        net.add_host("h", region="nowhere")


def test_region_allocation():
    net = Network(Simulator())
    net.region("cernet", "59.66.0.0/16")
    host = net.add_host("h", region="cernet")
    assert str(host.address).startswith("59.66.")


def test_node_by_address():
    _sim, net, client, _server = build_line()
    assert net.node_by_address("10.0.0.1") is client
    with pytest.raises(NetworkError):
        net.node_by_address("8.8.8.8")


def test_link_between():
    _sim, net, client, _ = build_line()
    link = net.link_between("client", "r1")
    assert link.peer_of(client).name == "r1"
    with pytest.raises(NetworkError):
        net.link_between("client", "server")


def test_no_route_raises():
    sim = Simulator()
    net = Network(sim)
    host = net.add_host("lonely", address="10.9.9.9")
    with pytest.raises(RoutingError):
        host.route_for(net.add_host("other", address="10.9.9.8").address)


def test_end_to_end_delivery_and_latency():
    sim, _net, client, server = build_line()
    received = []
    server.deliver = lambda packet: received.append((sim.now, packet))
    packet = Packet(src=client.address, dst=server.address,
                    protocol="udp", payload="x", size=100)
    client.send(packet)
    sim.run()
    assert len(received) == 1
    arrival, got = received[0]
    assert got.payload == "x"
    # 3 hops of propagation plus 3 serializations of 100B at 100 Mbps.
    expected = ms(1 + 40 + 2) + 3 * (100 / Mbps(100))
    assert arrival == pytest.approx(expected, rel=1e-6)


def test_routing_prefers_low_latency_path():
    sim = Simulator()
    net = Network(sim)
    a = net.add_host("a", address="10.0.0.1")
    b = net.add_host("b", address="10.0.0.2")
    slow = net.add_router("slow", address="10.0.1.1")
    fast = net.add_router("fast", address="10.0.1.2")
    net.connect(a, slow, latency=ms(100), bandwidth=Mbps(100))
    net.connect(slow, b, latency=ms(100), bandwidth=Mbps(100))
    net.connect(a, fast, latency=ms(5), bandwidth=Mbps(100))
    net.connect(fast, b, latency=ms(5), bandwidth=Mbps(100))
    net.build_routes()
    assert a.route_for(b.address).peer_of(a) is fast


def test_link_loss_drops_packets():
    sim = Simulator()
    net = Network(sim)
    a = net.add_host("a", address="10.0.0.1")
    b = net.add_host("b", address="10.0.0.2")
    link = net.connect(a, b, latency=ms(1), bandwidth=Mbps(100), loss=1.0 - 1e-12)
    net.build_routes()
    received = []
    b.deliver = lambda packet: received.append(packet)
    for _ in range(20):
        a.send(Packet(src=a.address, dst=b.address,
                      protocol="udp", payload=None, size=100))
    sim.run()
    assert received == []
    assert link.packets_dropped["a"] == 20


def test_serialization_queues_fifo():
    """Two back-to-back packets serialize one after the other."""
    sim = Simulator()
    net = Network(sim)
    a = net.add_host("a", address="10.0.0.1")
    b = net.add_host("b", address="10.0.0.2")
    net.connect(a, b, latency=0.0, bandwidth=1000.0)  # 1000 B/s
    net.build_routes()
    arrivals = []
    b.deliver = lambda packet: arrivals.append(sim.now)
    for _ in range(2):
        a.send(Packet(src=a.address, dst=b.address,
                      protocol="udp", payload=None, size=500))
    sim.run()
    assert arrivals == [pytest.approx(0.5), pytest.approx(1.0)]


def test_ttl_expiry_drops_packet():
    sim, _net, client, server = build_line()
    received = []
    server.deliver = lambda packet: received.append(packet)
    client.send(Packet(src=client.address, dst=server.address,
                       protocol="udp", payload=None, size=64, ttl=1))
    sim.run()
    assert received == []


def test_packet_capture_records_flows():
    sim, net, client, server = build_line()
    capture = PacketCapture(sim).attach(net.link_between("client", "r1"))
    server.deliver = lambda packet: None
    client.send(Packet(src=client.address, dst=server.address,
                       protocol="udp", payload=None, size=64,
                       features=WireFeatures(protocol_tag="plain-http"),
                       flow=("udp", "10.0.0.1", 1000, "203.0.113.1", 53)))
    sim.run()
    assert len(capture.packets) == 1
    assert capture.packets[0].protocol_tag == "plain-http"
    assert capture.bytes_total() == 64


def test_encapsulation_roundtrip():
    sim, _net, client, server = build_line()
    inner = Packet(src=client.address, dst=server.address,
                   protocol="tcp", payload="segment", size=140)
    outer = inner.encapsulate(
        src=client.address, dst=server.address, protocol="gre",
        overhead=48, features=WireFeatures(protocol_tag="pptp-gre"))
    assert outer.size == 188
    assert outer.is_tunneled
    assert outer.inner() is inner
    assert not inner.is_tunneled
    with pytest.raises(TypeError):
        inner.inner()


# -- hot-path pieces: hop copies, arrival entries, cached address text -----------------


def test_hop_keeps_id_features_and_flow_and_lowers_ttl():
    features = WireFeatures(protocol_tag="tls", sni="scholar.google.com")
    packet = Packet(src=IPv4Address("10.0.0.1"), dst=IPv4Address("203.0.113.1"),
                    protocol="tcp", payload="segment", size=140,
                    features=features, ttl=9,
                    flow=("tcp", "10.0.0.1", 50000, "203.0.113.1", 443))
    forwarded = packet.hop()
    assert forwarded is not packet
    assert forwarded.ttl == 8 and packet.ttl == 9
    assert forwarded.packet_id == packet.packet_id
    assert forwarded.features is features
    assert forwarded.flow == packet.flow
    assert (forwarded.src, forwarded.dst, forwarded.protocol,
            forwarded.payload, forwarded.size) == (
        packet.src, packet.dst, packet.protocol, packet.payload, packet.size)


def test_hop_draws_one_id_from_the_packet_id_stream():
    """Forwarding consumes an id, so later packets' ids match older traces."""
    packet = Packet(src=IPv4Address("10.0.0.1"), dst=IPv4Address("10.0.0.2"),
                    protocol="udp", payload=None, size=64)
    packet.hop()
    after = Packet(src=packet.src, dst=packet.dst, protocol="udp",
                   payload=None, size=64)
    assert after.packet_id == packet.packet_id + 2


def test_router_forwards_a_hop_copy_and_drops_at_ttl_zero():
    sim, net, client, server = build_line()
    received = []
    server.deliver = lambda packet: received.append(packet)
    sent = Packet(src=client.address, dst=server.address,
                  protocol="udp", payload=None, size=64, ttl=3)
    client.send(sent)
    sim.run()
    assert len(received) == 1
    assert received[0].ttl == 1  # two routers, one hop each
    assert received[0].packet_id == sent.packet_id
    assert net.nodes["r1"].packets_forwarded == 1
    assert net.nodes["r2"].packets_forwarded == 1

    expired = Packet(src=client.address, dst=server.address,
                     protocol="udp", payload=None, size=64, ttl=0)
    net.nodes["r1"].forward(expired)
    sim.run()
    assert len(received) == 1
    assert net.nodes["r1"].packets_forwarded == 1


def test_copy_applies_changes_with_a_fresh_id():
    packet = Packet(src=IPv4Address("59.66.1.10"), dst=IPv4Address("172.217.194.80"),
                    protocol="tcp", payload="segment", size=52, ttl=17,
                    features=WireFeatures(protocol_tag="tls"),
                    flow=("tcp", "59.66.1.10", 50000, "172.217.194.80", 443))
    rewritten = packet.copy(src=IPv4Address("47.88.1.100"), payload="nat")
    assert rewritten.packet_id not in (packet.packet_id, None)
    assert str(rewritten.src) == "47.88.1.100" and rewritten.payload == "nat"
    assert (rewritten.dst, rewritten.protocol, rewritten.size, rewritten.ttl,
            rewritten.features, rewritten.flow) == (
        packet.dst, packet.protocol, packet.size, packet.ttl,
        packet.features, packet.flow)
    with pytest.raises(TypeError):
        packet.copy(no_such_field=1)


def test_transmit_from_a_node_not_on_the_link_raises():
    _sim, net, client, server = build_line()
    link = net.link_between("client", "r1")
    with pytest.raises(NetworkError):
        link.transmit(Packet(src=server.address, dst=client.address,
                             protocol="udp", payload=None, size=64), server)
    assert link.packets_sent == {"client": 0, "r1": 0}


def test_arrival_and_timeout_at_one_instant_fire_in_insertion_order():
    sim = Simulator()
    net = Network(sim)
    a = net.add_host("a", address="10.0.0.1")
    b = net.add_host("b", address="10.0.0.2")
    net.connect(a, b, latency=1.0, bandwidth=1e12)
    net.build_routes()
    fired = []
    b.deliver = lambda packet: fired.append(f"packet-{packet.size}")
    size = 1000  # serialization 1e-9 s: due at 1.000000001
    due = 1.0 + size / 1e12
    sim.timeout(due).add_callback(lambda _event: fired.append("before"))
    a.send(Packet(src=a.address, dst=b.address, protocol="udp",
                  payload=None, size=size))
    sim.timeout(due).add_callback(lambda _event: fired.append("after"))
    sim.call_later(due, fired.append, "call")
    sim.run()
    assert fired == ["before", f"packet-{size}", "after", "call"]


def test_address_text_is_formatted_once_and_shared():
    address = IPv4Address("203.0.113.7")
    assert str(address) == "203.0.113.7"
    assert str(address) is str(address)
    assert str(IPv4Address(address)) is str(address)
    assert str(IPv4Address(int(address))) == "203.0.113.7"


def test_owns_matches_by_address_value():
    sim = Simulator()
    net = Network(sim)
    host = net.add_host("h", address="10.0.0.1")
    host.add_address("10.0.0.9")
    assert host.owns(IPv4Address("10.0.0.9"))
    assert host.owns(IPv4Address(int(IPv4Address("10.0.0.1"))))
    assert not host.owns(IPv4Address("10.0.0.2"))
