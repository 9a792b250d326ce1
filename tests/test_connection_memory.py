"""Per-connection memory: slotted state and release of acknowledged data.

A simulated world keeps every TCP connection it opened, so the size of
one connection bounds how far a run can scale.  These tests pin:

* the retained bytes per connection of a small packet ScholarCloud
  point, measured with ``tracemalloc``;
* that the per-connection classes carry no instance ``__dict__``;
* that releasing acknowledged send-buffer entries never changes what
  the sender reads back for a range at or above the acknowledged
  offset;
* ``Store.fail_getters`` and ``Segment.copy``.
"""

from __future__ import annotations

import gc
import tracemalloc
import typing as t
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.errors import ConnectionReset
from repro.net import Network, WireFeatures
from repro.sim import Simulator, Store
from repro.transport import install_transport
from repro.transport.tcp import (
    FLAGS_SYN,
    Message,
    Segment,
    TcpConnection,
    _InFlight,
    _SendBuffer,
)
from repro.units import Mbps, ms

#: Retained bytes per connection allowed for the packet point below.
#: Dict-backed connections with deque-backed inboxes and unreleased
#: send buffers retained ~3.6 KB each on Python 3.9 and ~5.1 KB on
#: 3.11; the slotted ones ~1.6 KB on both.
MAX_BYTES_PER_CONNECTION = 2_500


def test_retained_bytes_per_connection_stay_small():
    from repro.measure import scenarios

    worlds: t.List[t.Any] = []
    connections: t.List[TcpConnection] = []
    prepare, conn_init = scenarios.prepare, TcpConnection.__init__

    def keep_world(*args, **kwargs):
        worlds.append(prepare(*args, **kwargs))
        return worlds[-1]

    def kept_conn(conn, *args, **kwargs):
        connections.append(conn)
        conn_init(conn, *args, **kwargs)

    gc.collect()
    tracemalloc.start()
    try:
        with mock.patch.object(scenarios, "prepare", keep_world), \
                mock.patch.object(TcpConnection, "__init__", kept_conn):
            scenarios.run_overload_point("scholarcloud", clients=6, cycles=1,
                                         seed=11, mode="packet")
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    # Connections are built in transport/sockets.py, their state in
    # transport/tcp.py, their inboxes in sim/resources.py.
    owned = snapshot.filter_traces([
        tracemalloc.Filter(True, "*/repro/transport/*.py"),
        tracemalloc.Filter(True, "*/repro/sim/resources.py"),
    ])
    retained = sum(stat.size for stat in owned.statistics("filename"))
    assert worlds and len(connections) > 100
    per_connection = retained / len(connections)
    assert per_connection < MAX_BYTES_PER_CONNECTION, per_connection


def test_per_connection_classes_have_no_instance_dict():
    sim = Simulator()
    net = Network(sim)
    host = net.add_host("a", address="10.0.0.1")
    transport = install_transport(sim, host)
    conn = TcpConnection(transport, host.address, 40000, host.address, 80)
    segment = Segment(40000, 80, seq=0, ack=0, flags=FLAGS_SYN)
    for instance in (conn, Store(sim), _SendBuffer(), segment,
                     _InFlight(segment, 0.0)):
        assert not hasattr(instance, "__dict__"), type(instance).__name__


# -- release of acknowledged entries ---------------------------------------------

class _UnreleasedBuffer:
    """The send buffer's lookups over every entry ever enqueued."""

    def __init__(self) -> None:
        self.length = 0
        self.boundaries: t.List[t.Tuple[int, t.Any]] = []
        self.features: t.List[t.Tuple[int, WireFeatures]] = []

    def enqueue(self, message: Message) -> None:
        self.length += message.length
        self.boundaries.append((self.length, message.meta))
        if message.features is not None:
            self.features.append((self.length, message.features))

    def ends_in(self, start: int, end: int) -> t.Tuple[t.Tuple[int, t.Any], ...]:
        return tuple((off, meta) for off, meta in self.boundaries
                     if start < off <= end)

    def features_for(self, start: int) -> t.Optional[WireFeatures]:
        for end_offset, features in self.features:
            if start < end_offset:
                return features
        return None


@given(messages=st.lists(st.tuples(st.integers(1, 4000), st.booleans()),
                         min_size=1, max_size=25),
       data=st.data())
@settings(max_examples=60, deadline=None)
def test_release_matches_unreleased_lookups(messages, data):
    released, naive = _SendBuffer(), _UnreleasedBuffer()
    for index, (length, featured) in enumerate(messages):
        features = WireFeatures(sni=f"m{index}") if featured else None
        message = Message(length, meta=("msg", index), features=features)
        released.enqueue(message)
        naive.enqueue(message)
    total = naive.length
    acks = sorted(data.draw(st.lists(st.integers(0, total), min_size=1,
                                     max_size=4)))
    for acked in acks:
        released.release(acked)
        for _ in range(8):
            start = data.draw(st.integers(acked, total))
            end = data.draw(st.integers(start, total + 10))
            assert released.ends_in(start, end) == naive.ends_in(start, end)
            assert released.features_for(start) == naive.features_for(start)


def test_acknowledged_transfer_leaves_nothing_buffered():
    sim = Simulator()
    net = Network(sim)
    a = net.add_host("a", address="10.0.0.1")
    b = net.add_host("b", address="203.0.113.1")
    net.connect(a, b, latency=ms(20), bandwidth=Mbps(100))
    net.build_routes()
    ta, tb = install_transport(sim, a), install_transport(sim, b)
    received: t.List[t.Any] = []

    def acceptor(conn):
        def reader(sim, conn):
            while True:
                meta = yield conn.recv_message()
                if meta is None:
                    return
                received.append(meta)
        sim.process(reader(sim, conn))

    tb.listen_tcp(80, acceptor)

    def client(sim):
        conn = yield ta.connect_tcp("203.0.113.1", 80)
        for index in range(5):
            conn.send_message(20_000, meta=index,
                              features=WireFeatures(sni=f"m{index}"))
        yield sim.timeout(5.0)
        return conn

    conn = sim.run(until=sim.process(client(sim)))
    assert received == [0, 1, 2, 3, 4]
    buffer = conn._send_buffer
    assert buffer.length == 100_000 == conn._snd_una
    assert buffer.ends_in(0, buffer.length) == ()
    assert buffer.features_for(0) is None
    assert conn._in_flight == {}


# -- Store.fail_getters and Segment.copy ----------------------------------------

def test_fail_getters_fails_blocked_readers_in_order_with_fresh_errors():
    sim = Simulator()
    store = Store(sim)
    outcomes: t.List[t.Tuple[str, t.Any]] = []
    errors: t.List[BaseException] = []

    def reader(sim, name):
        try:
            item = yield store.get()
        except ConnectionReset as exc:
            outcomes.append((name, exc))
        else:
            outcomes.append((name, item))

    for name in ("first", "second", "third"):
        sim.process(reader(sim, name))
    sim.run()

    def make_error():
        errors.append(ConnectionReset(f"reset {len(errors)}"))
        return errors[-1]

    store.fail_getters(make_error)
    sim.run()
    assert [name for name, _ in outcomes] == ["first", "second", "third"]
    assert [exc for _, exc in outcomes] == errors
    assert len({id(exc) for exc in errors}) == 3

    # The store still works for the next reader.
    sim.process(reader(sim, "later"))
    sim.run()
    store.put("item")
    sim.run()
    assert outcomes[-1] == ("later", "item")


def test_segment_copy_applies_changes_and_keeps_fields():
    segment = Segment(50000, 443, seq=7, ack=9, flags=FLAGS_SYN, length=3,
                      message_ends=((10, "m"),))
    rewritten = segment.copy(sport=40001)
    assert rewritten is not segment
    assert (rewritten.sport, rewritten.dport, rewritten.seq, rewritten.ack,
            rewritten.flags, rewritten.length, rewritten.message_ends) == (
        40001, 443, 7, 9, FLAGS_SYN, 3, ((10, "m"),))
    assert segment.sport == 50000
