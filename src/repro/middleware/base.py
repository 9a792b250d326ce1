"""Shared machinery for access-method middleware.

Every access method ultimately hands the browser a
:class:`~repro.http.client.Stream`.  Proxied methods build those
streams out of *message channels* — anything with ``send_message`` /
``recv_message`` (a :class:`~repro.transport.TcpConnection`, or a
:class:`RelayedChannel` riding across a proxy chain).  TLS-in-tunnel
works because :class:`~repro.transport.TlsSession` only needs the
channel interface.

Relay framing: proxies forward application messages wrapped as
``("fwd", length, meta)`` so every hop knows how many bytes to put on
its wire; each hop chooses its own wire features, which is how tunnel
legs control what the GFW can see.
"""

from __future__ import annotations

import typing as t

from ..errors import MiddlewareError, TransportError
from ..http.client import Connector, Stream
from ..net import WireFeatures
from ..sim import Event, Simulator, Store

if t.TYPE_CHECKING:  # pragma: no cover
    from ..measure.testbed import Testbed

#: Framing label for relayed application messages.
FWD = "fwd"


def wrap_forward(length: int, meta: t.Any) -> t.Tuple[str, int, t.Any]:
    return (FWD, length, meta)


def unwrap_forward(message: t.Any) -> t.Tuple[int, t.Any]:
    if not (isinstance(message, tuple) and len(message) == 3
            and message[0] == FWD):
        raise MiddlewareError(f"malformed relay frame: {message!r}")
    return message[1], message[2]


class MessageChannel:
    """Duck-typed protocol: what a relayed endpoint looks like."""

    sim: Simulator

    def send_message(self, length: int, meta: t.Any = None,
                     features: t.Optional[WireFeatures] = None) -> None:
        raise NotImplementedError

    def recv_message(self) -> Event:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError


class RelayedChannel(MessageChannel):
    """Client-side endpoint of a proxied stream.

    ``send_message`` wraps the payload in relay framing and pushes it
    down the underlying channel with ``overhead`` extra bytes and the
    tunnel's wire features; incoming frames are unwrapped into a local
    inbox.  A channel is *pumped* by its owning protocol, which decides
    when to start/stop (see the per-method client implementations).
    """

    def __init__(self, sim: Simulator, underlying: MessageChannel,
                 overhead: int, features: t.Optional[WireFeatures],
                 name: str = "relay") -> None:
        self.sim = sim
        self.underlying = underlying
        self.overhead = overhead
        self.features = features
        self.name = name
        self._inbox = Store(sim)
        self._closed = False
        self._pump_started = False

    # -- MessageChannel ----------------------------------------------------------

    def send_message(self, length: int, meta: t.Any = None,
                     features: t.Optional[WireFeatures] = None) -> None:
        # Inner features are deliberately ignored: on the tunneled leg
        # the wire shows only the tunnel's own features.
        self._ensure_pump()
        self.underlying.send_message(
            length + self.overhead, meta=wrap_forward(length, meta),
            features=self.features)

    def recv_message(self) -> Event:
        self._ensure_pump()
        return self._inbox.get()

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self.underlying.close()

    # -- state, mirroring TcpConnection enough for TlsStream.alive -------------------

    @property
    def state(self) -> str:
        return getattr(self.underlying, "state", "ESTABLISHED")

    # -- pumping -------------------------------------------------------------------

    def _ensure_pump(self) -> None:
        if self._pump_started:
            return
        self._pump_started = True
        self.sim.process(self._pump(), name=f"{self.name}-pump")

    def _pump(self):
        while True:
            try:
                message = yield self.underlying.recv_message()
            except TransportError as exc:
                self._fail_waiters(exc)
                return
            if message is None:
                # One EOF sentinel, then the pump exits — nothing grows.
                self._inbox.put(None)  # reprolint: disable=unbounded-queue
                return
            try:
                _length, meta = unwrap_forward(message)
            except MiddlewareError:
                continue  # drop junk rather than crash the pump
            # Bounded by the sender: this inbox mirrors one TCP stream
            # whose sender paces on ACKs, and capping it would change
            # the calibrated Figure 4-6 wire traces.
            self._inbox.put(meta)  # reprolint: disable=unbounded-queue

    def _fail_waiters(self, exc: Exception) -> None:
        self._inbox.fail_getters(lambda: type(exc)(str(exc)))


class ChannelStream(Stream):
    """Adapt any MessageChannel to the browser's Stream interface."""

    def __init__(self, channel: MessageChannel) -> None:
        self.channel = channel

    def send(self, length: int, meta: t.Any) -> None:
        self.channel.send_message(length, meta)

    def recv(self) -> Event:
        return self.channel.recv_message()

    def close(self) -> None:
        self.channel.close()

    @property
    def alive(self) -> bool:
        return getattr(self.channel, "state", "ESTABLISHED") == "ESTABLISHED"


def pump_between(sim: Simulator, source: MessageChannel, sink: MessageChannel,
                 rewrap: t.Callable[[int, t.Any], t.Tuple[int, t.Any, t.Optional[WireFeatures]]],
                 name: str = "pump"):
    """Generator: forward relay frames from ``source`` into ``sink``.

    ``rewrap(length, meta)`` returns the (length, meta, features) to
    send on the sink side — how a proxy hop swaps framing/features.
    Ends on EOF or transport failure, closing the sink.
    """
    # Fluid mode drains the source's already-delivered frames in one
    # wakeup (one event per quantum) instead of one event round-trip
    # per message.  Only raw TCP inboxes qualify: a RelayedChannel's
    # inbox holds unwrapped metas, not relay frames.
    inbox = getattr(source, "_inbox", None) if hasattr(source, "handle_segment") else None
    while True:
        try:
            message = yield source.recv_message()
        except TransportError:
            sink.close()
            return
        while True:
            if message is None:
                sink.close()
                return
            try:
                length, meta = unwrap_forward(message)
            except MiddlewareError:
                pass  # drop junk rather than crash the pump
            else:
                out_length, out_meta, out_features = rewrap(length, meta)
                try:
                    sink.send_message(out_length, meta=out_meta,
                                      features=out_features)
                except TransportError:
                    source.close()
                    return
            if sim.fluid is None or inbox is None:
                break
            ready, message = inbox.get_nowait()
            if not ready:
                break


def estimate_meta_length(meta: t.Any) -> int:
    """Byte length of an application message meta.

    Proxies relaying *inbound* traffic (target → client) see only the
    meta, not the wire length, so they need to reconstruct it.  Exact
    for this reproduction's workloads: HTTP messages expose
    ``.size()``, TLS handshake metas map onto the constants in
    :mod:`repro.transport.tls`, TLS app records add record overhead.
    """
    from ..transport import tls as tls_sizes
    size = getattr(meta, "size", None)
    if callable(size):
        return int(size())
    if isinstance(meta, tuple) and meta:
        if meta[0] == "tls-app":
            return estimate_meta_length(meta[1]) + tls_sizes.RECORD_OVERHEAD
        if meta[0] == "tls" and len(meta) >= 2:
            by_name = {
                "client-hello": tls_sizes.CLIENT_HELLO,
                "server-hello": tls_sizes.SERVER_HELLO_WITH_CERT,
                "server-hello-abbreviated": tls_sizes.ABBREVIATED_SERVER_HELLO,
                "client-finished": tls_sizes.CLIENT_KEY_EXCHANGE_FINISHED,
                "server-finished": tls_sizes.SERVER_FINISHED,
            }
            return by_name.get(meta[1], 300)
        if meta[0] == "echo":
            return 64
    return 600


class AccessMethod:
    """One way of reaching Google Scholar, drivable by the harness."""

    #: Machine-readable identifier (figure keys use these).
    name = "abstract"
    #: Name as printed in the paper's figures.
    display_name = "Abstract"
    #: True if client software beyond the browser must run (Figure 6b).
    requires_client_software = False

    def __init__(self, testbed: "Testbed") -> None:
        self.testbed = testbed

    def setup(self):
        """Generator process: prepare the method (tunnels, circuits…)."""
        return
        yield  # pragma: no cover

    def connector(self) -> Connector:
        """The connector the browser should use."""
        raise NotImplementedError

    def attach_client(self, host):
        """Generator: provision ``host`` and return a Connector for it.

        Used by the Figure 7 scalability experiment to drive many
        concurrent clients through one server-side deployment.  Tor
        does not implement this — the paper excludes Tor from the
        scalability study because the bridge infrastructure is not
        under the experimenter's control.
        """
        raise NotImplementedError(
            f"{self.display_name} does not support multi-client attachment")
        yield  # pragma: no cover

    def teardown(self) -> None:
        """Undo host hooks so methods can be swapped within one world."""
