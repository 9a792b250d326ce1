"""meek: domain-fronted HTTPS transport (Fifield et al., PETS 2015).

The client speaks ordinary HTTPS to a CDN *front* domain; the CDN
forwards request bodies to the actual Tor bridge.  Tor cells ride as
HTTP POST bodies, and the client polls even when idle so downstream
cells have a channel back.  Both properties are what the paper pays
for: polling adds latency to every cell, and by 2017 the GFW's DPI
classified exactly this cadence-plus-front combination (the 4.4% loss
measured in Figure 5c).
"""

from __future__ import annotations

import itertools
import typing as t

from ...errors import MiddlewareError, TransportError
from ...net import Host, WireFeatures
from ...sim import Event, Simulator, Store
from ...transport import TcpConnection, TlsSession, TransportLayer
from ..base import MessageChannel
from .relay import OR_PORT, relay_link_features

#: HTTP overhead per meek POST / response.
POST_OVERHEAD = 160
RESPONSE_OVERHEAD = 80
#: Client poll cadence while idle.  meek's real poller backs off when
#: idle but polls aggressively (~100 ms) while traffic is flowing.
DEFAULT_POLL_INTERVAL = 0.08

_session_ids = itertools.count(1)


class CdnFront:
    """The CDN edge: terminates client TLS, forwards bodies to bridges."""

    def __init__(self, sim: Simulator, host: Host, bridge_addr,
                 front_domain: str, max_hold: float = 0.35) -> None:
        self.sim = sim
        self.host = host
        self.bridge_addr = bridge_addr
        self.front_domain = front_domain
        self.max_hold = max_hold
        self.posts_served = 0
        # Key space = one long-lived session id per meek client; the
        # bridge leg survives the client's polling, so dropping state
        # between polls would sever the tunnel.
        self._sessions: t.Dict[int, t.Dict[str, t.Any]] = {}  # reprolint: disable=unbounded-cache-field
        transport = t.cast(TransportLayer, host.transport)
        transport.listen_tcp(443, self._accept)

    def _accept(self, conn: TcpConnection) -> None:
        self.sim.process(self._serve(conn), name="cdn-front")

    def _serve(self, conn: TcpConnection):
        session = TlsSession(conn)
        try:
            yield from session.server_handshake()
            while True:
                message = yield session.recv()
                if message is None:
                    return
                if not (isinstance(message, tuple) and message[0] == "meek-post"):
                    continue
                _tag, session_id, batch = message
                self.posts_served += 1
                state = yield from self._session_state(session_id)
                if state is None:
                    session.send(RESPONSE_OVERHEAD,
                                 meta=("meek-resp", "bridge-unreachable", ()))
                    continue
                for length, meta in batch:
                    state["bridge"].send_message(length, meta=meta,
                                                 features=relay_link_features())
                # Long-poll: hold the response briefly so a reply that
                # is already in flight from the bridge rides this POST
                # instead of waiting out the client's next poll (the
                # meek-server turnaround behaviour).
                queued: Store = state["queue"]
                if not len(queued):
                    yield self.sim.any_of(
                        [queued.watch(), self.sim.timeout(self.max_hold)])
                downstream = []
                total = 0
                while len(queued):
                    item = yield queued.get()
                    downstream.append(item)
                    total += item[0]
                session.send(RESPONSE_OVERHEAD + total,
                             meta=("meek-resp", "ok", tuple(downstream)))
        except TransportError:
            return

    def _session_state(self, session_id: int):
        state = self._sessions.get(session_id)
        if state is not None:
            return state
        transport = t.cast(TransportLayer, self.host.transport)
        try:
            bridge = yield transport.connect_tcp(
                self.bridge_addr, OR_PORT, features=relay_link_features(),
                timeout=20.0)
        except TransportError:
            return None
        state = {"bridge": bridge, "queue": Store(self.sim)}
        self._sessions[session_id] = state
        self.sim.process(self._pump_bridge(state), name="front-bridge-pump")
        return state

    def _pump_bridge(self, state: t.Dict[str, t.Any]):
        """Queue downstream cells until the client's next poll."""
        from .relay import _payload_length
        bridge: TcpConnection = state["bridge"]
        queue: Store = state["queue"]
        while True:
            try:
                message = yield bridge.recv_message()
            except TransportError:
                return
            if message is None:
                return
            length = 514
            if isinstance(message, tuple) and len(message) == 4:
                length = max(514, _payload_length(message[3]))
            # Drained on every client poll (<= one poll interval of
            # backlog); capping it would stall the bridge pump and
            # change the calibrated meek PLT traces.
            queue.put((length, message))  # reprolint: disable=unbounded-queue


class MeekChannel(MessageChannel):
    """Client side: a cell channel tunneled through HTTPS polling."""

    def __init__(self, sim: Simulator, tls: TlsSession,
                 poll_interval: float = DEFAULT_POLL_INTERVAL) -> None:
        self.sim = sim
        self.tls = tls
        self.poll_interval = poll_interval
        self.session_id = next(_session_ids)
        self._outbound: t.List[t.Tuple[int, t.Any]] = []
        self._inbox = Store(sim)
        self._kick = sim.event()
        self._closed = False
        self.polls_sent = 0
        sim.process(self._poll_loop(), name="meek-poll")

    # -- MessageChannel ------------------------------------------------------------

    def send_message(self, length: int, meta: t.Any = None,
                     features: t.Optional[WireFeatures] = None) -> None:
        if self._closed:
            raise MiddlewareError("meek channel is closed")
        self._outbound.append((length, meta))
        if not self._kick.triggered:
            self._kick.succeed(None)

    def recv_message(self) -> Event:
        return self._inbox.get()

    def close(self) -> None:
        self._closed = True
        if not self._kick.triggered:
            self._kick.succeed(None)

    @property
    def state(self) -> str:
        return "CLOSED" if self._closed else "ESTABLISHED"

    # -- polling ---------------------------------------------------------------------

    def _poll_loop(self):
        # meek's poller: aggressive while traffic flows, exponential
        # backoff (up to ~5 s) while idle — otherwise the idle channel
        # would cost hundreds of empty POSTs a minute.
        interval = self.poll_interval
        while not self._closed:
            if not self._outbound:
                # Idle: wait for data or the poll timer, whichever first.
                self._kick = self.sim.event()
                yield self.sim.any_of(
                    [self._kick, self.sim.timeout(interval)])
                if self._closed:
                    return
            if self._outbound:
                interval = self.poll_interval  # traffic: reset cadence
            else:
                interval = min(interval * 1.7, 5.0)
            batch, self._outbound = self._outbound, []
            body = sum(length for length, _meta in batch)
            self.polls_sent += 1
            try:
                self.tls.send(POST_OVERHEAD + body,
                              meta=("meek-post", self.session_id, tuple(batch)))
                response = yield self.tls.recv()
            except TransportError as exc:
                self._fail(exc)
                return
            if response is None:
                self._fail(MiddlewareError("meek front closed the channel"))
                return
            if not (isinstance(response, tuple) and response[0] == "meek-resp"):
                continue
            _tag, status, downstream = response
            if status != "ok":
                self._fail(MiddlewareError(f"meek bridge failure: {status}"))
                return
            if downstream:
                interval = self.poll_interval  # downstream flowing: stay hot
            for _length, cell in downstream:
                self._inbox.put(cell)

    def _fail(self, exc: Exception) -> None:
        self._closed = True
        self._inbox.fail_getters(
            lambda: MiddlewareError(f"meek transport failed: {exc}"))
