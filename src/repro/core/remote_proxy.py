"""ScholarCloud's remote proxy (outside the wall).

Accepts blinded streams from the domestic proxy, opens target
connections, and pumps traffic.  Two properties matter:

* **Epoch discipline** — frames carry the blinding epoch; a mismatch
  (stale codec after a rotation) is treated exactly like garbage.
* **Probe resistance** — garbage, scanners, and GFW active probes get
  a decoy HTTP error, indistinguishable from a boring web server
  (contrast with Shadowsocks' hang-on-garbage tell).
"""

from __future__ import annotations

import typing as t
from dataclasses import dataclass

from ..cache import ResponseCache, canonical_key
from ..dns import StubResolver
from ..errors import MiddlewareError, NameResolutionError, TransportError
from ..http.messages import HttpRequest, HttpResponse
from ..overload import BoundedQueue, ConcurrencyLimiter, OverloadConfig, deadline_from_wire
from ..sim import ProcessorSharingServer, Simulator
from ..transport import TcpConnection, TransportLayer
from ..middleware.base import estimate_meta_length, unwrap_forward, wrap_forward
from .blinding import BlindingAgility

#: Port the remote proxy listens on (looks like HTTPS).
REMOTE_PROXY_PORT = 443
#: CPU work per stream open and per relayed byte (lighter than
#: Shadowsocks: no per-session auth machinery).
CONNECT_DEMAND = 0.003
PER_BYTE_DEMAND = 3e-7


def blind_wrap(epoch: int, length: int, meta: t.Any) -> t.Tuple[str, int, t.Any]:
    """Frame a relayed message for the blinded inter-proxy leg."""
    return ("sc", epoch, wrap_forward(length, meta))


def blind_unwrap(message: t.Any, epoch: int) -> t.Optional[t.Tuple[int, t.Any]]:
    """Unframe; None if the message is garbage or from a stale epoch."""
    if not (isinstance(message, tuple) and len(message) == 3
            and message[0] == "sc"):
        return None
    if message[1] != epoch:
        return None
    try:
        return unwrap_forward(message[2])
    except MiddlewareError:
        return None


def _extract_request(meta: t.Any) -> t.Tuple[t.Optional[HttpRequest], bool]:
    """Pull an :class:`HttpRequest` out of a relayed frame, if any.

    Returns ``(request, wrapped)`` where ``wrapped`` marks a TLS
    application record; ``(None, False)`` for everything else
    (handshake frames, echo payloads, responses).
    """
    if isinstance(meta, HttpRequest):
        return meta, False
    if (isinstance(meta, tuple) and len(meta) == 2 and meta[0] == "tls-app"
            and isinstance(meta[1], HttpRequest)):
        return meta[1], True
    return None, False


@dataclass
class _TierState:
    """Per-stream second-tier cache state shared by the two pumps.

    ``pending`` remembers the canonical key (and TLS wrapping) of the
    request most recently forwarded to the target, so the downstream
    pump can insert the matching response.  One request is in flight
    per stream at a time in this model, so a single slot suffices.
    """

    port: int
    pending: t.Optional[t.Tuple[t.Tuple, bool]] = None


class RemoteProxy:
    """The outside-the-wall half of the split proxy."""

    def __init__(
        self,
        sim: Simulator,
        host,
        resolver: StubResolver,
        cpu: ProcessorSharingServer,
        agility: BlindingAgility,
        port: int = REMOTE_PROXY_PORT,
        overload: t.Optional[OverloadConfig] = None,
        cache: t.Optional[ResponseCache] = None,
    ) -> None:
        self.sim = sim
        self.host = host
        self.resolver = resolver
        self.cpu = cpu
        self.agility = agility
        self.port = port
        #: Optional second-tier response cache: hits answer from here
        #: without touching the origin (the transpacific leg was already
        #: paid; this tier saves the origin round trip).  None — the
        #: default — keeps the pure relay event-for-event identical.
        self.cache = cache
        self.streams_opened = 0
        self.decoys_served = 0
        self.streams_shed = 0
        self.deadline_drops = 0
        self.overload = overload
        #: In-flight stream cap; shedding keeps a saturated CPU serving
        #: the admitted streams fast instead of everyone slowly.
        self.limiter: t.Optional[ConcurrencyLimiter] = None
        #: Accept backlog: connections accepted but not yet dispatched.
        self.backlog: t.Optional[BoundedQueue] = None
        if overload is not None and overload.remote_max_streams is not None:
            self.limiter = ConcurrencyLimiter(
                sim, overload.remote_max_streams, name="sc-remote-streams")
        if overload is not None and overload.remote_backlog is not None:
            self.backlog = BoundedQueue(sim, overload.remote_backlog,
                                        name="sc-remote-backlog")
            sim.process(self._dispatch(), name="sc-remote-dispatch")
        transport = t.cast(TransportLayer, host.transport)
        transport.listen_tcp(port, self._accept)

    def _accept(self, conn: TcpConnection) -> None:
        if self.backlog is not None:
            if not self.backlog.offer(conn):
                self.streams_shed += 1
                self.sim.process(self._serve_decoy(conn),
                                 name="sc-remote-reject")
            return
        self.sim.process(self._serve(conn), name="sc-remote")

    def _dispatch(self):
        """Drain the accept backlog (only runs when a backlog exists)."""
        while True:
            conn = yield self.backlog.get()
            self.sim.process(self._serve(conn), name="sc-remote")

    def _serve_decoy(self, conn: TcpConnection):
        """Overflowed accept: answer like an overloaded web server.

        Reading the first frame before replying keeps the reject
        indistinguishable from the decoy path a prober sees.
        """
        try:
            yield conn.recv_message()
            conn.send_message(480, meta=("http-503", "Service Unavailable"))
        except TransportError:
            pass
        conn.close()

    def _serve(self, conn: TcpConnection):
        try:
            first = yield conn.recv_message()
        except TransportError:
            return
        opened = blind_unwrap(first, self.agility.epoch)
        if opened is None or not (isinstance(opened[1], tuple)
                                  and len(opened[1]) in (3, 4)
                                  and opened[1][0] == "sc-open"):
            # Garbage, probe, or stale epoch: answer like a web server.
            self.decoys_served += 1
            try:
                conn.send_message(480, meta=("http-400", "Bad Request"))
            except TransportError:
                pass
            conn.close()
            return
        hostname, target_port = opened[1][1], opened[1][2]
        deadline = deadline_from_wire(
            opened[1][3] if len(opened[1]) == 4 else None)
        if deadline is not None and deadline.expired(self.sim.now):
            # Nobody is waiting for this answer any more; don't spend
            # CPU or a target dial on it.
            self.deadline_drops += 1
            if self.sim.fluid is not None:
                # The error answer and teardown stay at packet level.
                self.sim.fluid.defluidize(conn, "expired")
            self._send_error(conn)
            conn.close()
            return
        admitted = False
        if self.limiter is not None:
            if not self.limiter.try_acquire():
                self.streams_shed += 1
                if self.sim.fluid is not None:
                    # Shed streams answer and tear down at packet level.
                    self.sim.fluid.defluidize(conn, "shed")
                self._send_error(conn)
                conn.close()
                return
            admitted = True
        yield self.cpu.submit(CONNECT_DEMAND)
        transport = t.cast(TransportLayer, self.host.transport)
        dial_timeout = (30.0 if deadline is None
                        else deadline.clamp(30.0, self.sim.now))
        target: t.Optional[TcpConnection] = None
        try:
            address = yield self.resolver.resolve(hostname)
            target = yield transport.connect_tcp(address, target_port,
                                                 timeout=dial_timeout)
        except (NameResolutionError, TransportError):
            self._send_error(conn)
            conn.close()
            self._release(admitted)
            return
        self.streams_opened += 1
        try:
            conn.send_message(
                24, meta=blind_wrap(self.agility.epoch, 16, ("sc-ready",)),
                features=self.agility.codec.features())
        except TransportError:
            # The domestic side vanished between open and ack: the
            # target dial must not leak, nor the concurrency slot.
            target.close()
            conn.close()
            self._release(admitted)
            return
        state = (None if self.cache is None else _TierState(target_port))
        up = self.sim.process(self._pump_upstream(conn, target, state),
                              name="sc-up")
        self.sim.process(self._pump_downstream(conn, target, state),
                         name="sc-down")
        if admitted:
            # The stream slot frees when the domestic-facing pump ends
            # (EOF or failure on ``conn``); the target-facing pump may
            # outlive it on a half-closed dial and must not pin the slot.
            up.add_callback(lambda _event: self.limiter.release())

    def _send_error(self, conn: TcpConnection) -> None:
        """Best-effort ``sc-error`` ack; the peer may already be gone."""
        try:
            conn.send_message(
                24, meta=blind_wrap(self.agility.epoch, 16, ("sc-error",)),
                features=self.agility.codec.features())
        except TransportError:
            pass

    def _release(self, admitted: bool) -> None:
        if admitted:
            assert self.limiter is not None
            self.limiter.release()

    def _pump_upstream(self, conn: TcpConnection, target: TcpConnection,
                       state: t.Optional[_TierState] = None):
        codec = self.agility.codec
        while True:
            try:
                message = yield conn.recv_message()
            except TransportError:
                target.close()
                return
            if message is None:
                target.close()
                return
            unwrapped = blind_unwrap(message, self.agility.epoch)
            if unwrapped is None:
                continue
            length, meta = unwrapped
            if state is not None:
                request, wrapped = _extract_request(meta)
                if request is not None:
                    key = canonical_key(request, state.port)
                    cached = self.cache.lookup(key)
                    if cached is not None:
                        # Second-tier hit: answer from here, sparing the
                        # origin round trip; the origin never sees the
                        # request.
                        wire = self.cache.wire_length_of(key)
                        out_meta: t.Any = (("tls-app", cached) if wrapped
                                           else cached)
                        yield self.cpu.submit(PER_BYTE_DEMAND * wire)
                        padded = wire + 4 + codec.pad_length(wire)
                        try:
                            conn.send_message(
                                padded,
                                meta=blind_wrap(self.agility.epoch, wire,
                                                out_meta),
                                features=codec.features())
                        except TransportError:
                            target.close()
                            return
                        continue
                    state.pending = (key, wrapped)
            yield self.cpu.submit(PER_BYTE_DEMAND * length)
            try:
                target.send_message(length, meta=meta)
            except TransportError:
                conn.close()
                return

    def _pump_downstream(self, conn: TcpConnection, target: TcpConnection,
                         state: t.Optional[_TierState] = None):
        codec = self.agility.codec
        while True:
            try:
                message = yield target.recv_message()
            except TransportError:
                conn.close()
                return
            if message is None:
                conn.close()
                return
            length = estimate_meta_length(message)
            if state is not None and state.pending is not None:
                response: t.Optional[HttpResponse] = None
                key, wrapped = state.pending
                if wrapped and (isinstance(message, tuple)
                                and len(message) == 2
                                and message[0] == "tls-app"
                                and isinstance(message[1], HttpResponse)):
                    response = message[1]
                elif not wrapped and isinstance(message, HttpResponse):
                    response = message
                if response is not None:
                    state.pending = None
                    if (response.status == 200 and response.cacheable
                            and not response.record_account):
                        # Tier-2 hits still cross the Pacific, so they
                        # avoid no transpacific bytes — only origin work.
                        self.cache.insert(key, response, length,
                                          avoided_bytes=0)
            yield self.cpu.submit(PER_BYTE_DEMAND * length)
            padded = length + 4 + codec.pad_length(length)
            try:
                conn.send_message(
                    padded, meta=blind_wrap(self.agility.epoch, length, message),
                    features=codec.features())
            except TransportError:
                target.close()
                return
