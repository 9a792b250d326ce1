"""ScholarCloud's domestic proxy (inside the wall).

The logically-centralized replacement for Shadowsocks' per-client
local proxies (§3 "Split-proxy architecture and configuration
automation"): browsers reach it via one PAC setting; it enforces the
visible whitelist, and blinds traffic toward the remote proxy.  One
transpacific connection is dialed per user stream — like Shadowsocks'
data connection, but with no per-session authentication round trip in
front of it (the paper's explanation for ScholarCloud's shorter PLT).

The transpacific leg is also where ScholarCloud's availability story
lives: the dial goes through a :class:`~repro.faults.FailoverPool` of
remote proxies, each guarded by a circuit breaker, with retry/backoff
on top — so a crashed or IP-blocked remote is absorbed server-side
while the browser's already-acknowledged stream simply queues.
"""

from __future__ import annotations

import typing as t
from dataclasses import replace

from ..cache import ResponseCache, canonical_key
from ..errors import MiddlewareError, OverloadError, TransportError
from ..faults import Endpoint, FailoverPool, RetryPolicy
from ..http.messages import HttpRequest, HttpResponse
from ..net import IPv4Address
from ..overload import AdmissionController, Deadline, OverloadConfig, deadline_from_wire
from ..sim import ProcessorSharingServer, Simulator, Store
from ..transport import TcpConnection, TransportLayer
from ..transport import tls as tls_sizes
from ..middleware.base import unwrap_forward, wrap_forward
from .blinding import BlindingAgility
from .remote_proxy import REMOTE_PROXY_PORT, blind_unwrap, blind_wrap
from .whitelist import Whitelist

#: Port the domestic proxy serves browsers on.
DOMESTIC_PROXY_PORT = 8080
#: CPU work per stream and per relayed byte on the domestic VM.
CONNECT_DEMAND = 0.002
PER_BYTE_DEMAND = 2.5e-7
#: Transpacific dial timeout.  Much shorter than a browser's 30 s: the
#: proxy would rather fail fast and try a replica than leave the user's
#: (already-acknowledged) stream hanging on one dead endpoint.
DIAL_TIMEOUT = 5.0
#: Cadence/timeout of the failover pool's health probes (only started
#: when there is more than one remote to choose between).
HEALTH_CHECK_INTERVAL = 15.0
HEALTH_CHECK_TIMEOUT = 3.0


class DomesticProxy:
    """The inside-the-wall half of the split proxy."""

    def __init__(
        self,
        sim: Simulator,
        host,
        remote_addr: t.Union[None, str, IPv4Address] = None,
        whitelist: t.Optional[Whitelist] = None,
        agility: t.Optional[BlindingAgility] = None,
        cpu: t.Optional[ProcessorSharingServer] = None,
        port: int = DOMESTIC_PROXY_PORT,
        remote_port: int = REMOTE_PROXY_PORT,
        remote_addrs: t.Optional[t.Sequence[t.Union[str, IPv4Address]]] = None,
        dial_timeout: float = DIAL_TIMEOUT,
        retry: t.Optional[RetryPolicy] = None,
        overload: t.Optional[OverloadConfig] = None,
        router: t.Optional[t.Any] = None,
        hedge: t.Optional[t.Any] = None,
        cache: t.Optional[ResponseCache] = None,
    ) -> None:
        """``router`` (a :class:`~repro.fleet.router.SessionRouter`)
        layers sticky fleet-wide session->PoP assignment over the
        failover pool: the router proposes which endpoint a session
        should dial, the pool's per-endpoint breakers still veto.

        ``hedge`` (a :class:`~repro.fleet.survival.HedgedDialer`, duck-
        typed so core stays fleet-agnostic) races the transpacific dial
        against a second CLOSED-breaker endpoint once the primary runs
        past the p95 dial-latency estimate.  None (the default) keeps
        the historical single-dial behaviour byte-identical."""
        if whitelist is None or agility is None or cpu is None:
            raise TypeError(
                "DomesticProxy requires whitelist, agility, and cpu")
        addresses = list(remote_addrs) if remote_addrs else []
        if remote_addr is not None and not addresses:
            addresses = [remote_addr]
        if not addresses:
            raise TypeError("DomesticProxy requires remote_addr(s)")
        self.sim = sim
        self.host = host
        self.whitelist = whitelist
        self.agility = agility
        self.cpu = cpu
        self.port = port
        self.remote_port = remote_port
        self.dial_timeout = dial_timeout
        self.pool = FailoverPool(
            sim,
            [Endpoint(IPv4Address(address), remote_port)
             for address in addresses])
        #: Primary remote address (compatibility with single-remote users).
        self.remote_addr = self.pool.primary.address
        self.retry = retry if retry is not None else RetryPolicy(
            attempts=4, base=0.5, cap=4.0,
            rng=sim.rng.stream("resilience.sc-domestic"))
        self.router = router
        self.hedge = hedge
        #: Optional edge response cache (see :mod:`repro.cache`).  None
        #: — the default — keeps the historical pure-relay behaviour
        #: event-for-event identical.
        self.cache = cache
        #: TLS session tickets the *proxy* holds with origins; the edge
        #: path runs the origin handshake itself (the browser's
        #: handshake terminates here).  Bounded by the whitelist: at
        #: most one entry per reachable hostname.
        self._edge_tickets: t.Set[str] = set()
        self.streams_served = 0
        self.refused = 0
        self.dials_failed = 0
        self.deadline_drops = 0
        #: Endpoint-change events across successful dials (mirrors the
        #: pool's failover semantics for the router-driven path too).
        self.endpoint_switches = 0
        self._last_endpoint: t.Optional[Endpoint] = None
        #: Session admission (None = historical unbounded behaviour).
        self.admission: t.Optional[AdmissionController] = None
        if overload is not None:
            self.admission = AdmissionController(sim, overload,
                                                 name="sc-domestic")
        transport = t.cast(TransportLayer, host.transport)
        transport.listen_tcp(port, self._accept)
        # With replicas available, probe them so a dead primary's
        # breaker opens (and later half-opens) off the request path.
        if len(self.pool.endpoints) > 1:
            self.pool.start_health_checks(
                transport, interval=HEALTH_CHECK_INTERVAL,
                timeout=HEALTH_CHECK_TIMEOUT,
                features=self.agility.codec.features())

    # -- browser-side handling ---------------------------------------------------------

    def _accept(self, conn: TcpConnection) -> None:
        self.sim.process(self._serve(conn), name="sc-domestic")

    def _serve(self, conn: TcpConnection):
        try:
            first = yield conn.recv_message()
        except TransportError:
            return
        if not (isinstance(first, tuple) and len(first) in (3, 4)
                and first[0] == "sc-connect"):
            conn.close()
            return
        hostname, target_port = first[1], first[2]
        deadline = deadline_from_wire(first[3] if len(first) == 4 else None)
        if not self.whitelist.allows(hostname):
            # §3: traffic for non-whitelisted services is not touched;
            # a direct proxy request for one is refused outright.
            self.refused += 1
            conn.send_message(32, meta=("sc-refused", hostname))
            conn.close()
            return
        priority = self.whitelist.priority_of(hostname)
        source = str(conn.remote_addr)
        if deadline is not None and deadline.expired(self.sim.now):
            # The browser already gave up; answering would be pure waste.
            self.deadline_drops += 1
            if self.admission is not None:
                self.admission.record_expired(source, priority)
            self._reject(conn, "expired")
            return
        if self.cache is not None:
            # Edge mode owns its own admission (it may defer it to the
            # first transpacific need under ``cache_bypass``).
            yield from self._serve_edge(conn, hostname, target_port,
                                        deadline, source, priority)
            return
        session: t.Optional[str] = None
        if self.admission is not None:
            try:
                yield from self.admission.admit(source, priority,
                                                deadline=deadline)
            except OverloadError:
                self._reject(conn, "shed")
                return
            session = source
            if deadline is not None and deadline.expired(self.sim.now):
                # Expired while queued in the waiting room.
                self.deadline_drops += 1
                self.admission.record_expired(source, priority)
                self.admission.release(source, succeeded=False)
                self._reject(conn, "expired")
                return
        yield self.cpu.submit(CONNECT_DEMAND)
        # Optimistic pipelining: acknowledge the browser immediately
        # and queue its frames while the transpacific leg dials, so a
        # stream open costs one Pacific round trip less than a naive
        # connect-then-confirm design.
        self.streams_served += 1
        try:
            conn.send_message(16, meta=("sc-ready",))
        except TransportError:
            conn.close()
            self._release(session, succeeded=False)
            return
        remote = yield from self._dial_remote(deadline, session_key=source)
        if remote is None:
            conn.close()
            self._release(session, succeeded=False)
            return
        codec = self.agility.codec
        open_length = 24 + codec.pad_length(24)
        open_meta: t.Tuple = ("sc-open", hostname, target_port)
        if deadline is not None:
            open_meta = open_meta + (deadline.at,)
        try:
            remote.send_message(
                open_length,
                meta=blind_wrap(self.agility.epoch, 24, open_meta),
                features=codec.features())
        except TransportError:
            remote.close()
            conn.close()
            self._release(session, succeeded=False)
            self._release_route(source)
            return
        up = self.sim.process(self._pump_to_remote(conn, remote),
                              name="scd-up")
        self.sim.process(self._pump_to_browser(conn, remote),
                         name="scd-down")
        if self.router is not None:
            # The router's refcount mirrors the admission slot: one
            # bind per successful dial, one release when the
            # browser-facing pump finishes (drain completion keys off
            # this reaching zero).
            up.add_callback(lambda _event, k=source: self._release_route(k))
        if session is not None:
            # The session's slot frees when the browser-facing pump is
            # done — the moment the browser connection delivers EOF or
            # fails.  Not both pumps: the remote-facing one can linger
            # on a half-closed transpacific conn whose peer only FINs
            # back once the whole relay chain unwinds, and admission
            # counts browser connections, not transpacific ones.
            up.add_callback(
                lambda _event, s=session: self.admission.release(s))

    def _reject(self, conn: TcpConnection, reason: str) -> None:
        """Fast 503-style rejection: tell the browser, then hang up."""
        if self.sim.fluid is not None:
            # A shed/expired session must not ride the fast path out:
            # the rejection and teardown happen at packet level.
            self.sim.fluid.defluidize(conn, reason)
        try:
            conn.send_message(32, meta=("sc-overload", reason))
        except TransportError:
            pass
        conn.close()

    def _release(self, session: t.Optional[str], succeeded: bool) -> None:
        if session is not None:
            assert self.admission is not None
            self.admission.release(session, succeeded=succeeded)

    def _release_route(self, key: str) -> None:
        if self.router is not None:
            self.router.release(key)

    # -- transpacific dialing -----------------------------------------------------------------

    def _pick_endpoint(self, session_key: t.Optional[str]) -> t.Optional[Endpoint]:
        """Next endpoint to try: router-assigned if routed, else pool order."""
        if self.router is not None and session_key is not None:
            return self.router.route(session_key, allow=self._breaker_allows)
        return self.pool.pick()

    def _breaker_allows(self, endpoint: Endpoint) -> bool:
        breaker = self.pool.breakers.get(endpoint)
        return True if breaker is None else breaker.allow()

    def _hedge_secondary(self, primary: Endpoint) -> t.Optional[Endpoint]:
        """A distinct endpoint safe to race against ``primary``.

        Only fully-CLOSED breakers qualify: merely *peeking* at a
        half-open breaker via ``allow()`` would consume its single
        trial on a dial that may never launch.
        """
        for endpoint in self.pool.endpoints:
            if endpoint == primary:
                continue
            breaker = self.pool.breakers.get(endpoint)
            if breaker is not None and breaker.state == breaker.CLOSED:
                return endpoint
        return None

    def _note_dialed(self, endpoint: Endpoint,
                     session_key: t.Optional[str]) -> None:
        """Post-dial bookkeeping shared by the plain and hedged paths."""
        if self.router is not None and session_key is not None:
            # Routed: a switch is a *session* landing somewhere other
            # than its sticky binding (different sessions hashing to
            # different PoPs is spread, not churn).
            previous = self.router.last_endpoint(session_key)
            if previous is not None and previous != endpoint:
                self.endpoint_switches += 1
            self.router.bind(session_key, endpoint)
        elif (self._last_endpoint is not None
                and endpoint != self._last_endpoint):
            self.endpoint_switches += 1
        self._last_endpoint = endpoint

    def _dial_remote(self, deadline: t.Optional[Deadline] = None,
                     session_key: t.Optional[str] = None):
        """Open a blinded connection to a healthy remote proxy.

        Retries with capped jittered backoff; each attempt asks the
        session router (when one is wired) for the sticky/rendezvous
        endpoint, falling back to failover-pool priority order — in
        both cases only endpoints whose breaker admits traffic.
        Returns None only once every attempt across every admissible
        endpoint has failed — or, with a request deadline, once the
        next attempt could not finish in time.
        """
        transport = t.cast(TransportLayer, self.host.transport)
        if deadline is None:
            attempt_delays = self.retry.delays()
        else:
            attempt_delays = self.retry.delays(
                clock=lambda: self.sim.now, deadline=deadline.at)
        dialed_timeout = self.dial_timeout
        for delay in attempt_delays:
            if delay > 0.0:
                yield self.sim.timeout(delay)
            endpoint = self._pick_endpoint(session_key)
            if endpoint is None:
                continue  # every breaker open; back off and re-ask
            if deadline is not None:
                dialed_timeout = deadline.clamp(self.dial_timeout,
                                                self.sim.now)
            secondary = (self._hedge_secondary(endpoint)
                         if self.hedge is not None else None)
            if secondary is not None:
                features = self.agility.codec.features()

                def make_attempt(target: Endpoint, timeout: float):
                    def attempt():
                        conn = yield transport.connect_tcp(
                            target.address, target.port,
                            features=features, timeout=timeout)
                        return conn
                    return attempt

                def on_result(target: Endpoint, succeeded: bool) -> None:
                    if succeeded:
                        self.pool.record_success(target)
                    else:
                        self.pool.record_failure(target)

                try:
                    conn, winner = yield from self.hedge.dial(
                        [(endpoint, make_attempt(endpoint, dialed_timeout)),
                         (secondary, make_attempt(secondary, dialed_timeout))],
                        on_result=on_result)
                except TransportError:
                    continue
                self._note_dialed(winner, session_key)
                return conn
            try:
                conn = yield transport.connect_tcp(
                    endpoint.address, endpoint.port,
                    features=self.agility.codec.features(),
                    timeout=dialed_timeout)
            except TransportError:
                self.pool.record_failure(endpoint)
                continue
            self.pool.record_success(endpoint)
            self._note_dialed(endpoint, session_key)
            return conn
        self.dials_failed += 1
        return None

    # -- edge-cache serving ---------------------------------------------------------------------

    def _serve_edge(self, conn: TcpConnection, hostname: str,
                    target_port: int, deadline: t.Optional[Deadline],
                    source: str, priority: int):
        """Terminate the browser leg locally and serve from the cache.

        The browser speaks exactly what it would toward an origin — an
        optional modeled TLS handshake, then HTTP message frames — so
        this loop answers the handshake itself, serves hits straight
        from :attr:`cache` without ever dialing transpacific, and only
        opens the blinded leg (admitting the session there when
        admission was deferred under ``cache_bypass``) on the first
        miss.  Non-HTTP plaintext streams (echo probes, diagnostics)
        degrade to the classic relay untouched.
        """
        cache = self.cache
        assert cache is not None
        session: t.Optional[str] = None
        bypass = (self.admission is not None
                  and self.admission.config.cache_bypass)
        if self.admission is not None and not bypass:
            try:
                yield from self.admission.admit(source, priority,
                                                deadline=deadline)
            except OverloadError:
                self._reject(conn, "shed")
                return
            session = source
            if deadline is not None and deadline.expired(self.sim.now):
                # Expired while queued in the waiting room.
                self.deadline_drops += 1
                self.admission.record_expired(source, priority)
                self.admission.release(source, succeeded=False)
                self._reject(conn, "expired")
                return
        yield self.cpu.submit(CONNECT_DEMAND)
        self.streams_served += 1
        try:
            conn.send_message(16, meta=("sc-ready",))
        except TransportError:
            conn.close()
            self._release(session, succeeded=False)
            return
        upstream: t.Optional[_EdgeUpstream] = None
        handed_off = False
        bound = False
        failed = False
        tls_on = False           # the browser ran its handshake with us
        pending_full = False     # full handshake: we owe a server-finished
        try:
            while True:
                try:
                    message = yield conn.recv_message()
                except TransportError:
                    return
                if message is None:
                    return
                try:
                    length, meta = unwrap_forward(message)
                except MiddlewareError:
                    continue  # malformed browser frame: skip, keep serving
                wrapped = (isinstance(meta, tuple) and len(meta) == 2
                           and meta[0] == "tls-app"
                           and isinstance(meta[1], HttpRequest))
                if isinstance(meta, tuple) and meta and meta[0] == "tls":
                    yield self.cpu.submit(PER_BYTE_DEMAND * length)
                    if meta[1] == "client-hello":
                        tls_on = True
                        resumed = bool(meta[3]) if len(meta) >= 4 else False
                        pending_full = not resumed
                        if resumed:
                            reply_len = tls_sizes.ABBREVIATED_SERVER_HELLO
                            reply: t.Tuple = ("tls", "server-hello-abbreviated")
                        else:
                            reply_len = tls_sizes.SERVER_HELLO_WITH_CERT
                            reply = ("tls", "server-hello")
                        if not self._edge_send(conn, reply_len, reply):
                            return
                    elif meta[1] == "client-finished" and pending_full:
                        pending_full = False
                        if not self._edge_send(
                                conn, tls_sizes.SERVER_FINISHED,
                                ("tls", "server-finished")):
                            return
                    # A resumed client-finished needs no reply.
                    continue
                if wrapped or isinstance(meta, HttpRequest):
                    request: HttpRequest = meta[1] if wrapped else meta
                    yield self.cpu.submit(PER_BYTE_DEMAND * length)
                    key = canonical_key(request, target_port)
                    cached = cache.lookup(key)
                    if cached is not None:
                        out_len = cache.wire_length_of(key)
                        response = replace(cached, from_cache=True)
                        out_meta: t.Any = (("tls-app", response) if wrapped
                                           else response)
                        yield self.cpu.submit(PER_BYTE_DEMAND * out_len)
                        if not self._edge_send(conn, out_len, out_meta):
                            return
                        continue
                    if upstream is None:
                        if session is None and self.admission is not None:
                            # Deferred admission (cache_bypass): this
                            # miss is the first transpacific need.
                            try:
                                yield from self.admission.admit(
                                    source, priority, deadline=deadline)
                            except OverloadError:
                                self._reject(conn, "shed")
                                failed = True
                                return
                            session = source
                        upstream = yield from self._edge_dial(
                            hostname, target_port, deadline, source)
                        if upstream is None:
                            failed = True
                            return
                        bound = self.router is not None
                        if tls_on:
                            ok = yield from upstream.origin_handshake(hostname)
                            if not ok:
                                failed = True
                                return
                    fetched = yield from upstream.fetch(request, wrapped)
                    if fetched is None:
                        failed = True
                        return
                    response, out_len = fetched
                    out_meta = ("tls-app", response) if wrapped else response
                    if not self._edge_send(conn, out_len, out_meta):
                        return
                    if (response.status == 200 and response.cacheable
                            and not response.record_account):
                        cache.insert(
                            key, response, out_len,
                            avoided_bytes=self._transpacific_cost(length,
                                                                  out_len))
                    continue
                if tls_on:
                    # Unknown payload inside a locally-terminated TLS
                    # session: nothing sane to relay.  Drop the stream.
                    return
                # Pre-TLS non-HTTP plaintext: the edge cannot help; hand
                # the stream — including this already-consumed frame —
                # to the classic relay, which owns all cleanup once the
                # handoff completes.
                if upstream is not None:
                    # Any miss-path leg opened earlier is not part of
                    # the handoff; the passthrough dials its own.
                    upstream.close()
                    upstream = None
                yield from self._edge_passthrough(
                    conn, hostname, target_port, deadline, source,
                    priority, session, (length, meta))
                handed_off = True
                return
        finally:
            self._edge_cleanup(conn, upstream, source, session, bound,
                               handed_off, failed)

    def _edge_cleanup(self, conn: TcpConnection,
                      upstream: t.Optional["_EdgeUpstream"], source: str,
                      session: t.Optional[str], bound: bool,
                      handed_off: bool, failed: bool) -> None:
        """Teardown for one edge session.

        A completed passthrough handoff is a no-op here — the classic
        pumps own the connection, the route, and the admission slot
        (released via their completion callbacks).
        """
        if handed_off:
            return
        conn.close()
        if upstream is not None:
            upstream.close()
        if bound:
            self._release_route(source)
        if session is not None and self.admission is not None:
            self.admission.release(session, succeeded=not failed)

    def _edge_send(self, conn: TcpConnection, length: int,
                   meta: t.Any) -> bool:
        """Send one forward-framed message to the browser; False on error."""
        try:
            conn.send_message(length, meta=wrap_forward(length, meta))
        except TransportError:
            return False
        return True

    def _edge_dial(self, hostname: str, target_port: int,
                   deadline: t.Optional[Deadline], source: str):
        """Dial transpacific for a cache miss and open the relay leg.

        Returns an :class:`_EdgeUpstream`, or None once dialing (or the
        pipelined open) failed — with the router binding already
        released, so the caller only owns a route on success.
        """
        remote = yield from self._dial_remote(deadline, session_key=source)
        if remote is None:
            return None
        codec = self.agility.codec
        open_length = 24 + codec.pad_length(24)
        open_meta: t.Tuple = ("sc-open", hostname, target_port)
        if deadline is not None:
            open_meta = open_meta + (deadline.at,)
        try:
            remote.send_message(
                open_length,
                meta=blind_wrap(self.agility.epoch, 24, open_meta),
                features=codec.features())
        except TransportError:
            remote.close()
            self._release_route(source)
            return None
        return _EdgeUpstream(self, remote)

    def _transpacific_cost(self, request_length: int,
                           response_length: int) -> int:
        """Blinded transpacific bytes one future hit keeps off the
        border link: the padded request and response frames."""
        pad = self.agility.codec.pad_length
        return (request_length + 4 + pad(request_length)
                + response_length + 4 + pad(response_length))

    def _edge_passthrough(self, conn: TcpConnection, hostname: str,
                          target_port: int, deadline: t.Optional[Deadline],
                          source: str, priority: int,
                          session: t.Optional[str],
                          first_frame: t.Tuple[int, t.Any]):
        """Degrade one non-HTTP stream to the classic relay.

        Admission (when deferred) happens here — passthrough always
        needs the transpacific leg — and the already-consumed first
        frame is re-sent ahead of the pumps so the remote proxy sees a
        stream identical to the classic path's.
        """
        if session is None and self.admission is not None:
            try:
                yield from self.admission.admit(source, priority,
                                                deadline=deadline)
            except OverloadError:
                self._reject(conn, "shed")
                return
            session = source
        remote = yield from self._dial_remote(deadline, session_key=source)
        if remote is None:
            conn.close()
            self._release(session, succeeded=False)
            return
        codec = self.agility.codec
        open_length = 24 + codec.pad_length(24)
        open_meta: t.Tuple = ("sc-open", hostname, target_port)
        if deadline is not None:
            open_meta = open_meta + (deadline.at,)
        length, meta = first_frame
        yield self.cpu.submit(PER_BYTE_DEMAND * length)
        padded = length + 4 + codec.pad_length(length)
        try:
            remote.send_message(
                open_length,
                meta=blind_wrap(self.agility.epoch, 24, open_meta),
                features=codec.features())
            remote.send_message(
                padded, meta=blind_wrap(self.agility.epoch, length, meta),
                features=codec.features())
        except TransportError:
            remote.close()
            conn.close()
            self._release(session, succeeded=False)
            self._release_route(source)
            return
        up = self.sim.process(self._pump_to_remote(conn, remote),
                              name="scd-up")
        self.sim.process(self._pump_to_browser(conn, remote),
                         name="scd-down")
        if self.router is not None:
            up.add_callback(lambda _event, k=source: self._release_route(k))
        if session is not None:
            up.add_callback(
                lambda _event, s=session: self.admission.release(s))

    # -- pumps ----------------------------------------------------------------------------------

    def _pump_to_remote(self, browser: TcpConnection, remote: TcpConnection):
        codec = self.agility.codec
        while True:
            try:
                message = yield browser.recv_message()
            except TransportError:
                remote.close()
                return
            if message is None:
                remote.close()
                return
            try:
                length, meta = unwrap_forward(message)
            except MiddlewareError:
                continue  # malformed browser frame: skip, keep pumping
            yield self.cpu.submit(PER_BYTE_DEMAND * length)
            padded = length + 4 + codec.pad_length(length)
            try:
                remote.send_message(
                    padded, meta=blind_wrap(self.agility.epoch, length, meta),
                    features=codec.features())
            except TransportError:
                browser.close()
                return

    def _pump_to_browser(self, browser: TcpConnection, remote: TcpConnection):
        while True:
            try:
                message = yield remote.recv_message()
            except TransportError:
                browser.close()
                return
            if message is None:
                browser.close()
                return
            unwrapped = blind_unwrap(message, self.agility.epoch)
            if unwrapped is None:
                continue
            length, meta = unwrapped
            if meta in (("sc-ready",), ("sc-error",)):
                # Control acks from the pipelined open; the browser
                # already got its optimistic ready.
                if meta == ("sc-error",):
                    browser.close()
                    remote.close()
                    return
                continue
            yield self.cpu.submit(PER_BYTE_DEMAND * length)
            try:
                browser.send_message(length, meta=wrap_forward(length, meta))
            except TransportError:
                remote.close()
                return


class _EdgeUpstream:
    """Domestic-side handle on one lazily-dialed blinded upstream leg.

    Used only by the edge-cache path: misses flow through here toward
    the remote proxy (and on to the origin) over the usual blinded
    framing.  The proxy runs the origin TLS handshake itself — the
    browser's handshake already terminated at the edge — and replays
    one request/response at a time, which keeps the inbox bounded (the
    per-connection serve loop is strictly sequential).
    """

    def __init__(self, proxy: DomesticProxy, remote: TcpConnection) -> None:
        self.proxy = proxy
        self.sim = proxy.sim
        self.remote = remote
        self.origin_ready = False
        self._eof = False
        self._inbox = Store(self.sim)
        self.sim.process(self._pump(), name="scd-edge-up")

    def close(self) -> None:
        self.remote.close()

    def send(self, length: int, meta: t.Any) -> None:
        """Blind-wrap and send one frame toward the remote proxy."""
        codec = self.proxy.agility.codec
        padded = length + 4 + codec.pad_length(length)
        self.remote.send_message(
            padded,
            meta=blind_wrap(self.proxy.agility.epoch, length, meta),
            features=codec.features())

    def recv(self):
        """Generator: next ``(length, meta)`` frame; ``(0, None)`` at EOF."""
        if self._eof:
            ready, item = self._inbox.get_nowait()
            if ready and item[1] is not None:
                return item
            return (0, None)
        item = yield self._inbox.get()
        return item

    def _pump(self):
        proxy = self.proxy
        while True:
            try:
                message = yield self.remote.recv_message()
            except TransportError:
                message = None
            if message is None:
                self._eof = True
                # Single EOF sentinel, then the pump exits.
                self._inbox.put((0, None))  # reprolint: disable=unbounded-queue
                return
            unwrapped = blind_unwrap(message, proxy.agility.epoch)
            if unwrapped is None:
                continue
            length, meta = unwrapped
            if meta == ("sc-ready",):
                continue  # pipelined-open ack; the edge has no use for it
            if meta == ("sc-error",):
                self._eof = True
                self._inbox.put((0, None))  # reprolint: disable=unbounded-queue
                self.remote.close()
                return
            # One request/response in flight per serve loop keeps this
            # bounded at a handful of handshake/response frames.
            self._inbox.put((length, meta))  # reprolint: disable=unbounded-queue

    def origin_handshake(self, hostname: str):
        """Generator: the proxy-side TLS client handshake with the
        origin, run through the relay.  Resumption uses the proxy's own
        ticket set.  Returns True once established."""
        if self.origin_ready:
            return True
        proxy = self.proxy
        resumed = hostname in proxy._edge_tickets
        yield proxy.cpu.submit(PER_BYTE_DEMAND * tls_sizes.CLIENT_HELLO)
        try:
            self.send(tls_sizes.CLIENT_HELLO,
                      ("tls", "client-hello", hostname, resumed))
        except TransportError:
            return False
        length, meta = yield from self.recv()
        if not (isinstance(meta, tuple) and meta and meta[0] == "tls"):
            return False
        yield proxy.cpu.submit(PER_BYTE_DEMAND * length)
        yield proxy.cpu.submit(
            PER_BYTE_DEMAND * tls_sizes.CLIENT_KEY_EXCHANGE_FINISHED)
        try:
            self.send(tls_sizes.CLIENT_KEY_EXCHANGE_FINISHED,
                      ("tls", "client-finished"))
        except TransportError:
            return False
        if not resumed:
            length, meta = yield from self.recv()
            if not (isinstance(meta, tuple) and len(meta) >= 2
                    and meta[0] == "tls" and meta[1] == "server-finished"):
                return False
            yield proxy.cpu.submit(PER_BYTE_DEMAND * length)
        proxy._edge_tickets.add(hostname)
        self.origin_ready = True
        return True

    def fetch(self, request: HttpRequest, wrapped: bool):
        """Generator: one origin round trip.

        Returns ``(response, wire_length)`` — the length the response
        occupies on the browser leg — or None on a dead upstream.
        """
        if wrapped:
            records = max(1, (request.size() + 16383) // 16384)
            length = request.size() + records * tls_sizes.RECORD_OVERHEAD
            meta: t.Any = ("tls-app", request)
        else:
            length = request.size()
            meta = request
        try:
            self.send(length, meta)
        except TransportError:
            return None
        proxy = self.proxy
        while True:
            rlength, rmeta = yield from self.recv()
            if rmeta is None:
                return None
            yield proxy.cpu.submit(PER_BYTE_DEMAND * rlength)
            if wrapped:
                if (isinstance(rmeta, tuple) and len(rmeta) == 2
                        and rmeta[0] == "tls-app"
                        and isinstance(rmeta[1], HttpResponse)):
                    return rmeta[1], rlength
            elif isinstance(rmeta, HttpResponse):
                return rmeta, rlength
            # Stray frame (late handshake ack, keepalive noise): skip.
