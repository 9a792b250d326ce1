"""Span tracer for the traced run: per-layer self time and call counts.

A *layer* is a ``repro`` package (``sim``, ``net``, ``transport``, ...;
``perf/fluid.py`` is the ``fluid`` layer).  The tracer records a span
around every call into a layer's public entry points, from the
benchmark's side: no file under ``src/`` changes.

* Synchronous entry points (``Simulator.step``, ``Link.transmit``,
  ``Node.forward``, ``GreatFirewall.process``, ``TcpConnection.
  handle_segment``, codecs and ciphers, ``ResponseCache.lookup``, ...)
  are wrapped by a function that opens a span, calls through and closes
  the span.
* Generator-driven layers (``core``, ``http``, ``middleware``,
  ``measure``, the admission waiting room in ``overload``) run inside
  process resumptions.  ``Process._resume`` is wrapped, and each
  resumption becomes a span named after the package of the innermost
  generator being resumed (found by following ``gi_yieldfrom``).
* ``TcpConnection.__init__`` is only counted (and each connection kept,
  to sum its retransmissions once the run ends).

Self time of a span is its duration minus the time covered by its
child spans.  Self times are accumulated per span name as spans close,
so memory stays bounded; the first ``keep`` spans are also kept whole
(id, name, start, end, parent) and written into the run record.  The
root span's self time is the part of the run no layer span covers.
"""

from __future__ import annotations

import contextlib
import os
import sys
import time
import typing as t
from collections import Counter, defaultdict
from unittest import mock

#: Layers reported one by one; every other package counts as ``other``.
LAYERS = ("sim", "net", "transport", "gfw", "crypto", "core", "cache",
          "overload", "fluid", "middleware", "http", "dns", "measure")
ROOT_SPAN = "root"


class Tracer:
    """Stack of open spans plus per-name self time and call counts."""

    def __init__(self, clock: t.Callable[[], float] = time.perf_counter,
                 keep: int = 20_000) -> None:
        self.clock = clock
        self.keep = keep
        self._stack: t.List[list] = []
        self._next_id = 0
        #: Span name -> summed self time in seconds.
        self.self_s: t.Dict[str, float] = defaultdict(float)
        #: Span name (or counted entry point) -> calls.
        self.calls: t.Counter[str] = Counter()
        #: Span name -> bytes passed to it (ciphers and codecs).
        self.volume: t.Counter[str] = Counter()
        #: The first ``keep`` closed spans: (id, name, start, end, parent).
        self.spans: t.List[t.Tuple[int, str, float, float, int]] = []
        self.spans_dropped = 0

    def open(self, name: str) -> list:
        self._next_id += 1
        parent = self._stack[-1][3] if self._stack else 0
        frame = [name, self.clock(), 0.0, self._next_id, parent]
        self._stack.append(frame)
        return frame

    def close(self, frame: list) -> float:
        """Close the innermost span, which must be ``frame``; its duration."""
        end = self.clock()
        if not self._stack or self._stack[-1] is not frame:
            raise RuntimeError(f"span {frame[0]!r} closed out of order")
        self._stack.pop()
        name, start, covered, span_id, parent = frame
        duration = end - start
        self.self_s[name] += duration - covered
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += duration
        if len(self.spans) < self.keep:
            self.spans.append((span_id, name, start, end, parent))
        else:
            self.spans_dropped += 1
        return duration

    def layer_self_s(self) -> t.Dict[str, float]:
        """Self time per layer; the root span's is ``unattributed``."""
        totals: t.Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        totals["other"] = 0.0
        totals["unattributed"] = 0.0
        for name, seconds in self.self_s.items():
            if name == ROOT_SPAN:
                totals["unattributed"] += seconds
                continue
            layer = name.split("/", 1)[0]
            totals[layer if layer in totals else "other"] += seconds
        return totals


def byte_length(args: tuple) -> int:
    """Bytes passed to a cipher or codec method: ``method(self, data)``."""
    return len(args[1])


def span_wrapper(tracer: Tracer, name: str, fn: t.Callable,
                 size: t.Optional[t.Callable[[tuple], int]] = None
                 ) -> t.Callable:
    """Wrap ``fn`` in a span called ``name``.

    A call made while a span of the same name is already innermost
    (``PaddedCodec.encode`` calling its inner codec) is folded into
    that span, so ``calls`` and ``volume`` count entries into the
    layer.  ``size(args)``, when given, is added to ``volume``.
    """
    stack = tracer._stack

    def wrapper(*args, **kwargs):
        if stack and stack[-1][0] == name:
            return fn(*args, **kwargs)
        if size is not None:
            tracer.volume[name] += size(args)
        frame = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(frame)

    wrapper.__wrapped__ = fn
    return wrapper


def collect_wrapper(tracer: Tracer, name: str, fn: t.Callable,
                    into: list) -> t.Callable:
    """Count calls of the method ``fn`` and collect their ``self``."""

    def wrapper(*args, **kwargs):
        tracer.calls[name] += 1
        into.append(args[0])
        return fn(*args, **kwargs)

    wrapper.__wrapped__ = fn
    return wrapper


class LayerMap:
    """Source file -> layer name, cached per code object."""

    def __init__(self, package_dir: str) -> None:
        self._prefix = os.path.join(os.path.abspath(package_dir), "")
        self._by_code: t.Dict[t.Any, str] = {}

    def layer_of_file(self, filename: str) -> str:
        path = os.path.abspath(filename)
        if not path.startswith(self._prefix):
            return "other"
        parts = path[len(self._prefix):].split(os.sep)
        if len(parts) < 2:
            return "other"  # repro/errors.py, repro/units.py
        if parts[0] == "perf":
            return "fluid" if parts[1] == "fluid.py" else "other"
        return parts[0] if parts[0] in LAYERS else "other"

    def layer_of_code(self, code: t.Any) -> str:
        layer = self._by_code.get(code)
        if layer is None:
            layer = self._by_code[code] = self.layer_of_file(code.co_filename)
        return layer


def innermost_code(generator: t.Any) -> t.Any:
    """Code object of the generator a resumption will actually run."""
    code = getattr(generator, "gi_code", None)
    inner = getattr(generator, "gi_yieldfrom", None)
    while inner is not None and getattr(inner, "gi_code", None) is not None:
        code = inner.gi_code
        inner = inner.gi_yieldfrom
    return code


def instrument(tracer: Tracer, patches: contextlib.ExitStack,
               connections: t.List[t.Any]) -> None:
    """Install every layer wrapper until ``patches`` closes.

    ``connections`` collects the TCP connections the run opens.
    """
    import repro
    from repro import crypto
    from repro.cache.store import ResponseCache
    from repro.core import blinding
    from repro.dns.resolver import _ResolverCore
    from repro.gfw.firewall import GreatFirewall
    from repro.net.link import Link
    from repro.net.node import Node
    from repro.perf.fluid import FluidRegistry
    from repro.sim.kernel import Process, Simulator
    from repro.transport.sockets import TransportLayer
    from repro.transport.tcp import TcpConnection

    def patch(owner, attr, value):
        patches.enter_context(mock.patch.object(owner, attr, value))

    def span(owner, attr, name, size=None):
        patch(owner, attr,
              span_wrapper(tracer, name, getattr(owner, attr), size))

    span(Simulator, "run", "sim/run")
    span(Simulator, "step", "sim/step")
    span(Link, "transmit", "net/transmit")
    for attr in ("send", "receive", "forward"):
        span(Node, attr, f"net/{attr}")
    span(GreatFirewall, "process", "gfw/process")
    span(TcpConnection, "handle_segment", "transport/handle_segment")
    span(TcpConnection, "send_message", "transport/send_message")
    span(TransportLayer, "demux", "transport/demux")
    span(TransportLayer, "send_udp", "transport/send_udp")
    patch(TcpConnection, "__init__", collect_wrapper(
        tracer, "transport/connections", TcpConnection.__init__, connections))
    for cipher, attrs in ((crypto.CfbCipher, ("encrypt", "decrypt")),
                          (crypto.CtrCipher, ("process",)),
                          (crypto.RC4, ("process",))):
        for attr in attrs:
            span(cipher, attr, "crypto/cipher", byte_length)
    for codec in (blinding.ByteMapCodec, blinding.AffineCodec,
                  blinding.ChainedCodec, blinding.PaddedCodec):
        for attr in ("encode", "decode"):
            span(codec, attr, "core/codec", byte_length)
    # The proxies model a blinded message by its padded length rather
    # than by encoding its bytes, so framing counts as codec work too.
    span(blinding.PaddedCodec, "pad_length", "core/codec",
         lambda args: args[1])
    span(ResponseCache, "lookup", "cache/lookup")
    span(ResponseCache, "insert", "cache/insert")
    span(FluidRegistry, "try_transfer", "fluid/try_transfer")
    span(_ResolverCore, "resolve", "dns/resolve")

    # Crypto helpers are plain functions imported by name: replace every
    # reference a loaded repro module holds.
    helpers = {name: getattr(crypto, name) for name in (
        "shannon_entropy", "looks_like_ciphertext", "hmac_sha256",
        "evp_bytes_to_key", "hkdf_like", "cbc_encrypt", "cbc_decrypt")}
    wrapped = {name: span_wrapper(tracer, f"crypto/{name}", fn)
               for name, fn in helpers.items()}
    for module in list(sys.modules.values()):
        module_name = getattr(module, "__name__", "")
        if module_name != "repro" and not module_name.startswith("repro."):
            continue
        for name, fn in helpers.items():
            if vars(module).get(name) is fn:
                patch(module, name, wrapped[name])

    layers = LayerMap(os.path.dirname(repro.__file__))
    resume = Process._resume

    def traced_resume(process, event):
        code = innermost_code(process.generator)
        layer = layers.layer_of_code(code) if code is not None else "other"
        frame = tracer.open(f"{layer}/resume")
        try:
            return resume(process, event)
        finally:
            tracer.close(frame)

    traced_resume.__wrapped__ = resume
    patch(Process, "_resume", traced_resume)
