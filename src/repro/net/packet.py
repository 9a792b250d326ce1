"""Packet and wire-feature model.

Packets are layered: an outer :class:`Packet` may carry a transport
segment or, for tunnels, a whole inner packet.  DPI in the GFW never
reads simulation object internals directly — it reads the packet's
:class:`WireFeatures`, the set of properties genuinely observable on
the wire (visible protocol framing, SNI, payload entropy, exposed
plaintext).  Every protocol implementation is responsible for setting
features that honestly describe the bytes it would emit, which is what
makes censorship outcomes emerge from wire format rather than from a
lookup table.
"""

from __future__ import annotations

import itertools
import typing as t
from dataclasses import dataclass

from .addresses import IPv4Address

#: Bytes of IPv4 header on every packet.
IP_HEADER = 20
#: Bytes of TCP header (no options).
TCP_HEADER = 20
#: Bytes of UDP header.
UDP_HEADER = 8
#: Maximum TCP segment payload (Ethernet MTU minus headers).
MSS = 1460

_packet_ids = itertools.count(1)


@dataclass(frozen=True)
class WireFeatures:
    """DPI-observable properties of a packet's payload bytes.

    Attributes
    ----------
    protocol_tag:
        The framing an on-path observer can parse from the first bytes:
        ``"plain-http"``, ``"tls"``, ``"pptp-gre"``, ``"l2tp-udp"``,
        ``"openvpn"``, ``"unknown-stream"`` (e.g. Shadowsocks, whose
        point is precisely to show no parseable framing), etc.
    sni:
        Server name visible in a TLS ClientHello or HTTP Host header;
        ``None`` when absent or encrypted.
    entropy:
        Estimated payload entropy in bits per byte.  Modern ciphertext
        sits near 8.0; text near 4–5; the byte-mapped blinding stream
        also sits near 8.0 but carries no recognizable framing *and*
        fails ciphersuite-shaped length/packet-structure tests.
    plaintext:
        Any plaintext an observer can read (for keyword filtering).
    handshake:
        True for packets that are part of a protocol handshake — the
        packets DPI fingerprinting keys on.
    length_signature:
        A coarse bucket of payload length used by traffic classifiers
        (Shadowsocks' fixed-size auth frames are a classic giveaway).
    """

    protocol_tag: str = "plain"
    sni: t.Optional[str] = None
    entropy: float = 4.0
    plaintext: str = ""
    handshake: bool = False
    length_signature: t.Optional[int] = None

    def blinded(self) -> "WireFeatures":
        """Features after passing through a blinding codec.

        Blinding re-encodes the bytes: framing disappears, plaintext
        disappears, SNI disappears, entropy stays high but the byte
        distribution no longer matches any known cipher suite's
        record structure.
        """
        return WireFeatures(
            protocol_tag="unclassified",
            sni=None,
            entropy=7.9,
            plaintext="",
            handshake=False,
            length_signature=None,
        )


#: Features of pure ciphertext with no visible framing (Shadowsocks).
OPAQUE_STREAM = WireFeatures(protocol_tag="unknown-stream", entropy=8.0)


class Packet:
    """A packet on the simulated wire.

    ``payload`` is a transport segment (``repro.transport``) or an
    inner :class:`Packet` when tunnel-encapsulated.  ``size`` is the
    full on-wire size in bytes including all headers.

    A hand-written ``__slots__`` class rather than a dataclass: every
    router hop copies the packet (:meth:`hop`), and a slotted class
    copied field by field is several times cheaper than
    ``dataclasses.replace``.
    """

    __slots__ = ("src", "dst", "protocol", "payload", "size", "features",
                 "ttl", "packet_id", "flow")

    def __init__(
        self,
        src: IPv4Address,
        dst: IPv4Address,
        protocol: str,  # "tcp", "udp", "icmp", "gre"
        payload: t.Any,
        size: int,
        features: t.Optional[WireFeatures] = None,
        ttl: int = 64,
        packet_id: t.Optional[int] = None,
        # Identifier of the application flow this packet belongs to, as
        # seen at the outermost layer; filled in by the transport.
        flow: t.Optional[t.Tuple[t.Any, ...]] = None,
    ) -> None:
        self.src = src
        self.dst = dst
        self.protocol = protocol
        self.payload = payload
        self.size = size
        self.features = features if features is not None else WireFeatures()
        self.ttl = ttl
        self.packet_id = next(_packet_ids) if packet_id is None else packet_id
        self.flow = flow

    def encapsulate(
        self,
        src: IPv4Address,
        dst: IPv4Address,
        protocol: str,
        overhead: int,
        features: WireFeatures,
    ) -> "Packet":
        """Wrap this packet inside a tunnel packet."""
        return Packet(
            src=src,
            dst=dst,
            protocol=protocol,
            payload=self,
            size=self.size + overhead,
            features=features,
            flow=("tunnel", str(src), str(dst), protocol),
        )

    @property
    def is_tunneled(self) -> bool:
        """True if the payload is itself a packet."""
        return isinstance(self.payload, Packet)

    def inner(self) -> "Packet":
        """The encapsulated packet; raises if not tunneled."""
        if not self.is_tunneled:
            raise TypeError("packet is not tunnel-encapsulated")
        return t.cast(Packet, self.payload)

    def copy(self, **changes: t.Any) -> "Packet":
        """A shallow copy with ``changes`` applied and a fresh id."""
        fields = {name: getattr(self, name) for name in self.__slots__}
        fields["packet_id"] = next(_packet_ids)
        fields.update(changes)
        return Packet(**fields)

    def hop(self) -> "Packet":
        """The copy a router forwards: same id, TTL one lower."""
        # Draw (and discard) an id, as forwarding always has: the id
        # stream, and so every later packet's id in a trace, depends
        # on how many hops came before.
        next(_packet_ids)
        forwarded = Packet.__new__(Packet)
        forwarded.src = self.src
        forwarded.dst = self.dst
        forwarded.protocol = self.protocol
        forwarded.payload = self.payload
        forwarded.size = self.size
        forwarded.features = self.features
        forwarded.ttl = self.ttl - 1
        forwarded.packet_id = self.packet_id
        forwarded.flow = self.flow
        return forwarded

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Packet #{self.packet_id} {self.src}->{self.dst} "
                f"{self.protocol} {self.size}B {self.features.protocol_tag}>")
