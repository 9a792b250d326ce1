"""Shadowsocks wire framing and key derivation.

Classic (2012–2017) Shadowsocks, as the paper measured it:

* keys derived from the password with ``EVP_BytesToKey`` (MD5, no
  salt) — implemented for real in :mod:`repro.crypto`;
* AES-256-CFB stream encryption: a 16-byte IV followed by ciphertext,
  with **zero** per-message expansion (stream cipher);
* the first client frame is ``IV ‖ Enc(atyp ‖ len ‖ host ‖ port)`` —
  a short, fully random-looking packet whose length is a function of
  the hostname.  That length signature plus first-packet entropy is
  exactly what the GFW's Shadowsocks detector keys on
  (:class:`repro.gfw.dpi.ShadowsocksClassifier`).

The wire features this module reports are *computed from real
ciphertext* produced by the pure-Python AES-CFB, not hand-declared.
"""

from __future__ import annotations

import hashlib
import typing as t

from ...crypto import CfbCipher, evp_bytes_to_key, shannon_entropy
from ...net import WireFeatures

#: Default server port.
SS_PORT = 8388
#: IV length for aes-256-cfb.
IV_LENGTH = 16
#: Key length for aes-256-cfb.
KEY_LENGTH = 32
#: Per-session auth frame size (the paper's TCP 1 exchange).
AUTH_FRAME = 60
#: Default keep-alive: the paper calls out Shadowsocks' 10 s timeout
#: as a major PLT cost (re-auth on every 60 s-spaced measurement).
DEFAULT_KEEPALIVE = 10.0


def derive_key(password: str) -> bytes:
    """The password-to-key derivation Shadowsocks actually uses."""
    return evp_bytes_to_key(password.encode(), KEY_LENGTH)


def address_block(host: str, port: int) -> bytes:
    """The plaintext request header: atyp ‖ len ‖ host ‖ port."""
    encoded = host.encode()
    return bytes([3, len(encoded)]) + encoded + port.to_bytes(2, "big")


def derive_iv(password: str, host: str, port: int) -> bytes:
    """Deterministic per-(password, host, port) IV.

    Real Shadowsocks draws a fresh ``os.urandom`` IV per connection;
    inside the deterministic testbed the IV only feeds the measured
    wire features, so a keyed digest keeps the ciphertext realistic
    while keeping runs bit-for-bit reproducible.  Pass ``iv=`` to the
    frame functions to model the real thing.
    """
    return hashlib.md5(f"{password}|{host}|{port}".encode()).digest()[:IV_LENGTH]


def first_frame(password: str, host: str, port: int,
                iv: t.Optional[bytes] = None) -> bytes:
    """Real bytes of the first client frame (IV ‖ ciphertext)."""
    iv = iv if iv is not None else derive_iv(password, host, port)
    cipher = CfbCipher(derive_key(password), iv)
    return iv + cipher.encrypt(address_block(host, port))


def first_frame_features(password: str, host: str, port: int,
                         iv: t.Optional[bytes] = None) -> WireFeatures:
    """Wire features computed from genuine ciphertext.

    The length signature is the true first-frame length.  The entropy
    figure is measured over the IV, the encrypted address header and a
    continuation of the same keystream: 40 encrypted copies of a
    request line, cut so the sample stays within 2 KiB (a DPI box
    judges the stream, not just one short packet).  For
    ``scholar.google.com`` that is 16 + 22 + 1,760 = 1,798 bytes.  If
    the cipher were swapped for something weaker, the measured entropy
    — and thus GFW detectability — would change with it.
    """
    iv = iv if iv is not None else derive_iv(password, host, port)
    cipher = CfbCipher(derive_key(password), iv)
    header = cipher.encrypt(address_block(host, port))
    continuation = cipher.encrypt(
        (b"GET / HTTP/1.1\r\nHost: " + host.encode() + b"\r\n\r\n") * 40)
    sample = iv + header + continuation[: 2048 - len(header) - IV_LENGTH]
    return WireFeatures(
        protocol_tag="unknown-stream",
        entropy=shannon_entropy(sample),
        length_signature=IV_LENGTH + len(header),
    )


def data_features() -> WireFeatures:
    """Steady-state ciphertext stream: opaque, no framing, no length tell."""
    return WireFeatures(protocol_tag="unknown-stream", entropy=8.0)


def auth_features() -> WireFeatures:
    """The auth frame: same opaque stream, short fixed length."""
    return WireFeatures(protocol_tag="unknown-stream", entropy=8.0,
                        length_signature=AUTH_FRAME)
