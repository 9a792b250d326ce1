"""IPv4 addresses, prefixes, and address allocation.

The simulator uses real dotted-quad IPv4 semantics (int-backed) so that
GFW IP-blocklist behaviour — prefix blocking, collateral damage from
shared hosting — works exactly as it does in the wild.
"""

from __future__ import annotations

import typing as t

from ..errors import AddressError


class IPv4Address:
    """An immutable IPv4 address.

    The dotted-quad text is formatted once, when the address is built:
    flow and demux keys are made from it for every packet, and an
    address is built far less often than it is printed.
    """

    __slots__ = ("_value", "_text")

    def __init__(self, address: t.Union[str, int, "IPv4Address"]) -> None:
        if isinstance(address, IPv4Address):
            self._value = address._value
            self._text = address._text
            return
        if isinstance(address, int):
            if not 0 <= address <= 0xFFFFFFFF:
                raise AddressError(f"address out of range: {address}")
            value = address
        elif isinstance(address, str):
            value = self._parse(address)
        else:
            raise AddressError(f"cannot build an address from {address!r}")
        self._value = value
        self._text = (f"{(value >> 24) & 255}.{(value >> 16) & 255}."
                      f"{(value >> 8) & 255}.{value & 255}")

    @staticmethod
    def _parse(text: str) -> int:
        parts = text.split(".")
        if len(parts) != 4:
            raise AddressError(f"malformed IPv4 address: {text!r}")
        value = 0
        for part in parts:
            if not part.isdigit():
                raise AddressError(f"malformed IPv4 address: {text!r}")
            octet = int(part)
            if octet > 255:
                raise AddressError(f"octet out of range in {text!r}")
            value = (value << 8) | octet
        return value

    def __int__(self) -> int:
        return self._value

    def __str__(self) -> str:
        return self._text

    def __repr__(self) -> str:
        return f"IPv4Address({str(self)!r})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IPv4Address):
            return self._value == other._value
        if isinstance(other, str):
            try:
                return self._value == IPv4Address(other)._value
            except AddressError:
                return False
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._value)

    def __lt__(self, other: "IPv4Address") -> bool:
        return self._value < other._value


class Prefix:
    """A CIDR prefix such as ``203.0.113.0/24``."""

    __slots__ = ("network", "length", "_mask")

    def __init__(self, cidr: str) -> None:
        try:
            base, _, length_text = cidr.partition("/")
            if not length_text:
                raise AddressError(f"missing prefix length in {cidr!r}")
            self.length = int(length_text)
        except ValueError as exc:
            raise AddressError(f"malformed CIDR {cidr!r}") from exc
        if not 0 <= self.length <= 32:
            raise AddressError(f"prefix length out of range in {cidr!r}")
        self._mask = (0xFFFFFFFF << (32 - self.length)) & 0xFFFFFFFF
        self.network = IPv4Address(int(IPv4Address(base)) & self._mask)

    def __contains__(self, address: t.Union[str, IPv4Address]) -> bool:
        return (int(IPv4Address(address)) & self._mask) == int(self.network)

    def __str__(self) -> str:
        return f"{self.network}/{self.length}"

    def __repr__(self) -> str:
        return f"Prefix({str(self)!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Prefix):
            return NotImplemented
        return self.network == other.network and self.length == other.length

    def __hash__(self) -> int:
        return hash((self.network, self.length))

    def hosts(self) -> int:
        """Number of addresses covered by this prefix."""
        return 1 << (32 - self.length)


class AddressAllocator:
    """Sequentially allocates host addresses out of a prefix."""

    def __init__(self, cidr: str) -> None:
        self.prefix = Prefix(cidr)
        self._next = 1  # skip the network address

    def allocate(self) -> IPv4Address:
        """Return the next unused address in the prefix."""
        if self._next >= self.prefix.hosts() - 1:
            raise AddressError(f"prefix {self.prefix} exhausted")
        address = IPv4Address(int(self.prefix.network) + self._next)
        self._next += 1
        return address
