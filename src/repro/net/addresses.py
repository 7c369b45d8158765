"""MAC and IPv4 address value types.

Both are thin immutable wrappers over integers with parsing/formatting and
the semantic predicates the protocols need (broadcast, multicast).  The
paper's switched-Ethernet tapping trick maps a unicast *IP* address onto a
*multicast* Ethernet address (§3.1), so multicast-ness of a MAC is a
first-class concept here.
"""

from __future__ import annotations

from typing import Union

from repro.errors import AddressError


class MACAddress:
    """A 48-bit Ethernet address."""

    __slots__ = ("value", "_hash")

    def __init__(self, value: Union[int, str, "MACAddress"]) -> None:
        if isinstance(value, MACAddress):
            number = value.value
        elif isinstance(value, str):
            parts = value.split(":")
            if len(parts) != 6:
                raise AddressError(f"bad MAC literal {value!r}")
            try:
                octets = [int(part, 16) for part in parts]
            except ValueError as exc:
                raise AddressError(f"bad MAC literal {value!r}") from exc
            if any(octet < 0 or octet > 255 for octet in octets):
                raise AddressError(f"bad MAC literal {value!r}")
            number = 0
            for octet in octets:
                number = (number << 8) | octet
        elif isinstance(value, int):
            if not 0 <= value < (1 << 48):
                raise AddressError(f"MAC integer out of range: {value}")
            number = value
        else:
            raise AddressError(f"cannot build MAC from {type(value).__name__}")
        self.value = number
        # Hashed per frame (NIC filter, switch table); the value is what
        # __hash__ always returned, so set/dict iteration order holds.
        self._hash = hash(("mac", number))

    def __reduce__(self) -> tuple:
        # Rebuild from the value: a pickled _hash is wrong in a process
        # with another string-hash seed.
        return (MACAddress, (self.value,))

    @property
    def is_broadcast(self) -> bool:
        return self.value == (1 << 48) - 1

    @property
    def is_multicast(self) -> bool:
        """True when the group bit (LSB of the first octet) is set.

        The broadcast address also has the bit set; callers that care use
        :attr:`is_broadcast` first.
        """
        return bool((self.value >> 40) & 0x01)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MACAddress):
            return self.value == other.value
        if isinstance(other, str):
            try:
                return self.value == MACAddress(other).value
            except AddressError:
                return False
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        octets = [(self.value >> shift) & 0xFF for shift in range(40, -8, -8)]
        return ":".join(f"{octet:02x}" for octet in octets)

    def __repr__(self) -> str:
        return f"MACAddress('{self}')"


#: The all-ones broadcast address.
MAC_BROADCAST = MACAddress((1 << 48) - 1)

_next_unicast_mac = [0x02_00_00_00_00_01]  # locally administered, unicast
_next_multicast_mac = [0x03_00_00_00_00_01]  # locally administered, group bit


def fresh_unicast_mac() -> MACAddress:
    """Allocate a distinct locally-administered unicast MAC."""
    mac = MACAddress(_next_unicast_mac[0])
    _next_unicast_mac[0] += 1
    return mac


def fresh_multicast_mac() -> MACAddress:
    """Allocate a distinct locally-administered multicast MAC.

    Used for the SME/GME addresses of the switched tapping architecture.
    """
    mac = MACAddress(_next_multicast_mac[0])
    _next_multicast_mac[0] += 1
    return mac


class IPAddress:
    """A 32-bit IPv4 address."""

    __slots__ = ("value", "_hash")

    def __init__(self, value: Union[int, str, "IPAddress"]) -> None:
        if isinstance(value, IPAddress):
            number = value.value
        elif isinstance(value, str):
            parts = value.split(".")
            if len(parts) != 4:
                raise AddressError(f"bad IPv4 literal {value!r}")
            try:
                octets = [int(part) for part in parts]
            except ValueError as exc:
                raise AddressError(f"bad IPv4 literal {value!r}") from exc
            if any(octet < 0 or octet > 255 for octet in octets):
                raise AddressError(f"bad IPv4 literal {value!r}")
            number = 0
            for octet in octets:
                number = (number << 8) | octet
        elif isinstance(value, int):
            if not 0 <= value < (1 << 32):
                raise AddressError(f"IPv4 integer out of range: {value}")
            number = value
        else:
            raise AddressError(f"cannot build IP from {type(value).__name__}")
        self.value = number
        # Hashed per datagram (local_ips, ARP, routing); see MACAddress.
        self._hash = hash(("ip", number))

    def __reduce__(self) -> tuple:
        return (IPAddress, (self.value,))

    def in_network(self, network: "IPAddress", prefix_len: int) -> bool:
        """True if this address falls inside ``network/prefix_len``."""
        if not 0 <= prefix_len <= 32:
            raise AddressError(f"bad prefix length {prefix_len}")
        if prefix_len == 0:
            return True
        mask = ((1 << prefix_len) - 1) << (32 - prefix_len)
        return (self.value & mask) == (network.value & mask)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IPAddress):
            return self.value == other.value
        if isinstance(other, str):
            try:
                return self.value == IPAddress(other).value
            except AddressError:
                return False
        return NotImplemented

    def __lt__(self, other: "IPAddress") -> bool:
        return self.value < other.value

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        octets = [(self.value >> shift) & 0xFF for shift in range(24, -8, -8)]
        return ".".join(str(octet) for octet in octets)

    def __repr__(self) -> str:
        return f"IPAddress('{self}')"


def ip(value: Union[int, str, IPAddress]) -> IPAddress:
    """Shorthand coercion used pervasively in call sites and tests."""
    return IPAddress(value)


def mac(value: Union[int, str, MACAddress]) -> MACAddress:
    """Shorthand coercion for MAC addresses."""
    return MACAddress(value)
