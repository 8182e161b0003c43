"""Dimension hierarchies for pattern aggregation (section 4.4).

Each pattern dimension is a lattice with a root ("any value"):

* **IP addresses** generalise along prefix length 32 → 0,
* **ports** generalise single port → static range (well-known 0-1023 or
  registered/ephemeral 1024-65535) → any — the paper notes its raw HHH
  uses exactly these static ranges (section 6.4),
* **protocols** generalise value → any,
* **locations** (NF instances and traffic sources) generalise
  instance → NF type → any.

Nodes are small frozen dataclasses with ``parent()`` and
``contains(leaf)``; aggregation code never needs to know which dimension
it is working on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Tuple

from repro.errors import AggregationError
from repro.nfv.packet import ip_to_str


@dataclass(frozen=True, order=True)
class PrefixNode:
    """IPv4 prefix: value is the network address, length in [0, 32]."""

    value: int
    length: int

    def __post_init__(self) -> None:
        if not 0 <= self.length <= 32:
            raise AggregationError(f"prefix length out of range: {self.length}")
        mask = ((1 << self.length) - 1) << (32 - self.length) if self.length else 0
        if self.value & ~mask & 0xFFFFFFFF:
            raise AggregationError(
                f"prefix {self.value:#x}/{self.length} has host bits set"
            )

    @classmethod
    def leaf(cls, address: int) -> "PrefixNode":
        return cls(value=address, length=32)

    def parent(self) -> Optional["PrefixNode"]:
        if self.length == 0:
            return None
        new_len = self.length - 1
        mask = ((1 << new_len) - 1) << (32 - new_len) if new_len else 0
        return PrefixNode(value=self.value & mask, length=new_len)

    def contains(self, address: int) -> bool:
        if self.length == 0:
            return True
        shift = 32 - self.length
        return (address >> shift) == (self.value >> shift)

    def contains_node(self, other: "PrefixNode") -> bool:
        return other.length >= self.length and self.contains(other.value)

    @property
    def depth(self) -> int:
        return self.length

    def __str__(self) -> str:
        if self.length == 0:
            return "*"
        return f"{ip_to_str(self.value)}/{self.length}"


_WELL_KNOWN = (0, 1023)
_EPHEMERAL = (1024, 65535)


@dataclass(frozen=True, order=True)
class PortNode:
    """Port range node: (lo, hi); a single port has lo == hi."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if not 0 <= self.lo <= self.hi <= 65535:
            raise AggregationError(f"bad port range ({self.lo}, {self.hi})")

    @classmethod
    def leaf(cls, port: int) -> "PortNode":
        return cls(lo=port, hi=port)

    @classmethod
    def any(cls) -> "PortNode":
        return cls(lo=0, hi=65535)

    def parent(self) -> Optional["PortNode"]:
        if (self.lo, self.hi) == (0, 65535):
            return None
        if self.lo == self.hi:
            band = _WELL_KNOWN if self.lo <= _WELL_KNOWN[1] else _EPHEMERAL
            return PortNode(lo=band[0], hi=band[1])
        return PortNode.any()

    def contains(self, port: int) -> bool:
        return self.lo <= port <= self.hi

    def contains_node(self, other: "PortNode") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    @property
    def depth(self) -> int:
        if self.lo == self.hi:
            return 2
        if (self.lo, self.hi) == (0, 65535):
            return 0
        return 1

    def __str__(self) -> str:
        if self.lo == self.hi:
            return str(self.lo)
        if (self.lo, self.hi) == (0, 65535):
            return "*"
        return f"{self.lo}-{self.hi}"


@dataclass(frozen=True, order=True)
class ProtoNode:
    """Protocol dimension: a value or any (-1)."""

    value: int  # -1 means any

    @classmethod
    def leaf(cls, proto: int) -> "ProtoNode":
        return cls(value=proto)

    @classmethod
    def any(cls) -> "ProtoNode":
        return cls(value=-1)

    def parent(self) -> Optional["ProtoNode"]:
        if self.value == -1:
            return None
        return ProtoNode.any()

    def contains(self, proto: int) -> bool:
        return self.value in (-1, proto)

    def contains_node(self, other: "ProtoNode") -> bool:
        return self.value == -1 or self.value == other.value

    @property
    def depth(self) -> int:
        return 0 if self.value == -1 else 1

    def __str__(self) -> str:
        return "*" if self.value == -1 else str(self.value)


@dataclass(frozen=True, order=True)
class LocationNode:
    """NF-set dimension: instance -> NF type -> any.

    ``kind`` is 'instance', 'type', or 'any'.  Instances carry their type
    so generalisation needs no external lookup.
    """

    kind: str
    name: str = ""
    type_name: str = ""

    @classmethod
    def leaf(cls, instance: str, type_name: str) -> "LocationNode":
        return cls(kind="instance", name=instance, type_name=type_name)

    @classmethod
    def any(cls) -> "LocationNode":
        return cls(kind="any")

    def parent(self) -> Optional["LocationNode"]:
        if self.kind == "instance":
            return LocationNode(kind="type", type_name=self.type_name)
        if self.kind == "type":
            return LocationNode.any()
        return None

    def contains_node(self, other: "LocationNode") -> bool:
        if self.kind == "any":
            return True
        if self.kind == "type":
            return other.type_name == self.type_name and other.kind in (
                "instance",
                "type",
            )
        return other.kind == "instance" and other.name == self.name

    @property
    def depth(self) -> int:
        return {"any": 0, "type": 1, "instance": 2}[self.kind]

    def __str__(self) -> str:
        if self.kind == "any":
            return "*"
        if self.kind == "type":
            return f"{self.type_name}:*"
        return self.name


@dataclass(frozen=True, order=True)
class BinaryPortNode:
    """Adaptive port ranges: a binary hierarchy over the 16-bit port space.

    The paper notes its raw HHH "only considers either the static port
    range (1024-65535) or single port numbers" and that *adaptive* port
    ranges would merge e.g. ports 2000-2008 into one pattern (section 6.4).
    This node type provides exactly that: ranges are power-of-two aligned
    blocks, generalising leaf -> /15 -> ... -> the full space, like IP
    prefixes over 16 bits.
    """

    value: int
    length: int  # prefix length over 16 bits; 16 = single port

    def __post_init__(self) -> None:
        if not 0 <= self.length <= 16:
            raise AggregationError(f"port prefix length out of range: {self.length}")
        mask = ((1 << self.length) - 1) << (16 - self.length) if self.length else 0
        if self.value & ~mask & 0xFFFF:
            raise AggregationError(
                f"port block {self.value}/{self.length} has low bits set"
            )

    @classmethod
    def leaf(cls, port: int) -> "BinaryPortNode":
        return cls(value=port, length=16)

    @classmethod
    def any(cls) -> "BinaryPortNode":
        return cls(value=0, length=0)

    def parent(self) -> Optional["BinaryPortNode"]:
        if self.length == 0:
            return None
        new_len = self.length - 1
        mask = ((1 << new_len) - 1) << (16 - new_len) if new_len else 0
        return BinaryPortNode(value=self.value & mask, length=new_len)

    @property
    def lo(self) -> int:
        return self.value

    @property
    def hi(self) -> int:
        return self.value | ((1 << (16 - self.length)) - 1)

    def contains(self, port: int) -> bool:
        return self.lo <= port <= self.hi

    def contains_node(self, other: "BinaryPortNode") -> bool:
        return other.length >= self.length and self.contains(other.value)

    @property
    def depth(self) -> int:
        return self.length

    def __str__(self) -> str:
        if self.length == 16:
            return str(self.value)
        if self.length == 0:
            return "*"
        return f"{self.lo}-{self.hi}"


@lru_cache(maxsize=1 << 12)
def ancestors(node) -> Tuple[object, ...]:
    """The node itself plus all generalisations up to the dimension root.

    Memoised in a bounded cache: callers walk the same chains many times
    in a row, and node construction dominates otherwise; a long-lived
    process seeing ever new leaves keeps at most the latest 4,096 chains.
    """
    chain: List[object] = [node]
    current = node.parent()
    while current is not None:
        chain.append(current)
        current = current.parent()
    return tuple(chain)
