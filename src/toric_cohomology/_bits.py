"""Bitmask helpers for vertex subsets.

Vertex subsets of [n] are stored as machine integers: bit i set means
vertex i (0-based) is in the set.  File formats use 1-based indices.
"""

from __future__ import annotations

from typing import Iterable, Iterator


def mask_from_1based(indices: Iterable[int], n: int) -> int:
    m = 0
    for i in indices:
        if not 1 <= i <= n:
            raise ValueError(f"vertex index {i} out of range 1..{n}")
        m |= 1 << (i - 1)
    return m


def bits(mask: int) -> Iterator[int]:
    """Set bit positions of `mask`, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def to_1based(mask: int) -> tuple[int, ...]:
    return tuple(i + 1 for i in bits(mask))


def complement(mask: int, n: int) -> int:
    return ((1 << n) - 1) ^ mask


def bitstring(mask: int, n: int) -> str:
    """Render as a 0/1 string, vertex 1 leftmost (e.g. {1,2} over n=4 -> '1100')."""
    return "".join("1" if mask >> i & 1 else "0" for i in range(n))


def submasks(mask: int) -> Iterator[int]:
    """All subsets of `mask`, including 0 and `mask` itself."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask
