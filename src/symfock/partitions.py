"""Integer partitions.

A partition is a plain tuple of weakly decreasing positive ints; the
empty tuple is the empty partition.  Tuples double as dict keys for the
power-sum monomial indexing used everywhere else.
"""

from __future__ import annotations

from functools import cache
from math import factorial
from typing import Iterator

Partition = tuple[int, ...]


def is_partition(parts: tuple) -> bool:
    return all(type(p) is int and p >= 1 for p in parts) and all(
        parts[i] >= parts[i + 1] for i in range(len(parts) - 1)
    )


def as_partition(parts) -> Partition:
    """Validate and return the canonical tuple form."""
    tup = tuple(parts)
    if not is_partition(tup):
        raise ValueError(f"not a partition: {parts!r}")
    return tup


def weight(la: Partition) -> int:
    return sum(la)


def partitions_of(w: int, max_part: int | None = None) -> Iterator[Partition]:
    """All partitions of weight w in reverse-lexicographic order, largest part first."""
    if w < 0:
        raise ValueError("weight must be nonnegative")
    cap = w if max_part is None else min(max_part, w)
    if w == 0:
        yield ()
        return
    for first in range(cap, 0, -1):
        for rest in partitions_of(w - first, first):
            yield (first,) + rest


def partitions_up_to(max_weight: int) -> Iterator[Partition]:
    """All partitions of weight 0..max_weight, ordered by weight then revlex."""
    for w in range(max_weight + 1):
        yield from partitions_of(w)


@cache
def partition_count(w: int) -> int:
    """Number of partitions of w, by the Euler pentagonal-free DP."""
    counts = [0] * (w + 1)
    counts[0] = 1
    for part in range(1, w + 1):
        for n in range(part, w + 1):
            counts[n] += counts[n - part]
    return counts[w]


def conjugate(la: Partition) -> Partition:
    """Transpose of the Young diagram."""
    if not la:
        return ()
    cols = [0] * la[0]
    for part in la:
        for i in range(part):
            cols[i] += 1
    return tuple(cols)


def multiplicities(la: Partition) -> dict[int, int]:
    """Map part value -> number of parts with that value."""
    out: dict[int, int] = {}
    for p in la:
        out[p] = out.get(p, 0) + 1
    return out


def z_factor(la: Partition) -> int:
    """The automorphism factor z_la = prod_i i**m_i * m_i!."""
    z = 1
    for value, mult in multiplicities(la).items():
        z *= value**mult * factorial(mult)
    return z


def revlex_key(la: Partition):
    """Sort key putting partitions of equal weight in reverse-lexicographic order."""
    return tuple(-p for p in la)


def partition_from_json(obj: object) -> Partition:
    if not isinstance(obj, list):
        raise ValueError(f"partition JSON must be a list of ints, got {obj!r}")
    return as_partition(obj)
