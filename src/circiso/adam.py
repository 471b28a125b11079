"""Multiplier (Type-1) equivalence of circulant graphs.

Multiplying a jump set by a unit x of Z_n and reducing reflexively yields an
isomorphic graph; the set of all such images is the multiplier orbit of the
graph.  Two circulant graphs are Type-1 isomorphic exactly when one lies in
the orbit of the other, and orbit membership is symmetric.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .graphs import ConnectionSet


@dataclass(frozen=True)
class AdamOrbit:
    """The orbit of a connection set under unit multiplication.

    members are sorted; witness maps each member to one unit producing it
    (the smallest), so reports can print the `S = xR` justification.
    """

    members: tuple[ConnectionSet, ...]
    witness: dict[ConnectionSet, int]


@lru_cache(maxsize=1)
def adam_orbit(c: ConnectionSet) -> AdamOrbit:
    """All images of c under unit multiplication, deduplicated and sorted.

    Each unit x <= n/2 takes one multiplication per jump, x*r reduced
    reflexively, and the images are deduplicated by their set of reduced
    jumps, each keeping the first, so the smallest, unit that produces
    it.  A `ConnectionSet` is built only for each distinct member.  x and
    n - x produce the same reduced set, so the units up to n/2 reach every
    member; a unit permutes the nonzero reflexive classes, so every image
    has as many jumps as c.  The key is a frozenset, not a jump mask: a
    mask costs O(n) to build and hash, a frozenset O(|R|), which decides
    at large orders.  The last orbit built is memoised, so consecutive
    probes of one set share it; the result is shared, and callers must
    not mutate its `witness` dict.
    """
    n = c.n
    h = n // 2
    first_unit: dict[frozenset[int], int] = {}
    for x in range(1, h + 1):
        if gcd(n, x) == 1:
            image = frozenset([y if y <= h else n - y for y in [x * r % n for r in c.jumps]])
            first_unit.setdefault(image, x)
    witness = {ConnectionSet(n, tuple(sorted(image))): x for image, x in first_unit.items()}
    return AdamOrbit(members=tuple(sorted(witness)), witness=witness)


def same_adam_orbit(a: ConnectionSet, b: ConnectionSet) -> bool:
    """True when b = xA for some unit x (symmetric and transitive)."""
    if a.n != b.n:
        raise ValueError(f"order mismatch: {a.n} vs {b.n}")
    if len(a.jumps) != len(b.jumps):
        return False
    return b in adam_orbit(a).witness
