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


def multiply_set(c: ConnectionSet, x: int) -> ConnectionSet:
    """Reduce x*R for a unit x; units permute the nonzero reflexive classes."""
    if gcd(c.n, x) != 1:
        raise ValueError(f"{x} is not a unit mod {c.n}")
    out = ConnectionSet.reduce(c.n, [x * r for r in c.jumps])
    assert len(out.jumps) == len(c.jumps)
    return out


@lru_cache(maxsize=1)
def adam_orbit(c: ConnectionSet) -> AdamOrbit:
    """All images of c under unit multiplication, deduplicated and sorted.

    x and n - x produce the same reduced set, so only units up to n/2 are
    scanned.  The last orbit built is memoised, so consecutive probes of
    one set share it; the result is shared, and callers must not mutate
    its `witness` dict.
    """
    witness: dict[ConnectionSet, int] = {}
    for x in range(1, c.n // 2 + 1):
        if gcd(c.n, x) != 1:
            continue
        image = multiply_set(c, x)
        if image not in witness:
            witness[image] = x
    members = tuple(sorted(witness))
    return AdamOrbit(members=members, witness=witness)


def same_adam_orbit(a: ConnectionSet, b: ConnectionSet) -> bool:
    """True when b = xA for some unit x (symmetric and transitive)."""
    if a.n != b.n:
        raise ValueError(f"order mismatch: {a.n} vs {b.n}")
    if len(a.jumps) != len(b.jumps):
        return False
    return b in adam_orbit(a).witness
