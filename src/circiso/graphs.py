"""Circulant graphs as explicit edge sets over Z_n.

A circulant graph is named by its order n and a reduced jump set
R subseteq [1, n//2]: vertex x is joined to x +- r (mod n) for every r in R.
This module materialises such graphs, recognises whether an arbitrary edge
set is circulant, and computes the periodic cycle structure of a jump.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .modarith import reduce_set


@dataclass(frozen=True, order=True)
class ConnectionSet:
    """An order n together with a reduced, strictly ascending jump tuple."""

    n: int
    jumps: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"order must be >= 2, got {self.n}")
        if not self.jumps:
            raise ValueError("jump set must be nonempty")
        prev = 0
        for j in self.jumps:
            if not prev < j <= self.n // 2:
                raise ValueError(
                    f"jumps must be strictly ascending in [1, {self.n // 2}], got {self.jumps}"
                )
            prev = j

    @classmethod
    def reduce(cls, n: int, values) -> "ConnectionSet":
        """Build a ConnectionSet by reflexively reducing arbitrary values."""
        return cls(n, reduce_set(n, values))

    def symmetric_jumps(self) -> tuple[int, ...]:
        """The jump set closed under negation mod n, ascending (R and n-R)."""
        sym = set(self.jumps)
        sym.update(self.n - j for j in self.jumps)
        return tuple(sorted(sym))

    def __str__(self) -> str:
        return f"C_{self.n}({','.join(str(j) for j in self.jumps)})"


@dataclass(frozen=True)
class EdgeSet:
    """An undirected simple graph on vertex set Z_n, edges as (min, max) pairs."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        for u, v in self.edges:
            if not (0 <= u < v < self.n):
                raise ValueError(f"edge ({u}, {v}) invalid for order {self.n}")

    def neighbors(self, x: int) -> tuple[int, ...]:
        """Sorted neighbours of vertex x."""
        out = set()
        for u, v in self.edges:
            if u == x:
                out.add(v)
            elif v == x:
                out.add(u)
        return tuple(sorted(out))

    def degree_sequence(self) -> tuple[int, ...]:
        degs = [0] * self.n
        for u, v in self.edges:
            degs[u] += 1
            degs[v] += 1
        return tuple(degs)


@dataclass(frozen=True)
class CycleStructure:
    """Count and length of the disjoint cycles traced by a single jump."""

    period: int
    count: int
    length: int


def _edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def build_edges(c: ConnectionSet) -> EdgeSet:
    """Materialise C_n(R) as an explicit edge set.

    The jump n/2 (n even) yields one edge per vertex pair, never two, so the
    edge count is n*|R| minus n/2 when that jump is present.
    """
    n = c.n
    pairs = set()
    for r in c.jumps:
        for x in range(n):
            pairs.add(_edge(x, (x + r) % n))
    return EdgeSet(n, frozenset(pairs))


def detect_circulant(n: int, e: EdgeSet):
    """Return the ConnectionSet S with build_edges(S) == e, or None.

    The candidate is read off the neighbours of vertex 0.  Equality with the
    circulant rebuilt from it already implies rotation invariance.
    """
    if e.n != n:
        raise ValueError(f"edge set order {e.n} does not match {n}")
    zero_nbrs = [v for u, v in e.edges if u == 0]
    if not zero_nbrs:
        return None
    candidate = ConnectionSet.reduce(n, zero_nbrs)
    return candidate if build_edges(candidate).edges == e.edges else None


def cycle_structure(n: int, r: int) -> CycleStructure:
    """Cycle count and length for the jump r: gcd(n, r) cycles of length n/gcd."""
    if not 1 <= r <= n // 2:
        raise ValueError(f"jump {r} out of range for order {n}")
    g = gcd(n, r)
    return CycleStructure(period=r, count=g, length=n // g)


def gcd_signature(c: ConnectionSet) -> tuple[int, ...]:
    """The sorted multiset {gcd(n, r) : r in jumps}.

    Only the CI census's bucketing key, not a certificate: nothing here
    proves that isomorphic circulants carry equal signatures.  The test
    suite checks that against the colour-refinement oracle on every pair
    of same-size multiplier orbits at every order n <= 18.
    """
    return tuple(sorted(gcd(c.n, r) for r in c.jumps))


def format_connection_set(c: ConnectionSet) -> str:
    """One-line text form `n: r1,r2,...` (the shared file format)."""
    return f"{c.n}: {','.join(str(j) for j in c.jumps)}"


def parse_connection_sets(text: str) -> list[ConnectionSet]:
    """Parse the shared text format: one `n: r1,r2,...` per line, `#` comments."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            order_part, jumps_part = line.split(":", 1)
            n = int(order_part.strip())
            values = [int(v.strip()) for v in jumps_part.split(",") if v.strip()]
            out.append(ConnectionSet.reduce(n, values))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: cannot parse {raw!r}") from exc
    return out
