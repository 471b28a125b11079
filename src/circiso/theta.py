"""The residue-shift transformation behind Type-2 isomorphism.

For m | n and a shift index t, the vertex map sends x to x + (x mod m)*t*m
(mod n): each residue class mod m is rotated rigidly by a different amount,
so the map is a bijection fixing 0.  Applied to the edges of a circulant
graph it sometimes lands on another circulant graph; when that image lies
outside the source's multiplier orbit the two graphs witness a Type-2
isomorphism.

`theta_image` is the single circulance test.  It decides a probe from the
jump set alone in O(|R|), by the closed form proved in its docstring.  The
edge-level `apply_to_edges` and `graphs.detect_circulant` stay as the
definition the closed form is tested against.  `jump_shortcut` (circulant
iff the elementwise image of the symmetric jump set is closed under
negation) is kept for comparison; its negatives are conclusive, but it is
exact only for m = 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .graphs import ConnectionSet, EdgeSet
from .modarith import reduce_set


@dataclass(frozen=True)
class ThetaMap:
    """Vertex bijection x -> x + (x mod m)*t*m (mod n)."""

    n: int
    m: int
    t: int

    def __post_init__(self) -> None:
        if self.m <= 1:
            raise ValueError(f"modulus must exceed 1, got {self.m}")
        if self.n % self.m != 0:
            raise ValueError(f"{self.m} does not divide order {self.n}")
        if not 0 <= self.t <= self.n // self.m - 1:
            raise ValueError(
                f"shift {self.t} out of range [0, {self.n // self.m - 1}] for (n={self.n}, m={self.m})"
            )

    def apply(self, x: int) -> int:
        return (x + (x % self.m) * self.t * self.m) % self.n

    def perm(self) -> tuple[int, ...]:
        """The full permutation of Z_n as a lookup table."""
        return tuple(self.apply(x) for x in range(self.n))


@dataclass(frozen=True)
class ThetaResult:
    """Outcome of transforming one circulant graph: its image set, or None."""

    source: ConnectionSet
    map: ThetaMap
    image: Optional[ConnectionSet]


def apply_to_edges(tm: ThetaMap, e: EdgeSet) -> EdgeSet:
    """Push every edge through the vertex bijection (edge count is preserved)."""
    if e.n != tm.n:
        raise ValueError(f"edge set order {e.n} does not match map order {tm.n}")
    perm = tm.perm()
    out = set()
    for u, v in e.edges:
        a, b = perm[u], perm[v]
        out.add((a, b) if a < b else (b, a))
    return EdgeSet(tm.n, frozenset(out))


def theta_image(c: ConnectionSet, m: int, t: int) -> ThetaResult:
    """Image of C_n(R) under the residue-shift map, decided from R alone.

    Criterion: the image is circulant iff A = {s in +-R : m does not divide s}
    is closed under s -> s + t*m^2 (mod n); it is then C_n(theta(+-R)),
    with theta(s) = s + (s mod m)*t*m.

    Proof.  theta keeps residues mod m and translates class i by i*t*m, so
    a vertex y in class i has the neighbour offsets D_i = {theta(s) -
    t*m^2*[i + (s mod m) >= m] : s in +-R} in the image.
    The image is circulant iff D_i = D_0 for every i; splitting by residue
    class k != 0 and taking i = m - k gives exactly the closure of A_k under
    -t*m^2, which for a finite set is the same as closure under +t*m^2.
    Jumps divisible by m are fixed, so they never break circulance.
    """
    tm = ThetaMap(c.n, m, t)
    n, shift = c.n, t * m
    sym = [s for r in c.jumps for s in (r, n - r)]
    moving = {s for s in sym if s % m}
    if any((s + shift * m) % n not in moving for s in moving):
        return ThetaResult(source=c, map=tm, image=None)
    image = ConnectionSet.reduce(n, [(s + s % m * shift) % n for s in sym])
    return ThetaResult(source=c, map=tm, image=image)


def jump_shortcut(c: ConnectionSet, m: int, t: int) -> ThetaResult:
    """Elementwise image of the symmetric jump set; circulant iff it is
    closed under negation mod n (jumps divisible by m stay fixed)."""
    tm = ThetaMap(c.n, m, t)
    sym = c.symmetric_jumps()
    image = {tm.apply(s) for s in sym}
    if any((c.n - s) % c.n not in image for s in image):
        return ThetaResult(source=c, map=tm, image=None)
    reduced = ConnectionSet(c.n, reduce_set(c.n, image))
    return ThetaResult(source=c, map=tm, image=reduced)


def shortcut_disagreement(c: ConnectionSet, m: int, t: int) -> Optional[str]:
    """Diagnostic comparing the shortcut against the exact `theta_image`.

    Returns a human-readable description when they disagree (possible only
    for m > 2 positives), else None.
    """
    fast = jump_shortcut(c, m, t)
    full = theta_image(c, m, t)
    if fast.image == full.image:
        return None
    return (
        f"shortcut says {fast.image} but edge-level image is {full.image} "
        f"for {c} under (m={m}, t={t})"
    )
