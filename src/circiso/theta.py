"""The residue-shift transformation behind Type-2 isomorphism.

For m | n and a shift index t, the vertex map sends x to x + (x mod m)*t*m
(mod n): each residue class mod m is rotated rigidly by a different amount,
so the map is a bijection fixing 0.  Applied to the edges of a circulant
graph it sometimes lands on another circulant graph; when that image lies
outside the source's multiplier orbit the two graphs witness a Type-2
isomorphism.

The mask kernel `_shift_mask` is the single circulance test.  It decides a
probe from the jump set alone, as a bit mask of +-R, by the closed form
proved in its docstring: one rotation compare for circulance, one
rotation per residue class for the image.  The census in `classify`
calls it directly on masks; `theta_image` is a thin adapter over it
(ConnectionSet -> mask -> ThetaResult), and `classify.classify_pair` is
the single probe classifier built on that: shift tables and the CLI take
their verdicts from there, so they refuse an m that divides gcd(n, r) for
no jump r.  The closed form is tested against the edge-level definition
in `tests/suites.py` (`edge_level_image`), which shares no code with the
package.  The edge-level `apply_to_edges`, `jump_shortcut` (circulant iff
the elementwise image of the symmetric jump set is closed under negation;
its negatives are conclusive, but it is exact only for m = 2) and
`shortcut_disagreement` have no caller in the package: they survive only
because the benchmark under `perfbench/` traces them.
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


@dataclass(frozen=True)
class ThetaResult:
    """Outcome of transforming one circulant graph: its image set, or None."""

    image: Optional[ConnectionSet]


def apply_to_edges(tm: ThetaMap, e: EdgeSet) -> EdgeSet:
    """Push every edge through the vertex bijection (edge count is preserved)."""
    if e.n != tm.n:
        raise ValueError(f"edge set order {e.n} does not match map order {tm.n}")
    out = set()
    for u, v in e.edges:
        a, b = tm.apply(u), tm.apply(v)
        out.add((a, b) if a < b else (b, a))
    return EdgeSet(tm.n, frozenset(out))


def _shift_mask(n: int, m: int, t: int, a: int) -> Optional[int]:
    """The residue-shift kernel on a symmetric jump mask: bit s of `a` set
    for every s in +-R.  Returns the mask of +-S with C_n(S) the image of
    C_n(R) under theta_{n,m,t}, or None when that image is not circulant.

    Criterion: the image is circulant iff A = {s in +-R : m does not divide s}
    is closed under s -> s + t*m^2 (mod n), which on masks is the rotation
    compare rot(A, t*m^2) == A; it is then C_n(theta(+-R)), with
    theta(s) = s + (s mod m)*t*m, so its mask is the OR over residue
    classes i of class i's bits of `a` rotated by i*t*m.

    Proof.  theta keeps residues mod m and translates class i by i*t*m, so
    a vertex y in class i has the neighbour offsets D_i = {theta(s) -
    t*m^2*[i + (s mod m) >= m] : s in +-R} in the image.
    The image is circulant iff D_i = D_0 for every i; splitting by residue
    class k != 0 and taking i = m - k gives exactly the closure of A_k under
    -t*m^2, which for a finite set is the same as closure under +t*m^2.
    Jumps divisible by m are fixed, so they never break circulance.
    """
    full = (1 << n) - 1
    mult = full // ((1 << m) - 1)  # the bits at multiples of m, as m | n
    image = a & mult
    moving = a ^ image
    step = t * m * m % n
    if step and (moving << step | moving >> (n - step)) & full != moving:
        return None
    shift = t * m
    for i in range(1, m):
        part = moving & (mult << i)
        if part:
            k = i * shift % n
            image |= (part << k | part >> (n - k)) & full
    return image


def theta_image(c: ConnectionSet, m: int, t: int) -> ThetaResult:
    """Image of C_n(R) under the residue-shift map, decided from R alone by
    the mask kernel `_shift_mask` (criterion and proof in its docstring)."""
    ThetaMap(c.n, m, t)  # validates m and t
    n = c.n
    a = 0
    for r in c.jumps:
        a |= 1 << r | 1 << (n - r)
    image = _shift_mask(n, m, t, a)
    if image is None:
        return ThetaResult(image=None)
    jumps = _mask_jumps(image >> 1 & ((1 << n // 2) - 1))
    return ThetaResult(image=ConnectionSet(n, tuple(jumps)))


def _mask_jumps(v: int) -> list[int]:
    """The jumps of a jump mask (bit r - 1 set for jump r), ascending."""
    out = []
    while v:
        low = v & -v
        out.append(low.bit_length())
        v ^= low
    return out


def jump_shortcut(c: ConnectionSet, m: int, t: int) -> ThetaResult:
    """Elementwise image of the symmetric jump set; circulant iff it is
    closed under negation mod n (jumps divisible by m stay fixed)."""
    tm = ThetaMap(c.n, m, t)
    sym = c.symmetric_jumps()
    image = {tm.apply(s) for s in sym}
    if any((c.n - s) % c.n not in image for s in image):
        return ThetaResult(image=None)
    return ThetaResult(image=ConnectionSet(c.n, reduce_set(c.n, image)))


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
