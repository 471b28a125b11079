"""The residue-shift transformation behind Type-2 isomorphism.

For m | n and a shift index t, the vertex map sends x to x + (x mod m)*t*m
(mod n): each residue class mod m is rotated rigidly by a different amount,
so the map is a bijection fixing 0.  Applied to the edges of a circulant
graph it sometimes lands on another circulant graph; when that image lies
outside the source's multiplier orbit the two graphs witness a Type-2
isomorphism.

The mask kernel `_shift_mask` decides a probe from the jump set alone, as
a bit mask of +-R, by the closed form proved in its docstring: the image
is circulant iff the jumps A of +-R that m does not divide are closed
under +t*m^2, one rotation compare (`_closed_under`), and the image then
rotates each residue class i by i*t*m (`_rotate_classes`, the one image
builder).  The census in `classify` and the probe classifier
`classify.classify_pair` both decide every t of a modulus at once: the
circulant shifts are the multiples of one q derived from the least
period of A (`_least_period`, proof in its docstring), and only their
images are built, with the same builder.  `classify_pair` reads q, the
mask of +-R, its fixed bits and its class parts from one plan per (set,
modulus), `classify._probe_plan`; shift tables and the CLI take their
verdicts from it, so they refuse an m that divides gcd(n, r) for no jump
r.  `theta_image` is a thin adapter over `_shift_mask` (ConnectionSet ->
mask -> ThetaResult) for the families and the tests.  The closed form
is tested against the edge-level definition in `tests/suites.py`
(`edge_level_image`), which shares no code with the package, the
least-period shifts against `_shift_mask` at every t
(`least_period_decides_shifts`), and `classify_pair` against the
edge-level image and a brute-force orbit on every admissible probe
(`classify_pair_matches_reference`).  The edge-level `apply_to_edges`,
`jump_shortcut` (circulant iff the elementwise image of the symmetric
jump set is closed under negation; its negatives are conclusive, but it
is exact only for m = 2) and `shortcut_disagreement` have no caller in
the package: they survive only because the benchmark under `perfbench/`
traces them.
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


def _closed_under(n: int, v: int, k: int) -> bool:
    """Whether the subset of Z_n with mask v (bit s for element s) is
    closed under s -> s + k, for 0 <= k < n: the rotation compare
    rot(v, k) == v.  A finite set closed under +k is mapped onto itself,
    so it is also closed under -k."""
    return (v << k | v >> (n - k)) & ((1 << n) - 1) == v


def _least_period(n: int, primes, v: int) -> int:
    """The least period d of the subset of Z_n with mask v: the least
    d >= 1 with v closed under +d.  `primes` are the prime divisors of n.

    Used on A = {s in +-R : m does not divide s} it decides every shift of
    a modulus at once: the probe (m, t) is circulant iff d divides t*m^2,
    that is iff t is a multiple of q = d / gcd(d, m^2).

    Proof.  The stabiliser H = {k in Z_n : A + k = A} is a subgroup of
    Z_n: it holds 0, and A + k = A with A + k' = A gives A + (k + k') = A
    and A - k = A.  Every subgroup of Z_n is dZ_n for one divisor d of n,
    the least period, so for a divisor e of n, A is closed under +e iff
    d | e, and for any k, closure under +k is closure under +gcd(k, n).
    The loop starts from e = n, which d divides, and divides e by a prime
    p of n while A stays closed under +e/p, that is while d | e/p.  It
    ends with d | e and d not dividing e/p for any prime p of e, so e/d
    has no prime factor and e = d.  By the criterion of `_shift_mask` the
    probe (m, t) is circulant iff A is closed under +t*m^2 (mod n), iff
    t*m^2 mod n lies in dZ_n, iff d | t*m^2 (as d | n), iff
    d / gcd(d, m^2) divides t.  The same set of t follows from the group
    law theta_{m,t} o theta_{m,t'} = theta_{m,t+t'}: the shifts t with
    t*m^2 in H are the preimage of H under the homomorphism t -> t*m^2.
    """
    d = n
    for p in primes:
        while d % p == 0 and _closed_under(n, v, d // p):
            d //= p
    return d


def _class_parts(m: int, mult: int, moving: int) -> list[tuple[int, int]]:
    """The nonempty residue classes i = 1..m-1 of the mask `moving`, as
    (i, bits of class i); `mult` is the mask of the multiples of m."""
    return [(i, part) for i in range(1, m) if (part := moving & mult << i)]


def _rotate_classes(n: int, shift: int, image: int, parts) -> int:
    """The image builder: `image` ORed with every (i, part) of `parts`
    rotated by i*shift (mod n).

    With shift = t*m, `image` the bits of +-R divisible by m and `parts`
    the other residue classes of +-R (`_class_parts`), this is the mask
    of theta(+-R), theta(s) = s + (s mod m)*t*m; when the probe (m, t) is
    circulant (criterion in `_shift_mask`) the image graph is C_n of it.

    Proof.  theta keeps s mod m and adds i*t*m to every s of class i, so
    on masks it fixes class 0 and rotates class i by i*t*m, and distinct
    classes stay disjoint.  In the image, vertex 0 = theta(0) is adjacent
    to theta(s) for s in +-R (theta(s) - theta(0) = theta(s), as class 0
    is fixed), so when the image is circulant its neighbour offsets at
    vertex 0, theta(+-R), are its symmetric jump set.
    """
    full = (1 << n) - 1
    for i, part in parts:
        k = i * shift % n
        image |= (part << k | part >> (n - k)) & full
    return image


def _shift_mask(n: int, m: int, t: int, a: int) -> Optional[int]:
    """The residue-shift kernel on a symmetric jump mask: bit s of `a` set
    for every s in +-R.  Returns the mask of +-S with C_n(S) the image of
    C_n(R) under theta_{n,m,t}, or None when that image is not circulant.

    Criterion: the image is circulant iff A = {s in +-R : m does not divide s}
    is closed under s -> s + t*m^2 (mod n), one rotation compare
    (`_closed_under`); the image is then C_n(theta(+-R)), built by
    `_rotate_classes`.

    Proof.  theta keeps residues mod m and translates class i by i*t*m, so
    a vertex y in class i has the neighbour offsets D_i = {theta(s) -
    t*m^2*[i + (s mod m) >= m] : s in +-R} in the image.
    The image is circulant iff D_i = D_0 for every i; splitting by residue
    class k != 0 and taking i = m - k gives exactly the closure of A_k under
    -t*m^2, which for a finite set is the same as closure under +t*m^2.
    Jumps divisible by m are fixed, so they never break circulance.
    """
    mult = ((1 << n) - 1) // ((1 << m) - 1)  # the bits at multiples of m, as m | n
    fixed = a & mult
    moving = a ^ fixed
    if not _closed_under(n, moving, t * m * m % n):
        return None
    return _rotate_classes(n, t * m, fixed, _class_parts(m, mult, moving))


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
