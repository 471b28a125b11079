"""The residue-shift transformation behind Type-2 isomorphism.

For m | n and a shift index t, the vertex map sends x to x + (x mod m)*t*m
(mod n): each residue class mod m is rotated rigidly by a different amount,
so the map is a bijection fixing 0.  Applied to the edges of a circulant
graph it sometimes lands on another circulant graph; when that image lies
outside the source's multiplier orbit the two graphs witness a Type-2
isomorphism.

One test decides circulance: the circulant shifts of m are the multiples
of q = d / gcd(d, m^2), d the least period of the jumps of +-R that m
does not divide (`_least_period`, criterion and proof in its docstring),
and `_rotate_classes` builds every image.  One builder, `_shift_plan`,
turns the symmetric mask of +-R into the plan of a modulus (fixed bits,
class parts and q): the census in `classify` calls it on masks, and
`theta_image`, `classify.classify_pair` and `classify.circulant_records`
read it through `_probe_plan`, which keeps the plan of the last (set,
modulus).  `circulant_records` takes q from the plan and classifies only
the circulant shifts t = q, 2q, ... of one modulus; `probe_records` (and
through it the `classify` command) and the shift tables of
`report.theta_table_rows` are built from it.  `classify.certify_isomorphism`
builds the images of the same shifts from the plan and looks them up in
the multiplier orbit of its target, without classifying them.
Only the census skips shifts: those whose circulant images are unit
multiples x*R by the unit-shift lemma (`_unit_shift`), which leaves none
to probe at a cube-free order (`_nonunit_steps`).  `tests/suites.py`
checks all of it against the package-free edge-level definition
(`edge_level_image`).
`apply_to_edges`, `jump_shortcut` (exact only for m = 2) and
`shortcut_disagreement` have no caller in the package: they survive only
because the benchmark under `perfbench/` traces them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from typing import Optional

from .graphs import ConnectionSet, EdgeSet
from .modarith import prime_divisors, reduce_set


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

    It is the circulance test.  For m | n, let A = {s in +-R : m does not
    divide s} and d its least period.  The image of C_n(R) under
    theta_{m,t} is circulant iff A is closed under +t*m^2 (mod n), iff q =
    d / gcd(d, m^2) divides t.

    Proof.  theta keeps residues mod m and translates class i by i*t*m, so
    a vertex y in class i has the neighbour offsets D_i = {theta(s) -
    t*m^2*[i + (s mod m) >= m] : s in +-R} in the image.  The image is
    circulant iff D_i = D_0 for every i.  Jumps divisible by m are fixed;
    splitting the others by residue class k != 0 and taking i = m - k
    gives exactly the closure of each class of A under -t*m^2, which for
    a finite set is closure under +t*m^2.  The stabiliser H = {k in Z_n :
    A + k = A} is a subgroup of Z_n: it holds 0, and A + k = A with
    A + k' = A gives A + (k + k') = A and A - k = A.  Every subgroup of
    Z_n is dZ_n for one divisor d of n, the least period, so for a
    divisor e of n, A is closed under +e iff d | e.  The loop starts from
    e = n, which d divides, and divides e by a prime p of n while A stays
    closed under +e/p, that is while d | e/p.  It ends with d | e and d
    not dividing e/p for any prime p of e, so e/d has no prime factor and
    e = d.  Finally, A is closed under +t*m^2 iff t*m^2 mod n lies in
    dZ_n, iff d | t*m^2 (as d | n), iff d / gcd(d, m^2) divides t.
    """
    d = n
    for p in primes:
        while d % p == 0 and _closed_under(n, v, d // p):
            d //= p
    return d


def _unit_shift(n: int, m: int, t: int) -> bool:
    """Whether every circulant image of the shift (m, t), m | n and
    1 <= t < n/m, is a unit multiple x*R of its source, by the lemma:
    h = gcd(t*m^2, n/m) divides t*m or t*m + 2.

    Proof.  Let g = gcd(t*m^2, n), e = 1 if h | t*m and e = -1 otherwise.
    gcd(g, n/m) = h divides 1 + t*m - e, so by the CRT some x in Z_n has
    x = 1 + t*m (mod g) and x = e (mod n/m).  x is a unit: a prime p of n
    divides n/m, where x = +-1 (mod p), or else m and so g, where x = 1
    (mod p).  If the image is circulant, A = {s in +-R : m does not
    divide s} is closed under +t*m^2 (`_least_period`), so under +g.  For
    a = i + m*k in the class A_i of i mod m, x*a - (a + i*t*m) =
    (x - 1 - t*m)*a + t*m^2*k lies in gZ_n, so x*A_i lies in A_i + i*t*m
    = theta(A_i), closed under +g, and fills it, x being injective.  The
    rest F of +-R has m | f, so x*f = e*f (mod n) and xF = eF = F =
    theta(F).  So theta(+-R) = x(+-R).  When n | t*m^2, n/m | t*m and
    h | t*m: theta is then multiplication by x = 1 + t*m.
    """
    h = gcd(t * m * m, n // m)
    return t * m % h == 0 or (t * m + 2) % h == 0


def _nonunit_steps(n: int, m: int) -> tuple[int, ...]:
    """The steps of m | n, largest first: the maximal elements, under
    divisibility, of e(t) = gcd(t, q0)*g0 over the t in [1, n/m - 1] that
    `_unit_shift` leaves free, with g0 = gcd(n, m^2) and q0 = n/g0.

    The moving jumps A = {s in +-R : m does not divide s} are closed under
    one of them iff some free shift (m, t) is circulant; the other shifts
    keep C_n(R) in its multiplier orbit.  The tuple is empty when no t is
    free, as at every cube-free n, where h | t*m for every t: a prime p
    of h not dividing m has v_p(h) <= v_p(t*m^2) = v_p(t*m), and one
    dividing m has v_p(h) <= v_p(n/m) <= 2 - 1 <= v_p(t*m).

    Proof.  Let d be the least period of A.  The circulant t are the
    multiples of q = d / gcd(d, m^2) = lcm(d, g0)/g0 (`_least_period`; as
    d | n, gcd(d, m^2) = gcd(d, g0)), and q | q0.  So q | t iff q divides
    gcd(t, q0), iff lcm(d, g0) | e(t), iff d | e(t), iff A is closed under
    +e(t), as e(t) | n and the stabiliser of A is dZ_n.  Closure under e
    gives closure under every multiple of e, so a maximal e(t) closes A
    when any does.  Each step e has m | e (as m | g0), e | n, and e < n:
    q0 | t would mean n | t*m^2, which the lemma covers.
    """
    g0 = gcd(n, m * m)
    free = {gcd(t, n // g0) * g0 for t in range(1, n // m) if not _unit_shift(n, m, t)}
    return tuple(sorted((e for e in free if all(f == e or f % e for f in free)), reverse=True))


def _rotate_classes(n: int, shift: int, image: int, parts) -> int:
    """The image builder: `image` ORed with every (i, part) of `parts`
    rotated by i*shift (mod n).

    With shift = t*m, `image` the bits of +-R divisible by m and `parts`
    the other residue classes of +-R (`_shift_plan`), this is the mask
    of theta(+-R), theta(s) = s + (s mod m)*t*m; when the probe (m, t) is
    circulant (criterion in `_least_period`) the image graph is C_n of it.

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


def _shift_plan(n: int, primes, m: int, mult: int, a: int) -> tuple[int, list, int]:
    """What every probe (m, t) of a jump set shares, for m | n: (fixed,
    parts, q), from the symmetric mask a of +-R (bit s for each s in +-R).

    `primes` are the prime divisors of n and `mult` the n-bit mask of the
    multiples of m.  fixed holds the bits of a divisible by m, and parts
    the other nonempty residue classes i = 1..m-1 as (i, bits of class i).
    q = d / gcd(d, m^2), with d the least period of the moving jumps
    A = a ^ fixed (d = 1 when A is empty): the probe (m, t) is circulant
    iff q divides t (`_least_period`), and its image is then
    `_rotate_classes(n, t*m, fixed, parts)`.  fixed is empty iff m divides
    no jump, as m | s iff m | n - s.
    """
    fixed = a & mult
    moving = a ^ fixed
    d = _least_period(n, primes, moving)
    parts = [(i, part) for i in range(1, m) if (part := moving & mult << i)]
    return fixed, parts, d // gcd(d, m * m)


@lru_cache(maxsize=1)
def _probe_plan(c: ConnectionSet, m: int) -> tuple[int, int, list, int]:
    """(a, fixed, parts, q) for the probes (m, t) of c, m | n: a is the
    symmetric mask of +-R and the rest its `_shift_plan`.  Only the last
    plan is kept: a scan over the t of one modulus builds it once, and a
    single probe builds one plan and nothing per t.  Callers only read
    the shared parts list.
    """
    n = c.n
    a = sum(1 << r | 1 << (n - r) for r in c.jumps)  # distinct jumps, disjoint bits
    return (a, *_shift_plan(n, prime_divisors(n), m, ((1 << n) - 1) // ((1 << m) - 1), a))


def theta_image(c: ConnectionSet, m: int, t: int) -> ThetaResult:
    """Image of C_n(R) under the residue-shift map, read off the plan of
    (c, m) (`_probe_plan`); like `ThetaMap`, it takes m = n and t = 0."""
    ThetaMap(c.n, m, t)  # validates m and t
    _, fixed, parts, q = _probe_plan(c, m)
    if t % q:
        return ThetaResult(image=None)
    return ThetaResult(image=_image_set(c.n, _rotate_classes(c.n, t * m, fixed, parts)))


def _image_set(n: int, image: int) -> ConnectionSet:
    """C_n(S) for the symmetric mask `image` of +-S (bit s for each s)."""
    return ConnectionSet(n, tuple(_mask_jumps(image >> 1 & ((1 << n // 2) - 1))))


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
