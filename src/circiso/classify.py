"""Classification of residue-shift probes and exhaustive per-order censuses.

A probe is a triple (R, m, t) with m > 1 dividing gcd(n, r) for some jump r
and 1 <= t <= n/m - 1.  Its outcome is one of:

  not-circulant  the transformed edge set is not a circulant graph;
  self           the image equals the source;
  type1          the image is a unit multiple of the source (witness unit);
  type2          the image is circulant but outside the multiplier orbit.

The census collects the unordered Type-2 pairs of an order.  It does not
scan every jump set: it generates only the sets whose moving jumps are
closed under a step of some modulus (`_step_candidates`), since no other
set has a partner, probes one generated set per multiplier orbit, the
orbit minimum (`_orbit_minima`), and carries every pair found to all unit
multiples; the lemma in `enumerate_type2` proves this gives the pairs of
running every probe on every jump set.  Deduplication is over pairs of
jump sets, not pairs of multiplier orbits: distinct set pairs spanning
the same two orbits count separately.  Complementing a jump set in
{1..n//2} complements its graph, so both censuses compute only the sizes
k <= n//2 - k and mirror the rest (duality lemma in `enumerate_type2`).

`certify_isomorphism` turns the two kinds of move, a residue shift (the
identity among them) followed by a unit multiplier, into vertex maps,
each checked edge by edge before it is returned; the CI census and the
`verify` command ask the oracle only about pairs that no move joins.
"""

from __future__ import annotations

import itertools
import sys
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import comb, gcd
from time import perf_counter
from typing import Callable, Optional

from .adam import adam_orbit
from .graphs import (
    ConnectionSet,
    build_edges,
    is_isomorphism,
    refinement_rounds,
    walk_counts,
)
from .modarith import divisors_gt1, prime_divisors, reflexive_reduce
from .oracle import DEFAULT_CAP, are_isomorphic
from .theta import (
    ThetaMap,
    _image_set,
    _mask_jumps,
    _nonunit_steps,
    _probe_plan,
    _rotate_classes,
    _shift_plan,
)
from .theta import theta_image  # noqa: F401  (perfbench's tracer wraps `classify.theta_image`)

Probe = tuple[int, int]  # (m, t)
Pair = tuple[ConnectionSet, ConnectionSet]  # lexicographically ordered


@dataclass(frozen=True)
class ClassificationRecord:
    """Verdict for one (R, m, t) probe."""

    m: int
    t: int
    kind: str  # 'not-circulant' | 'self' | 'type1' | 'type2'
    image: Optional[ConnectionSet] = None
    unit: Optional[int] = None  # type1 witness: image = unit * source


@dataclass
class PairCensus:
    """All Type-2 pairs of one order, with probe witnesses per pair."""

    n: int
    size_min: int
    size_max: int
    witnesses: dict[Pair, tuple[Probe, ...]]  # in pair order
    oracle_confirmed: Optional[dict[Pair, bool]] = None

    @property
    def pairs(self) -> tuple[Pair, ...]:
        return tuple(self.witnesses)

    @property
    def counts(self) -> dict[int, int]:
        """Jump-set size -> number of pairs."""
        return dict(Counter(len(left.jumps) for left, _ in self.witnesses))


@dataclass(frozen=True)
class CIStatus:
    """Whether every probe image of a graph stays in its multiplier orbit."""

    verdict: str  # 'ci-theta' | 'non-ci'
    evidence: tuple[tuple[ConnectionSet, int, int], ...] = ()


@dataclass(frozen=True)
class OrbitVerdict:
    """Full-census CI verdict for one multiplier orbit."""

    orbit_members: tuple[ConnectionSet, ...]
    ci: bool
    isomorphic_to: tuple[ConnectionSet, ...]  # canonical reps of other orbits
    anomaly: Optional[str] = None


def admissible_m(c: ConnectionSet) -> list[int]:
    """Moduli m > 1 dividing gcd(n, r) for some jump r, ascending.

    Empty when every jump is coprime to n, in which case no probe applies.
    """
    return sorted({m for r in c.jumps for m in divisors_gt1(gcd(c.n, r))})


def require_admissible_m(c: ConnectionSet, m: int) -> None:
    """Refuse an m that is not > 1 or divides gcd(n, r) for no jump r."""
    if m <= 1 or c.n % m or all(r % m for r in c.jumps):
        raise ValueError(f"m={m} does not divide gcd({c.n}, r) for any jump of {c}")


def classify_pair(c: ConnectionSet, m: int, t: int) -> ClassificationRecord:
    """Classify one probe from R alone through the plan of (c, m)
    (`theta._probe_plan`): a t that q does not divide is not circulant
    and no image is built; otherwise the image mask is compared with +-R
    for "self" and looked up in the multiplier orbit of c (`adam_orbit`)
    for a Type-1 unit.  A bad m is refused before a bad t; for m | n, the
    plan's fixed bits tell whether m divides a jump."""
    n = c.n
    if m <= 1 or n % m:
        require_admissible_m(c, m)  # refuses
    a, fixed, parts, q = _probe_plan(c, m)
    if not fixed:
        require_admissible_m(c, m)  # refuses: m divides no jump
    if not 1 <= t <= n // m - 1:
        raise ValueError(f"shift t={t} out of range [1, {n // m - 1}]")
    if t % q:
        return ClassificationRecord(m, t, "not-circulant")
    image = _rotate_classes(n, t * m, fixed, parts)
    if image == a:
        return ClassificationRecord(m, t, "self", image=c)
    s = _image_set(n, image)
    unit = adam_orbit(c).witness.get(s)
    if unit is not None:
        return ClassificationRecord(m, t, "type1", image=s, unit=unit)
    return ClassificationRecord(m, t, "type2", image=s)


def certify_isomorphism(a: ConnectionSet, b: ConnectionSet) -> Optional[tuple[int, ...]]:
    """A vertex map phi (phi[v] the image of v) from C_n(a) onto C_n(b)
    that `graphs.is_isomorphism` has accepted, found by one move, or None.

    The moves are residue shifts theta_{m,t} (`theta.ThetaMap.apply`),
    in this order: the identity theta_{n,0}, whose image is a, then for
    each m of `admissible_m(a)` the circulant shifts t = q, 2q, ... < n/m
    of the plan of (a, m) (`theta._probe_plan`).  Each image is looked up
    in the multiplier orbit of b (`adam_orbit`); on a hit x*b the map is
    phi = x^-1 o theta_{m,t}.  Only the orbit of b is built.

    The theory only proposes a map: multiplying by x^-1 carries C_n(x*b)
    onto C_n(b), and theta_{m,t} carries C_n(a) onto the circulant of its
    image (proof in `theta._rotate_classes`).  A map is returned only
    after the edge check of `is_isomorphism`, whose proof uses none of it,
    so a returned map proves a and b isomorphic.  None proves nothing: the
    two may still be isomorphic by a map no move gives, and only the
    oracle or a proven invariant can say "no".  Sets of different sizes
    get None; orders that differ are refused.
    """
    n = a.n
    if b.n != n:
        raise ValueError(f"order mismatch: {n} vs {b.n}")
    if len(a.jumps) != len(b.jumps):
        return None
    witness = adam_orbit(b).witness
    shifts = (
        (_image_set(n, _rotate_classes(n, t * m, fixed, parts)), m, t)
        for m in admissible_m(a)
        for _, fixed, parts, q in (_probe_plan(a, m),)
        for t in range(q, n // m, q)
    )
    for image, m, t in itertools.chain([(a, n, 0)], shifts):
        if (x := witness.get(image)) is not None:
            inverse, theta = pow(x, -1, n), ThetaMap(n, m, t).apply
            phi = tuple(inverse * theta(v) % n for v in range(n))
            if is_isomorphism(a, b, phi):
                return phi
    return None


def require_three_jumps(c: ConnectionSet, allow_small: bool = False) -> None:
    """Refuse a set of fewer than 3 jumps unless allow_small is given."""
    if len(c.jumps) < 3 and not allow_small:
        raise ValueError(f"{c} has fewer than 3 jumps (pass allow_small to probe anyway)")


def probe_records(c: ConnectionSet, allow_small: bool = False) -> list[ClassificationRecord]:
    """Records of every circulant probe (m, t) of c, in (m, t) order: the
    `circulant_records` of each admissible m."""
    require_three_jumps(c, allow_small)
    records = []
    for m in admissible_m(c):
        records += circulant_records(c, m)
    return records


def circulant_records(c: ConnectionSet, m: int) -> list[ClassificationRecord]:
    """The `classify_pair` records of the circulant probes (m, t) of c,
    ascending in t, for an admissible m (one of `admissible_m(c)`): the
    multiples t = q, 2q, ... < n/m of the q of the plan of (c, m)
    (`theta._probe_plan`).  `classify_pair` answers not-circulant
    exactly when q does not divide t, so only those probes are left
    out."""
    q = _probe_plan(c, m)[3]
    return [classify_pair(c, m, t) for t in range(q, c.n // m, q)]


def type2_partners(
    c: ConnectionSet, allow_small: bool = False
) -> list[tuple[ConnectionSet, int, int]]:
    """All (S, m, t) with a type2 verdict, every witness included, sorted."""
    return list(ci_status_of_records(probe_records(c, allow_small=allow_small)).evidence)


def ci_theta_status(c: ConnectionSet, allow_small: bool = False) -> CIStatus:
    """non-ci iff some probe lands outside the multiplier orbit.

    This matches the probe-based evidence standard: only residue-shift
    images are examined, not arbitrary isomorphisms.
    """
    return ci_status_of_records(probe_records(c, allow_small=allow_small))


def ci_status_of_records(records) -> CIStatus:
    """The `ci_theta_status` verdict from already computed probe records."""
    partners = tuple(sorted((rec.image, rec.m, rec.t) for rec in records if rec.kind == "type2"))
    if partners:
        return CIStatus(verdict="non-ci", evidence=partners)
    return CIStatus(verdict="ci-theta")


def _byte_table(h: int, bits: Callable[[int], int]) -> Callable[[int], int]:
    """A jump-mask multiplier for jumps 1..h: maps a byte key c << 8 | b
    (`_byte_keys`) to the OR of bits(r) over the jumps r = 8c + j + 1,
    r <= h, whose bit j is set in the byte b.  When the bits of distinct
    jumps are disjoint, the image of a whole mask is the sum over its byte
    keys.  A chunk doubles once per bit j: entry i + 2^j (i < 2^j) is
    entry i with bits(8c + j + 1) added, so the bytes i and i + 2^j differ
    by exactly that one jump."""
    table: list[int] = []
    for start in range(0, h, 8):
        chunk = [0]
        for r in range(start + 1, start + 9):
            bit = bits(r) if r <= h else 0
            chunk += [c | bit for c in chunk]
        table += chunk
    return table.__getitem__


def _byte_keys(v: int, h: int) -> list[int]:
    """The byte keys c << 8 | (byte c of v) of a jump mask v of h bits."""
    return [v >> s & 255 | s << 5 for s in range(0, h, 8)]


@lru_cache(maxsize=8)
def _order_tables(n: int) -> tuple[tuple, Callable[[int], int], tuple, tuple[int, ...]]:
    """Lookup tables of the mask census for order n: (products, symmetric,
    moduli, primes).

    A jump mask has bit r - 1 set for each jump r in [1, n/2]; the integer
    order of masks is the order in which `_orbit_minima` takes them.  A
    symmetric mask has bit s set for each s in +-R, as `theta._probe_plan`
    builds it.  Both multiply a jump mask through byte tables
    (`_byte_table`), one lookup per byte of the mask: `products` holds one
    per unit x <= n/2 (1 first), mapping the jump r to the jump-mask bit
    of x*r, and `symmetric` maps r to the bits of r and n - r.  The images
    of distinct jumps are distinct bits in both (a unit permutes the
    reflexive jumps), so a sum of lookups is their OR.  `moduli` are
    those of `_order_moduli`, and `primes` the prime divisors of n.
    """
    h = n // 2
    products = tuple(
        _byte_table(h, lambda r, x=x: 1 << (reflexive_reduce(n, x * r) - 1))
        for x in range(1, h + 1)
        if gcd(n, x) == 1
    )
    symmetric = _byte_table(h, lambda r: 1 << r | 1 << (n - r))
    return products, symmetric, _order_moduli(n), tuple(prime_divisors(n))


@lru_cache(maxsize=8)
def _order_moduli(n: int) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """For each m | n with 1 < m <= n/2 whose steps (`theta._nonunit_steps`)
    are not empty, the triple (m, n-bit mask of the multiples of m in Z_n,
    steps).  A modulus without steps has only unit multiples among its
    circulant images, so it never gives a Type-2 partner and is left out;
    at a cube-free n every modulus is.  The tags of `_step_candidates`
    index these moduli."""
    return tuple(
        (m, ((1 << n) - 1) // ((1 << m) - 1), steps)
        for m in divisors_gt1(n)
        if m <= n // 2 and (steps := _nonunit_steps(n, m))
    )


def _masks_of_size(h: int, k: int):
    """Every jump mask of h bits with k bits set, ascending (Gosper's hack)."""
    v = (1 << k) - 1
    for _ in range(comb(h, k)):
        yield v
        low = v & -v
        ripple = v + low
        v = ripple | ((v ^ ripple) >> 2) // low


def _candidate_tables(n: int, moduli, size_max: int) -> list[tuple[int, list, list]]:
    """What `_step_candidates` builds every size up to size_max from: for
    the i-th modulus (m, mult, steps) of `moduli` (`_order_tables`),
    (1 << i, fsets, unions).  fsets[j] lists the sets F of j jumps that m
    divides; unions[x][j] the unions of j jumps of the classes of the x-th
    step e, for j <= size_max only.  The class of a jump r that m does not
    divide holds the jumps r' = +-r (mod e), the reductions of
    (r + <e>) u (-r + <e>).
    """
    h = n // 2
    tables = []
    for i, (m, _, steps) in enumerate(moduli):
        multiples = [1 << (r - 1) for r in range(m, h + 1, m)]
        fsets = [
            list(map(sum, itertools.combinations(multiples, j)))
            for j in range(min(len(multiples), size_max) + 1)
        ]
        unions = []
        for e in steps:
            classes: dict[int, int] = {}
            for r in range(1, h + 1):
                if r % m:
                    key = min(r % e, -r % e)
                    classes[key] = classes.get(key, 0) | 1 << (r - 1)
            by_size = [[0]] + [[] for _ in range(size_max)]  # by_size[j]: the unions of j jumps
            for c in classes.values():
                b = c.bit_count()
                for j in range(size_max - b, -1, -1):
                    by_size[j + b] += [u | c for u in by_size[j]]
            unions.append(by_size)
        tables.append((1 << i, fsets, unions))
    return tables


def _step_candidates(tables, k: int) -> dict[int, int]:
    """The jump masks of size k that pass the step test at some modulus m
    of `_order_tables` (m divides a jump, and the moving jumps are closed
    under a step e of m), each mapped to its tag, the bits 1 << i of the
    moduli it passes at: the only sets of size k that can have a Type-2
    partner.  For each m and e of `tables` (`_candidate_tables`, built up
    to a size of k at least), they are the masks F | M, F a nonempty set
    of jumps that m divides and M a union of classes of e.

    Proof.  A step e of m is a multiple of m that divides n and is below
    n (`theta._nonunit_steps`).  A coset of <e> therefore stays in one
    residue class mod m, and the classes partition the jumps that m does
    not divide.  The
    moving jumps A = {s in +-R : m does not divide s} are symmetric, and A
    is closed under +e iff it is a union of cosets of <e>, iff it is a
    union of classes.  So a mask is generated under (m, e) iff m divides a
    jump (F is not empty) and A is a union of classes of e, iff it passes
    the test at (m, e): its tag is exactly the set of moduli it passes.
    A mask that passes at no modulus has no partner (lemma in
    `theta._nonunit_steps`).

    The candidates are closed under units, with their tags, which
    `_orbit_minima` needs.  A unit x is prime to m, so m | x*r iff m | r,
    and x maps A onto xA, the moving jumps of xR, closed under +x*e.
    <x*e> = <e>, so xA is closed under +e too: xR is a candidate of the
    same (m, e).
    """
    tags: dict[int, int] = {}
    for bit, fsets, unions in tables:
        masks: set[int] = set()
        for by_size in unions:
            for j in range(max(0, k - len(fsets) + 1), k):  # |F| = k - j >= 1
                low, high = sorted((by_size[j], fsets[k - j]), key=len)
                for u in low:
                    masks.update(map(u.__or__, high))
        for v in masks:
            tags[v] = tags.get(v, 0) | bit
    return tags


def _orbit_minima(n: int, products, masks):
    """Yield (v, images, keys) for every multiplier-orbit minimum of
    `masks`, an ascending stream of jump masks that holds every unit
    multiple of each of its masks.

    `images` lists the unit multiples of v, one per byte table of
    `products` (see `_order_tables`), so it holds the whole orbit, and
    `keys` are the byte keys of v (`_byte_keys`) that multiplied it.  A
    mask is skipped when it is an image of an earlier minimum, and every
    other mask is a minimum.  Proof: the stream holds the whole orbit of
    each of its masks and is ascending, so the minimum of an orbit comes
    before every other member; it is no image of an earlier minimum, whose
    orbit is another.  Every later member is one of its images.  An image
    is dropped from the pending set when the stream reaches it, so the set
    holds only images still ahead.
    """
    h = n // 2
    others = products[1:]  # units other than 1
    starts = range(0, h, 8)
    pending: set[int] = set()
    for v in masks:
        if v in pending:
            pending.remove(v)
            continue
        keys = [v >> s & 255 | s << 5 for s in starts]  # _byte_keys(v, h), inlined
        images = [v]
        images += [sum(map(product, keys)) for product in others]
        pending.update(images)
        pending.discard(v)
        yield v, images, keys


def _census_part(n: int, candidates: dict[int, int]) -> dict[tuple[int, int], set[Probe]]:
    """Type-2 pairs of jump masks found from the orbit minima of one size's
    tagged step candidates (`_step_candidates`), with their witnesses.

    Each minimum R is probed at the moduli of its tag: those m that divide a
    jump and leave A = {s in +-R : m does not divide s} closed under a step
    of m; at no other m is a circulant shift free of the unit-shift lemma
    (`theta._nonunit_steps`), and a unit multiple of R lies in its own
    orbit.  A tagged modulus is probed only at the t whose image is
    circulant, read off its plan (`theta._shift_plan`): the multiples of
    q = d / gcd(d, m^2), d the least period of A (`theta._least_period`,
    whose docstring proves it).  Passing means q divides a free t < n/m, so
    t = q is always in range and the scan needs no range test.  Each of
    those images is built by `theta._rotate_classes`.  A circulant image S
    outside the orbit of R (which holds R, so self images are out too) is a
    Type-2 partner, and (xR, xS) is recorded with the same witness for every
    unit x <= n/2 (x and n - x give the same reduced set); both sides are
    multiplied through the byte tables of `_order_tables`.

    When the image S_1 at t = q lies in the orbit, S_1 = xR for a unit x,
    no later t of that m gives a partner, so the scan of m stops.  Proof:
    by the group law theta_{m,jq} = theta_{m,q}^j, so S_{j+1} is the
    image of C_n(S_j) under theta_{m,q}.  If S_j = x^j R, the lemma of
    `enumerate_type2` (units commute with theta) makes that image
    x^j * S_1 = x^(j+1) R, circulant because the probe of R is.  So every
    S_j = x^j R lies in the orbit.
    """
    products, symmetric, moduli, primes = _order_tables(n)
    h = n // 2
    low_half = (1 << h) - 1
    found: dict[tuple[int, int], set[Probe]] = {}
    for v, images, keys in _orbit_minima(n, products, sorted(candidates)):
        orbit = set(images)
        a = sum(map(symmetric, keys))
        tag = candidates[v]
        partners: dict[int, list[Probe]] = {}
        for i, (m, mult, _) in enumerate(moduli):
            if not tag >> i & 1:
                continue
            fixed, parts, q = _shift_plan(n, primes, m, mult, a)
            for t in range(q, n // m, q):
                w = _rotate_classes(n, t * m, fixed, parts) >> 1 & low_half
                if w not in orbit:
                    partners.setdefault(w, []).append((m, t))
                elif t == q:
                    break  # then every image of this m is in the orbit
        for w, probes in partners.items():
            partner_keys = _byte_keys(w, h)
            for vx, product in zip(images, products):
                wx = sum(map(product, partner_keys))
                found.setdefault((vx, wx) if vx < wx else (wx, vx), set()).update(probes)
    return found


def enumerate_type2(
    n: int,
    size_min: int = 3,
    size_max: Optional[int] = None,
    allow_small: bool = False,
) -> PairCensus:
    """Exhaustive Type-2 census over all jump sets with sizes in range.

    Only the sets that can have a partner are generated, size by size in
    this process from tables built once per call, each tagged with the
    moduli to probe (`_step_candidates`, whose docstring proves that no
    other set has a partner), and only one of them per multiplier orbit
    is probed, its minimum (`_orbit_minima`); every pair found is carried
    to all unit multiples with the same witnesses.  Only the sizes
    k <= h - k, h = n // 2, are probed: a size k > h - k in range is the
    mirror of the size h - k, probed even when it lies below size_min
    (size 0 has no pair), and its pairs are the complements of that
    size's pairs with the same witnesses (duality lemma below): both
    jump masks XOR-ed with (1 << h) - 1.  The probed sizes run in turn in
    this process, each generated, probed and turned into rows before the
    next.  Deterministic: pairs are sorted lexicographically and witnesses
    merged across both discovery directions.

    Lemma.  For a unit x and any probe (m, t), theta_{m,t} maps C_n(R)
    onto a circulant C_n(S) iff it maps C_n(xR) onto a circulant, and that
    circulant is C_n(xS).  Proof: gcd(x, m) = 1 because m | n, so x
    permutes the residue classes mod m and fixes class 0; if A is the part
    of +-R outside class 0, then xA is that part of +-xR.  A finite set is
    closed under +k iff it is a union of cosets of <gcd(k, n)>, and
    gcd(x^-1*t*m^2, n) = gcd(t*m^2, n), so xA is closed under +t*m^2 iff
    A is, and the two images are circulant together (criterion in
    `theta._least_period`).  Let A_i be the class-i part of A, closed under
    +-t*m^2, so theta(A_i) = A_i + i*t*m is too.  xA_i lies in class j
    with x*i = j + k*m, so x*theta(A_i) = xA_i + j*t*m + k*t*m^2 =
    theta(xA_i) + k*t*m^2 = theta(xA_i), the last step by closure.  Jumps
    in class 0 are fixed on both sides, hence theta(x(+-R)) = x*theta(+-R):
    units commute with theta up to translation by multiples of t*m^2,
    which fixes these images.  Admissibility (m divides some jump) is
    unit-invariant since gcd(x, m) = 1; S = R iff xS = xR; and S lies in
    the orbit of R iff xS lies in the orbit of xR, the same orbit.  So
    every probe of xR has the outcome of the same probe of R carried by
    x, and the census -- its pairs and their witness sets -- is the
    expansion by units of the pairs found from one set per orbit.

    Duality lemma.  Let Rc = {1..h} minus R, of size h - |R|.  (R, S) is
    a Type-2 pair with witness (m, t) iff (Rc, Sc) is, so complementing
    both sides maps the pairs of size h - k onto those of size k and keeps
    every witness set.  Proof, in two steps.
    (a) +-Rc is Z_n minus ({0} u +-R), so C_n(Rc) is the complement of
    C_n(R) in the complete graph.  A vertex bijection permutes the edges
    of the complete graph, so one that carries C_n(R) onto C_n(S) carries
    C_n(Rc) onto C_n(Sc).  theta_{m,t} is such a bijection, and so is a
    unit x: x(+-Rc) is the complement of x(+-R), so xRc = (xR)c, and Sc
    lies in the orbit of Rc iff S lies in the orbit of R.  The range of t
    depends on n and m alone.
    (b) Admissibility: m divides a jump of Rc too.  Suppose instead that
    +-R holds every nonzero multiple of m and theta_{m,t}(R) is circulant.
    Then A, the part of +-R that m does not divide, is closed under
    +t*m^2 (criterion in `theta._least_period`), so under g =
    gcd(t*m^2, n).  m divides g, so each class part A_i = {a in A :
    a = i mod m} is a union of cosets of <g>.  Every prime of g divides
    t*m, so 1 + t*m is prime to g and lifts to a unit x of Z_n with
    x = 1 + t*m (mod g).  For a in A_i, x*a = a + i*t*m + t*m*(a - i) +
    (x - 1 - t*m)*a, and the last two terms lie in <g>; so x*A_i lies in
    A_i + i*t*m = theta(A_i), and fills it, x being injective.  The fixed
    part of +-R is every nonzero multiple of m, which theta fixes and x
    (prime to m) permutes, so theta(+-R) = x(+-R): the image is the unit
    multiple xR, never a Type-2 partner.  So a Type-2 probe (m, t) of R
    leaves out some nonzero multiple of m, whose reduction, still a
    multiple of m, is a jump of Rc.  With (a), the probe (m, t) of Rc is
    admissible and gives Sc outside the orbit of Rc; the converse is the
    same statement for Rc, as (Rc)c = R.
    """
    if n < 4:
        raise ValueError(f"census needs n >= 4, got {n}")
    if size_max is None:
        size_max = n // 2
    if size_min < 3 and not allow_small:
        raise ValueError("size_min below 3 requires allow_small")
    if not 1 <= size_min <= size_max <= n // 2:
        raise ValueError(f"bad size range [{size_min}, {size_max}] for order {n}")

    moduli = _order_moduli(n)
    if not moduli:  # no set has a partner, as at every cube-free n
        return PairCensus(n=n, size_min=size_min, size_max=size_max, witnesses={})
    h = n // 2
    # each size k > h - k is the mirror of the size h - k; size 0 has no pair
    sizes = sorted({min(k, h - k) for k in range(size_min, size_max + 1)} - {0})
    tables = _candidate_tables(n, moduli, max(sizes, default=0))

    # Both sides of a pair have its part's size, so parts share no pair.
    # Jump tuples sort in C, in the order of the ConnectionSets they name.
    rows = []
    for k in sizes:
        part = _census_part(n, _step_candidates(tables, k))
        flips = [0] if size_min <= k else []
        if k < h - k <= size_max:
            flips.append((1 << h) - 1)
        for masks, probes in part.items():
            probes = tuple(sorted(probes))
            for flip in flips:
                left, right = sorted(tuple(_mask_jumps(v ^ flip)) for v in masks)
                rows.append((left, right, probes))
    rows.sort()
    witnesses = {
        (ConnectionSet(n, left), ConnectionSet(n, right)): probes for left, right, probes in rows
    }
    return PairCensus(n=n, size_min=size_min, size_max=size_max, witnesses=witnesses)


def confirm_with_oracle(census: PairCensus, cap: int = DEFAULT_CAP) -> PairCensus:
    """Attach an independent isomorphism verdict to every census pair."""
    confirmed = {
        pair: are_isomorphic(build_edges(pair[0]), build_edges(pair[1]), cap=cap)
        for pair in census.witnesses
    }
    census.oracle_confirmed = confirmed
    return census


def _split_lazily(groups, steps: Callable) -> tuple[list[list[ConnectionSet]], int]:
    """Split every group of two or more by the values that `steps(member)`
    yields, and return the final buckets with the number of values taken.

    Each step advances every member of a tied part by one value (None once
    exhausted) and splits the part by that exact value; a member left
    alone goes no further, and a part exhausted together is a final
    bucket.  So two members share a final bucket iff their whole sequences
    are equal.  Members keep their group order within a bucket.
    """
    buckets: list[list[ConnectionSet]] = []
    taken = 0
    tied = [[(rep, steps(rep)) for rep in group] for group in groups if len(group) > 1]
    while tied:
        by_value: dict = {}
        for member in tied.pop():
            by_value.setdefault(next(member[1], None), []).append(member)
        for value, members in by_value.items():
            if value is None:
                if len(members) > 1:
                    buckets.append([rep for rep, _ in members])
            else:
                taken += len(members)
                if len(members) > 1:
                    tied.append(members)
    return buckets, taken


def ci_full_census(
    n: int,
    size: int,
    expected_ci: Optional[dict[tuple[int, ...], bool]] = None,
    oracle_cap: int = DEFAULT_CAP,
) -> list[OrbitVerdict]:
    """Oracle-backed CI census of all size-`size` jump sets of order n.

    Groups the sets into multiplier orbits and buckets the orbit
    representatives in three stages: by their number of components,
    gcd(n, r_1, ..., r_k); then, within every group of two or more, by their
    closed-walk counts W_1..W_8 (`graphs.walk_counts`); then, within every
    remaining group of two or more, by their rounds of rooted colour
    refinement (`graphs.refinement_rounds`).  `_split_lazily` runs the
    last two stages one count or round at a time and stops each orbit as
    soon as it is alone.  Every two orbit representatives of a final
    bucket go first to `certify_isomorphism`, which joins them by a unit
    multiplier or a residue shift and a unit when such a move exists; the
    oracle decides only the pairs that no move joins, and only their edge
    sets are built.  An orbit is CI exactly when no other orbit is
    isomorphic to it.  When a mapping of expected verdicts (jump tuple ->
    True for CI) is supplied, disagreements are reported on the verdict
    rows as anomalies -- never raised.  Orders below 2 and sizes outside
    [1, n/2] are refused.  With h = n // 2, a size with 0 < h - size <
    size is mirrored: the census scans the masks of size h - size and
    decodes each orbit member from its mask XOR-ed with (1 << h) - 1, its
    complement in {1..h}, as `enumerate_type2` does.  One DEBUG record on
    the `circiso.classify` logger gives the size mirrored from (None when
    the census is not mirrored), the orbit count, the orbits that took
    walk steps and refinement rounds (final sizes included) and how many
    they took, the final bucket sizes, the pairs certified by a move, the
    oracle calls, the isomorphic pairs and the elapsed time.  The census
    never imports `logging`: a program that has not imported it cannot
    have enabled DEBUG, so the record is then skipped.

    Isomorphic circulants share all three invariants, so the buckets
    separate no isomorphic pair of orbits and the verdicts are those of
    comparing every pair.  Proof: an isomorphism is a bijection on
    vertices and edges, so it carries components onto components.  The
    walk counts and the refinement rounds are invariant by the proofs in
    their docstrings: an isomorphism may be taken to fix 0, since
    rotations are automorphisms, and then it carries closed walks at 0
    onto closed walks at 0 and each round's colours onto equal colours.
    `_split_lazily` puts two orbits in one final bucket iff their whole
    sequences are equal, as it splits by exact values, never hashes, so
    isomorphic orbits stay together through every step.  Within a
    bucket, a pair gets the verdict that comparing it alone would give: a
    map returned by `certify_isomorphism` has passed the edge check of
    `graphs.is_isomorphism`, whose proof shows it is an isomorphism
    whatever move proposed it, so "isomorphic" is then proven; a pair
    without such a map goes to the oracle, which answers both ways.  So
    "non-isomorphic" comes only from the proven invariants or the oracle,
    and the oracle never relies on the residue-shift theory.

    The mirror gives the verdicts of the size asked for, by step (a) of
    the duality lemma in `enumerate_type2`: complementing in {1..h} is a
    bijection from the jump sets of size h - size onto those of size
    `size`.  It carries unit orbits onto unit orbits (xRc = (xR)c), and a
    vertex bijection is an isomorphism from C_n(R) onto C_n(S) iff it is
    one from C_n(Rc) onto C_n(Sc), the complement graphs.  So two orbits
    are isomorphic iff their complements are, and every verdict carries
    over.  Step (b) is not needed: no residue-shift probe is involved.
    Mirrored, the stages run on the orbit minima of size h - size, not on
    first members; either gives the same verdicts, as the invariants are
    orbit invariants and certification is unit-invariant by the lemma in
    `enumerate_type2`.

    The first two stages only spare refinement rounds, which cost several
    times a walk step: at size 1 the component count tells every orbit
    apart, so no step is taken, and most orbits that share a component
    count differ in their first walk counts.  Neither splits anything the
    refinement leaves together.  The refinement rounds refine the closed-walk
    counts W_k = (A^k)_00 at every length k (proof in its docstring), so
    also the first eight.  In a circulant W_k = tr(A^k)/n, as rotations
    carry 0 to every vertex; the traces for k = 1..n fix the spectrum
    (Newton's identities), and in a regular graph of degree W_2 the
    number of components is the multiplicity of the eigenvalue W_2.  The
    final buckets are therefore those of the refinement rounds alone.
    The invariants only prune: isospectral circulants need not be
    isomorphic (Elspas and Turner, J. Combin. Theory 1970), and every
    pair that shares a final bucket is still decided by a checked map or
    the oracle.
    """
    if n < 2:
        raise ValueError(f"order must be >= 2, got {n}")
    if not 1 <= size <= n // 2:
        raise ValueError(f"size {size} out of range [1, {n // 2}] for order {n}")
    if n > oracle_cap:
        raise ValueError(f"order {n} exceeds the oracle cap {oracle_cap}")
    start = perf_counter()
    h = n // 2
    flip = (1 << h) - 1 if 0 < h - size < size else 0
    source = h - size if flip else size
    products = _order_tables(n)[0]
    # jump tuples sort in C; ConnectionSet order is (n, jumps) order, the same here
    orbit_jumps = sorted(
        (sorted(tuple(_mask_jumps(w ^ flip)) for w in set(images)), v)
        for v, images, _ in _orbit_minima(n, products, _masks_of_size(h, source))
    )
    orbits = [tuple(ConnectionSet(n, jumps) for jumps in members) for members, _ in orbit_jumps]
    # stage representative -> the first member, which names its orbit in the rows
    first = {
        ConnectionSet(n, tuple(_mask_jumps(v))) if flip else members[0]: members[0]
        for (_, v), members in zip(orbit_jumps, orbits)
    }

    by_components: dict[int, list[ConnectionSet]] = {}
    for rep in first:
        by_components.setdefault(gcd(n, *rep.jumps), []).append(rep)
    by_walks, walk_steps = _split_lazily(by_components.values(), walk_counts)
    buckets, rounds = _split_lazily(by_walks, refinement_rounds)
    iso_partners: dict[ConnectionSet, list[ConnectionSet]] = {rep: [] for rep in first}
    certified = oracle_calls = isomorphic_pairs = 0
    for bucket in buckets:
        for a, b in itertools.combinations(bucket, 2):
            if certify_isomorphism(a, b) is not None:
                certified += 1
            else:
                oracle_calls += 1
                if not are_isomorphic(build_edges(a), build_edges(b), cap=oracle_cap):
                    continue
            isomorphic_pairs += 1
            iso_partners[a].append(first[b])
            iso_partners[b].append(first[a])
    logging = sys.modules.get("logging")  # only a program that imported it can enable DEBUG
    if logging is not None:
        logging.getLogger(__name__).debug(
            "ci census n=%(n)d size=%(size)d mirrored_from=%(mirrored_from)s: "
            "%(orbits)d orbits, %(walk_keys)d walk keys (%(walk_steps)d steps), "
            "%(rooted_keys)d rooted keys (%(rounds)d rounds), buckets %(buckets)s, "
            "%(certified)d certified pairs, %(oracle_calls)d oracle calls, "
            "%(isomorphic_pairs)d isomorphic pairs, %(elapsed_s).3f s",
            {
                "n": n,
                "size": size,
                "mirrored_from": source if flip else None,
                "orbits": len(orbits),
                "walk_keys": sum(len(group) for group in by_components.values() if len(group) > 1),
                "walk_steps": walk_steps,
                "rooted_keys": sum(len(group) for group in by_walks),
                "rounds": rounds,
                "buckets": [len(bucket) for bucket in buckets],
                "certified": certified,
                "oracle_calls": oracle_calls,
                "isomorphic_pairs": isomorphic_pairs,
                "elapsed_s": perf_counter() - start,
            },
        )

    verdicts = []
    for rep, members in zip(first, orbits):
        ci = not iso_partners[rep]
        anomaly = None
        if expected_ci is not None:
            mismatched = [
                member
                for member in members
                if member.jumps in expected_ci and expected_ci[member.jumps] != ci
            ]
            if mismatched:
                claims = "CI" if expected_ci[mismatched[0].jumps] else "non-CI"
                found = "CI" if ci else "non-CI"
                anomaly = (
                    f"{', '.join(str(m) for m in mismatched)}: expected {claims}, "
                    f"census found {found}"
                )
        verdicts.append(
            OrbitVerdict(
                orbit_members=members,
                ci=ci,
                isomorphic_to=tuple(sorted(iso_partners[rep])),
                anomaly=anomaly,
            )
        )
    return verdicts
