"""Classification of residue-shift probes and exhaustive per-order censuses.

A probe is a triple (R, m, t) with m > 1 dividing gcd(n, r) for some jump r
and 1 <= t <= n/m - 1.  Its outcome is one of:

  not-circulant  the transformed edge set is not a circulant graph;
  self           the image equals the source;
  type1          the image is a unit multiple of the source (witness unit);
  type2          the image is circulant but outside the multiplier orbit.

The census collects the unordered Type-2 pairs of an order.  It probes one
jump set per multiplier orbit, the orbit minimum, and carries every pair
found to all unit multiples; the lemma in `enumerate_type2` proves this
gives the pairs of running every probe on every jump set.  Deduplication
is over pairs of jump sets, not pairs of multiplier orbits: distinct set
pairs spanning the same two orbits count separately.

`certify_isomorphism` turns the two kinds of move into vertex maps, each
checked edge by edge before it is returned; the CI census and the
`verify` command ask the oracle only about pairs that no move joins.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass
from functools import lru_cache
from math import comb, gcd
from time import perf_counter
from typing import Callable, Optional

from .adam import adam_orbit
from .graphs import (
    ConnectionSet,
    build_edges,
    closed_walk_prefix,
    is_isomorphism,
    rooted_refinement_key,
)
from .modarith import divisors_gt1, prime_divisors, reflexive_reduce
from .oracle import DEFAULT_CAP, are_isomorphic
from .theta import (
    ThetaMap,
    _class_parts,
    _least_period,
    _mask_jumps,
    _nonunit_steps,
    _rotate_classes,
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
    pairs: tuple[Pair, ...]
    witnesses: dict[Pair, tuple[Probe, ...]]
    counts: dict[int, int]  # jump-set size -> number of pairs
    oracle_confirmed: Optional[dict[Pair, bool]] = None
    diagnostics: tuple[str, ...] = ()


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


def admissible_m(c: ConnectionSet) -> list[tuple[int, tuple[int, ...]]]:
    """Moduli m > 1 dividing gcd(n, r) for some jump r, with those jumps.

    Empty when every jump is coprime to n, in which case no probe applies.
    """
    by_m: dict[int, list[int]] = {}
    for r in c.jumps:
        for m in divisors_gt1(gcd(c.n, r)):
            by_m.setdefault(m, []).append(r)
    return [(m, tuple(by_m[m])) for m in sorted(by_m)]


def require_admissible_m(c: ConnectionSet, m: int) -> None:
    """Refuse an m that is not > 1 or divides gcd(n, r) for no jump r."""
    if m <= 1 or c.n % m or all(r % m for r in c.jumps):
        raise ValueError(f"m={m} does not divide gcd({c.n}, r) for any jump of {c}")


@lru_cache(maxsize=1)
def _probe_plan(c: ConnectionSet, m: int) -> tuple[int, int, tuple[tuple[int, int], ...], int]:
    """What every probe (m, t) of c shares: (a, fixed, parts, q).

    a is the symmetric mask of +-R (bit s for each s in +-R), fixed its
    bits divisible by m, and parts the other residue classes as
    (i, bits of class i), the class parts of `theta._class_parts` read
    off the jumps, so building them costs O(|R|) mask operations whatever
    m is.  q = d / gcd(d, m^2), with d the least period of the moving
    jumps A = a ^ fixed (`theta._least_period`; d = 1 when A is empty).
    The probe (m, t) is circulant iff q divides t (proof in
    `_least_period`), and its image is then
    `theta._rotate_classes(n, t*m, fixed, parts)` (proof there).

    An m that `require_admissible_m` refuses gets no plan, so a plan in
    the memo is admissible.  Only the last plan is kept: a scan over the
    t of one modulus builds it once, and a single probe builds one plan
    and nothing per t.
    """
    require_admissible_m(c, m)
    n = c.n
    a = fixed = 0
    parts: dict[int, int] = {}
    for r in c.jumps:
        for s in (r, n - r):
            bit = 1 << s
            a |= bit
            if s % m:
                parts[s % m] = parts.get(s % m, 0) | bit
            else:
                fixed |= bit
    moving = a ^ fixed
    d = _least_period(n, prime_divisors(n), moving) if moving else 1
    return a, fixed, tuple(parts.items()), d // gcd(d, m * m)


def classify_pair(c: ConnectionSet, m: int, t: int) -> ClassificationRecord:
    """Classify one probe from R alone through the plan of (c, m)
    (`_probe_plan`): a t that q does not divide is not circulant and no
    image is built; otherwise the image mask is compared with +-R for
    "self" and looked up in the multiplier orbit of c (`adam_orbit`) for
    a Type-1 unit.  A bad m is refused before a bad t, and a bad t before
    any plan is built."""
    n = c.n
    if m <= 1 or not 1 <= t <= n // m - 1:
        require_admissible_m(c, m)
        raise ValueError(f"shift t={t} out of range [1, {n // m - 1}]")
    a, fixed, parts, q = _probe_plan(c, m)
    if t % q:
        return ClassificationRecord(m, t, "not-circulant")
    image = _rotate_classes(n, t * m, fixed, parts)
    if image == a:
        return ClassificationRecord(m, t, "self", image=c)
    s = ConnectionSet(n, tuple(_mask_jumps(image >> 1 & ((1 << n // 2) - 1))))
    unit = adam_orbit(c).witness.get(s)
    if unit is not None:
        return ClassificationRecord(m, t, "type1", image=s, unit=unit)
    return ClassificationRecord(m, t, "type2", image=s)


def certify_isomorphism(a: ConnectionSet, b: ConnectionSet) -> Optional[tuple[int, ...]]:
    """A vertex map phi (phi[v] the image of v) from C_n(a) onto C_n(b)
    that `graphs.is_isomorphism` has accepted, found by one move, or None.

    Two kinds of move are tried, in this order:

      a unit multiplier: a = x*b for a unit x, read off the witnesses of
        the multiplier orbit of b (`adam_orbit`), and phi(v) = x^-1 * v;
      a residue shift, then a unit: for each admissible m of a and each t
        that the plan of (a, m) leaves circulant (the multiples of its q,
        `_probe_plan`), the image mask (`theta._rotate_classes`) is looked
        up among the members of that orbit; if theta_{m,t}(a) = x*b, then
        phi = x^-1 o theta_{m,t} (`theta.ThetaMap.apply`).  The t with
        n | t*m^2 are skipped, and with them every m whose circulant t
        all have that form (q = n / gcd(n, m^2)): such a shift is the unit
        multiplier 1 + t*m (lemma in `theta._nonunit_steps`), so its image
        (1 + t*m)*a is a member of b's orbit only when a is, and then the
        unit-multiplier move has already answered.

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
    x = witness.get(a)
    if x is not None:
        inverse = pow(x, -1, n)
        phi = tuple(inverse * v % n for v in range(n))
        if is_isomorphism(a, b, phi):
            return phi
    units = {sum(1 << r - 1 for r in s.jumps): x for s, x in witness.items()}
    low_half = (1 << n // 2) - 1
    for m, _ in admissible_m(a):
        _, fixed, parts, q = _probe_plan(a, m)
        q0 = n // gcd(n, m * m)
        if q == q0:
            continue  # every circulant shift of m is a unit multiplier
        for t in range(q, n // m, q):
            if t % q0 == 0:
                continue  # a unit multiplier: theta_{m,t}(a) = (1 + t*m)*a
            x = units.get(_rotate_classes(n, t * m, fixed, parts) >> 1 & low_half)
            if x is None:
                continue
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
    """Records of every admissible probe (m, t) of c, in (m, t) order."""
    require_three_jumps(c, allow_small)
    return [classify_pair(c, m, t) for m, _ in admissible_m(c) for t in range(1, c.n // m)]


def type2_partners(
    c: ConnectionSet, allow_small: bool = False
) -> list[tuple[ConnectionSet, int, int]]:
    """All (S, m, t) with a type2 verdict, every witness included, sorted."""
    return _type2_evidence(probe_records(c, allow_small=allow_small))


def _type2_evidence(records) -> list[tuple[ConnectionSet, int, int]]:
    out = [(rec.image, rec.m, rec.t) for rec in records if rec.kind == "type2"]
    out.sort(key=lambda item: (item[0].jumps, item[1], item[2]))
    return out


def ci_theta_status(c: ConnectionSet, allow_small: bool = False) -> CIStatus:
    """non-ci iff some probe lands outside the multiplier orbit.

    This matches the probe-based evidence standard: only residue-shift
    images are examined, not arbitrary isomorphisms.
    """
    return ci_status_of_records(probe_records(c, allow_small=allow_small))


def ci_status_of_records(records) -> CIStatus:
    """The `ci_theta_status` verdict from already computed probe records."""
    partners = _type2_evidence(records)
    if partners:
        return CIStatus(verdict="non-ci", evidence=tuple(partners))
    return CIStatus(verdict="ci-theta")


def _byte_table(h: int, bits: Callable[[int], int]) -> Callable[[int], int]:
    """A jump-mask multiplier for jumps 1..h: maps a byte key c << 8 | b
    (`_byte_keys`) to the OR of bits(r) over the jumps r = 8c + j + 1,
    r <= h, whose bit j is set in the byte b.  When the bits of distinct
    jumps are disjoint, the image of a whole mask is the sum over its byte
    keys."""
    table: list[int] = []
    for start in range(0, h, 8):
        chunk = [0]
        for b in range(1, 256):
            low = b & -b
            r = start + low.bit_length()
            chunk.append(chunk[b ^ low] | (bits(r) if r <= h else 0))
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
    order of masks is the scan order.  A symmetric mask has bit s set for
    each s in +-R, as `theta._shift_mask` reads it.  Both multiply a jump
    mask through byte tables (`_byte_table`), one lookup per byte of the
    mask: `products` holds one per unit x <= n/2 (1 first), mapping the
    jump r to the jump-mask bit of x*r, and `symmetric` maps r to the bits
    of r and n - r.  The images of distinct jumps are distinct bits in
    both (a unit permutes the reflexive jumps), so a sum of lookups is
    their OR.  `moduli` holds, for each m | n with 1 < m <= n/2 whose
    steps `theta._nonunit_steps(n, m)` are not empty, the quadruple (m,
    jump mask of the jumps m divides, n-bit mask of the multiples of m in
    Z_n, steps); a modulus without steps has only unit multipliers among
    its shifts, so it never gives a Type-2 partner and is left out.
    `primes` are the prime divisors of n.
    """
    h = n // 2
    products = tuple(
        _byte_table(h, lambda r, x=x: 1 << (reflexive_reduce(n, x * r) - 1))
        for x in range(1, h + 1)
        if gcd(n, x) == 1
    )
    symmetric = _byte_table(h, lambda r: 1 << r | 1 << (n - r))
    moduli = tuple(
        (m, sum(1 << (r - 1) for r in range(m, h + 1, m)), ((1 << n) - 1) // ((1 << m) - 1), steps)
        for m in divisors_gt1(n)
        if m <= h and (steps := _nonunit_steps(n, m))
    )
    primes = tuple(prime_divisors(n))
    return products, symmetric, moduli, primes


def _orbit_minima(n: int, products, k: int):
    """Yield (v, images, keys) for every multiplier-orbit minimum among the
    jump masks of size k, scanned in integer order from (1 << k) - 1.

    v is a minimum when no unit multiple of it is a smaller mask, a test
    on v alone; `images` lists the unit multiples of v, one per byte table
    of `products` (see `_order_tables`), so it holds the whole orbit, and
    `keys` are the byte keys of v (`_byte_keys`) that multiplied it.
    """
    h = n // 2
    others = products[1:]  # units other than 1
    starts = range(0, h, 8)
    v = (1 << k) - 1
    for _ in range(comb(h, k)):
        keys = [v >> s & 255 | s << 5 for s in starts]  # _byte_keys(v, h), inlined
        images = [v]
        for product in others:
            w = sum(map(product, keys))
            if w < v:
                break
            images.append(w)
        else:
            yield v, images, keys
        low = v & -v  # next mask of the same size (Gosper)
        ripple = v + low
        v = ripple | ((v ^ ripple) >> 2) // low


def _census_part(args) -> dict[tuple[int, int], set[Probe]]:
    """Type-2 pairs of jump masks found from the orbit minima of one jump-set
    size, with their witnesses (picklable worker entry).

    Each minimum R is first tested at every admissible m for a circulant
    shift that is not a unit multiplier: A = {s in +-R : m does not divide
    s} must be closed under one of the steps n/p that `_order_tables`
    holds for m (`theta._nonunit_steps`, whose docstring proves the
    lemma and this test).  A modulus that fails is skipped, since a unit
    multiplier maps R into its own orbit.  A modulus that passes is
    probed only at the t whose image is circulant: the multiples of
    q = d / gcd(d, m^2), d the least period of A (`theta._least_period`,
    whose docstring proves it).  Passing means q < q0 = n / gcd(n, m^2)
    <= n/m, so t = q is always in range and the scan needs no range test.
    Each of those images is built by `theta._rotate_classes`.  A circulant
    image S outside the orbit of R (which holds R, so self images are out
    too) is a Type-2 partner, and (xR, xS) is recorded with the same
    witness for every unit x <= n/2 (x and n - x give the same reduced
    set); both sides are multiplied through the byte tables of
    `_order_tables`.

    When the image S_1 at t = q lies in the orbit, S_1 = xR for a unit x,
    no later t of that m gives a partner, so the scan of m stops.  Proof:
    by the group law theta_{m,jq} = theta_{m,q}^j, so S_{j+1} is the
    image of C_n(S_j) under theta_{m,q}.  If S_j = x^j R, the lemma of
    `enumerate_type2` (units commute with theta) makes that image
    x^j * S_1 = x^(j+1) R, circulant because the probe of R is.  So every
    S_j = x^j R lies in the orbit.
    """
    n, k = args
    products, symmetric, moduli, primes = _order_tables(n)
    h = n // 2
    low_half, full = (1 << h) - 1, (1 << n) - 1
    found: dict[tuple[int, int], set[Probe]] = {}
    for v, images, keys in _orbit_minima(n, products, k):
        orbit = set(images)
        a = sum(map(symmetric, keys))
        partners: dict[int, list[Probe]] = {}
        for m, divisible, mult, steps in moduli:
            if not v & divisible:
                continue
            fixed = a & mult
            moving = a ^ fixed
            for e in steps:  # theta._closed_under(n, moving, e), inlined
                if (moving << e | moving >> (n - e)) & full == moving:
                    break
            else:
                continue  # every circulant shift of m is a unit multiplier
            d = _least_period(n, primes, moving)
            q = d // gcd(d, m * m)
            parts = _class_parts(m, mult, moving)
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
    jobs: int = 1,
) -> PairCensus:
    """Exhaustive Type-2 census over all jump sets with sizes in range.

    Only one set per multiplier orbit is probed (the orbit minimum of the
    scan order), and every pair found is carried to all unit multiples
    with the same witnesses.  Each jump-set size is one task: a pool of
    min(jobs, number of sizes) worker processes takes the sizes one at a
    time, and when that is 1 the sizes run in turn in this process.
    Deterministic: pairs are sorted lexicographically and witnesses merged
    across both discovery directions, independent of job count.

    Lemma.  For a unit x and any probe (m, t), theta_{m,t} maps C_n(R)
    onto a circulant C_n(S) iff it maps C_n(xR) onto a circulant, and that
    circulant is C_n(xS).  Proof: gcd(x, m) = 1 because m | n, so x
    permutes the residue classes mod m and fixes class 0; if A is the part
    of +-R outside class 0, then xA is that part of +-xR.  A finite set is
    closed under +k iff it is a union of cosets of <gcd(k, n)>, and
    gcd(x^-1*t*m^2, n) = gcd(t*m^2, n), so xA is closed under +t*m^2 iff
    A is, and the two images are circulant together (criterion of
    `theta._shift_mask`).  Let A_i be the class-i part of A, closed under
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
    """
    if n < 4:
        raise ValueError(f"census needs n >= 4, got {n}")
    if size_max is None:
        size_max = n // 2
    if size_min < 3 and not allow_small:
        raise ValueError("size_min below 3 requires allow_small")
    if not 1 <= size_min <= size_max <= n // 2:
        raise ValueError(f"bad size range [{size_min}, {size_max}] for order {n}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")

    tasks = [(n, k) for k in range(size_min, size_max + 1)]
    workers = min(jobs, len(tasks))
    if workers > 1:
        import multiprocessing

        with multiprocessing.Pool(workers) as pool:
            found = pool.map(_census_part, tasks, chunksize=1)
    else:
        found = map(_census_part, tasks)

    merged: dict[tuple[int, int], set[Probe]] = {}
    for part in found:
        for key, probes in part.items():
            merged.setdefault(key, set()).update(probes)
    witnesses: dict[Pair, tuple[Probe, ...]] = {}
    for masks, probes in merged.items():
        left, right = sorted(ConnectionSet(n, tuple(_mask_jumps(v))) for v in masks)
        witnesses[(left, right)] = tuple(sorted(probes))
    pairs = tuple(sorted(witnesses, key=lambda p: (p[0].jumps, p[1].jumps)))
    counts: dict[int, int] = {}
    for left, _ in pairs:
        counts[len(left.jumps)] = counts.get(len(left.jumps), 0) + 1
    return PairCensus(
        n=n,
        size_min=size_min,
        size_max=size_max,
        pairs=pairs,
        witnesses={p: witnesses[p] for p in pairs},
        counts=counts,
    )


def confirm_with_oracle(census: PairCensus, cap: int = DEFAULT_CAP) -> PairCensus:
    """Attach an independent isomorphism verdict to every census pair."""
    confirmed = {
        pair: are_isomorphic(build_edges(pair[0]), build_edges(pair[1]), cap=cap)
        for pair in census.pairs
    }
    census.oracle_confirmed = confirmed
    return census


def _split_buckets(groups, key: Callable) -> list[list[ConnectionSet]]:
    """Split every group of two or more by the hash of `key`, keeping the
    parts of two or more; `key` runs on no member of a smaller group."""
    parts: list[list[ConnectionSet]] = []
    for group in groups:
        if len(group) < 2:
            continue
        by_key: dict[int, list[ConnectionSet]] = {}
        for rep in group:
            by_key.setdefault(hash(key(rep)), []).append(rep)
        parts.extend(part for part in by_key.values() if len(part) > 1)
    return parts


def ci_full_census(
    n: int,
    size: int,
    expected_ci: Optional[dict[tuple[int, ...], bool]] = None,
    oracle_cap: int = DEFAULT_CAP,
) -> list[OrbitVerdict]:
    """Oracle-backed CI census of all size-`size` jump sets of order n.

    Groups the sets into multiplier orbits and buckets the orbit
    representatives in three stages: by their number of components,
    gcd(n, r_1, ..., r_k); then, within every group of two or more, by
    the hash of their closed-walk prefix (`graphs.closed_walk_prefix`);
    then, within every remaining group of two or more, by the hash of
    their rooted refinement key (`graphs.rooted_refinement_key`), so the
    bucket tables hold one integer per key.  Every two orbit
    representatives of a final bucket go first to `certify_isomorphism`,
    which joins them by a unit multiplier or a residue shift and a unit
    when such a move exists; the oracle decides only the pairs that no
    move joins, and only their edge sets are built.  An orbit is CI
    exactly when no other orbit is isomorphic to it.  When a mapping of
    expected verdicts (jump tuple -> True for CI) is supplied,
    disagreements are reported on the verdict rows as anomalies -- never
    raised.  Orders below 2 and sizes outside [1, n/2] are refused.  One
    DEBUG record on the `circiso.classify` logger gives the orbit count,
    the walk and rooted keys computed, the final bucket sizes, the pairs
    certified by a move, the oracle calls, the isomorphic pairs and the
    elapsed time.  The census never imports `logging`: a program that has
    not imported it cannot have enabled DEBUG, so the record is then
    skipped.

    Isomorphic circulants share all three keys, so the buckets separate
    no isomorphic pair of orbits and the verdicts are those of comparing
    every pair.  Proof: an isomorphism is a bijection on vertices and
    edges, so it carries components onto components.  The walk prefix
    and the rooted key are invariant by the proofs in their docstrings:
    an isomorphism may be taken to fix 0, since rotations are
    automorphisms, and then it carries closed walks at 0 onto closed
    walks at 0 and each round's colours onto equal colours.  Equal keys
    have equal hashes, so keying by the hash splits no isomorphic pair
    either; a collision only merges two buckets, and every pair in it is
    still decided.  Within a bucket, a pair gets the verdict that comparing
    it alone would give: a map returned by `certify_isomorphism` has
    passed the edge check of `graphs.is_isomorphism`, whose proof shows it
    is an isomorphism whatever move proposed it, so "isomorphic" is then
    proven; a pair without such a map goes to the oracle, which answers
    both ways.  So "non-isomorphic" comes only from the proven keys or the
    oracle, and the oracle never relies on the residue-shift theory.

    The first two stages only spare rooted keys, which cost several times
    a walk prefix: at size 1 the component count tells every orbit apart,
    so no key is computed, and most orbits that share a component count
    differ in their first walk counts.  Neither splits anything the
    rooted key leaves together.  The rooted key refines the closed-walk
    counts W_k = (A^k)_00 at every length k (proof in its docstring), so
    also the prefix.  In a circulant W_k = tr(A^k)/n, as rotations carry
    0 to every vertex; the traces for k = 1..n fix the spectrum (Newton's
    identities), and in a regular graph of degree W_2 the number of
    components is the multiplicity of the eigenvalue W_2.  Up to hash
    collisions, the final buckets are therefore those of the rooted key
    alone.  The keys only prune: isospectral circulants need not be
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
    products = _order_tables(n)[0]
    # jump tuples sort in C; ConnectionSet order is (n, jumps) order, the same here
    orbit_jumps = sorted(
        sorted(tuple(_mask_jumps(w)) for w in set(images))
        for _, images, _ in _orbit_minima(n, products, size)
    )
    orbits = [tuple(ConnectionSet(n, jumps) for jumps in members) for members in orbit_jumps]
    reps = [members[0] for members in orbits]

    by_components: dict[int, list[ConnectionSet]] = {}
    for rep in reps:
        by_components.setdefault(gcd(n, *rep.jumps), []).append(rep)
    by_walks = _split_buckets(by_components.values(), closed_walk_prefix)
    buckets = _split_buckets(by_walks, rooted_refinement_key)
    iso_partners: dict[ConnectionSet, list[ConnectionSet]] = {rep: [] for rep in reps}
    certified = oracle_calls = isomorphic_pairs = 0
    for bucket in buckets:
        edges: dict = {}  # built only for the pairs the oracle decides
        for a, b in itertools.combinations(bucket, 2):
            if certify_isomorphism(a, b) is not None:
                certified += 1
            else:
                oracle_calls += 1
                for rep in (a, b):
                    if rep not in edges:
                        edges[rep] = build_edges(rep)
                if not are_isomorphic(edges[a], edges[b], cap=oracle_cap):
                    continue
            isomorphic_pairs += 1
            iso_partners[a].append(b)
            iso_partners[b].append(a)
    logging = sys.modules.get("logging")  # only a program that imported it can enable DEBUG
    if logging is not None:
        logging.getLogger(__name__).debug(
            "ci census n=%(n)d size=%(size)d: %(orbits)d orbits, %(walk_keys)d walk keys, "
            "%(rooted_keys)d rooted keys, buckets %(buckets)s, %(certified)d certified pairs, "
            "%(oracle_calls)d oracle calls, "
            "%(isomorphic_pairs)d isomorphic pairs, %(elapsed_s).3f s",
            {
                "n": n,
                "size": size,
                "orbits": len(reps),
                "walk_keys": sum(len(group) for group in by_components.values() if len(group) > 1),
                "rooted_keys": sum(len(group) for group in by_walks),
                "buckets": [len(bucket) for bucket in buckets],
                "certified": certified,
                "oracle_calls": oracle_calls,
                "isomorphic_pairs": isomorphic_pairs,
                "elapsed_s": perf_counter() - start,
            },
        )

    verdicts = []
    for rep, members in zip(reps, orbits):
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
