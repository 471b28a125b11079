"""Classification of residue-shift probes and exhaustive per-order censuses.

A probe is a triple (R, m, t) with m > 1 dividing gcd(n, r) for some jump r
and 1 <= t <= n/m - 1.  Its outcome is one of:

  not-circulant  the transformed edge set is not a circulant graph;
  self           the image equals the source;
  type1          the image is a unit multiple of the source (witness unit);
  type2          the image is circulant but outside the multiplier orbit.

The census runs every probe for every jump set of an order and collects the
unordered Type-2 pairs.  Deduplication is over pairs of jump sets, not pairs
of multiplier orbits: distinct set pairs spanning the same two orbits count
separately.
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
from .graphs import ConnectionSet, build_edges, rooted_refinement_key
from .modarith import divisors_gt1, reflexive_reduce
from .oracle import DEFAULT_CAP, are_isomorphic
from .theta import _mask_jumps, _shift_mask, theta_image

Probe = tuple[int, int]  # (m, t)
Pair = tuple[ConnectionSet, ConnectionSet]  # lexicographically ordered


@dataclass(frozen=True)
class ClassificationRecord:
    """Verdict for one (R, m, t) probe."""

    source: ConnectionSet
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

    graph: ConnectionSet
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


def classify_pair(c: ConnectionSet, m: int, t: int) -> ClassificationRecord:
    """Classify one probe; `theta_image` decides circulance from R alone."""
    require_admissible_m(c, m)
    if not 1 <= t <= c.n // m - 1:
        raise ValueError(f"shift t={t} out of range [1, {c.n // m - 1}]")
    s = theta_image(c, m, t).image
    if s is None:
        return ClassificationRecord(c, m, t, "not-circulant")
    if s == c:
        return ClassificationRecord(c, m, t, "self", image=s)
    orbit = adam_orbit(c)
    if s in orbit.witness:
        return ClassificationRecord(c, m, t, "type1", image=s, unit=orbit.witness[s])
    return ClassificationRecord(c, m, t, "type2", image=s)


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
    return ci_status_of_records(c, probe_records(c, allow_small=allow_small))


def ci_status_of_records(c: ConnectionSet, records) -> CIStatus:
    """The `ci_theta_status` verdict from already computed probe records."""
    partners = _type2_evidence(records)
    if partners:
        return CIStatus(graph=c, verdict="non-ci", evidence=tuple(partners))
    return CIStatus(graph=c, verdict="ci-theta")


@lru_cache(maxsize=8)
def _order_tables(n: int) -> tuple[tuple, Callable[[int], int], tuple[tuple[int, int], ...]]:
    """Lookup tables of the mask census for order n: (products, symmetric,
    moduli).

    A jump mask has bit r - 1 set for each jump r in [1, n/2]; the integer
    order of masks is the scan order.  A symmetric mask has bit s set for
    each s in +-R, as `theta._shift_mask` reads it.  `products` maps jump
    r to the jump-mask bit of x*r, one map per unit x <= n/2 (1 first);
    `symmetric` maps jump r to the bits of r and n - r; `moduli` pairs
    each m | n with 1 < m <= n/2 with the mask of the jumps m divides.
    """
    h = n // 2
    products = tuple(
        ([0] + [1 << (reflexive_reduce(n, x * r) - 1) for r in range(1, h + 1)]).__getitem__
        for x in range(1, h + 1)
        if gcd(n, x) == 1
    )
    symmetric = ([0] + [1 << r | 1 << (n - r) for r in range(1, h + 1)]).__getitem__
    moduli = tuple(
        (m, sum(1 << (r - 1) for r in range(m, h + 1, m))) for m in divisors_gt1(n) if m <= h
    )
    return products, symmetric, moduli


def _unrank(k: int, rank: int) -> int:
    """The k-bit mask with the given rank among all k-bit masks in integer
    order (the combinatorial number system: rank = sum of C(c_i, i) over
    its bit positions c_1 < ... < c_k)."""
    v = 0
    for i in range(k, 0, -1):
        c = i - 1
        while comb(c + 1, i) <= rank:
            c += 1
        v |= 1 << c
        rank -= comb(c, i)
    return v


def _orbit_minima(n: int, products, sizes, start: int, stop: int):
    """Yield (v, images, jumps) for every multiplier-orbit minimum among
    positions [start, stop) of the scan order: all jump masks with a size
    in `sizes`, size by size, each size in integer order.

    v is a minimum when no unit multiple of it is a smaller mask, a test
    on v alone; `images` lists the unit multiples of v, one per entry of
    `products` (see `_order_tables`), so it holds the whole orbit.
    """
    h = n // 2
    others = products[1:]  # units other than 1
    offset = 0
    for k in sizes:
        count = comb(h, k)
        lo, hi = max(start - offset, 0), min(stop - offset, count)
        offset += count
        if lo >= hi:
            continue
        v = _unrank(k, lo)
        for _ in range(hi - lo):
            jumps = _mask_jumps(v)
            images = [v]
            for product in others:
                w = sum(map(product, jumps))  # unit images of distinct jumps are distinct bits
                if w < v:
                    break
                images.append(w)
            else:
                yield v, images, jumps
            low = v & -v  # next mask of the same size (Gosper)
            ripple = v + low
            v = ripple | ((v ^ ripple) >> 2) // low


def _census_part(args) -> dict[tuple[int, int], set[Probe]]:
    """Type-2 pairs of jump masks found from the orbit minima in one range
    of the scan order, with their witnesses (picklable worker entry).

    Each minimum R is probed once per admissible (m, t); a circulant image
    S outside the orbit of R (which holds R, so self images are out too) is
    a Type-2 partner, and (xR, xS) is recorded with the same witness for
    every unit x <= n/2 (x and n - x give the same reduced set).
    """
    n, sizes, start, stop = args
    products, symmetric, moduli = _order_tables(n)
    low_half = (1 << n // 2) - 1
    found: dict[tuple[int, int], set[Probe]] = {}
    for v, images, jumps in _orbit_minima(n, products, sizes, start, stop):
        orbit = set(images)
        a = sum(map(symmetric, jumps))
        partners: dict[int, list[Probe]] = {}
        for m, divisible in moduli:
            if not v & divisible:
                continue
            for t in range(1, n // m):
                image = _shift_mask(n, m, t, a)
                if image is None:
                    continue
                w = image >> 1 & low_half
                if w not in orbit:
                    partners.setdefault(w, []).append((m, t))
        for w, probes in partners.items():
            partner_jumps = _mask_jumps(w)
            for vx, product in zip(images, products):
                wx = sum(map(product, partner_jumps))
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
    with the same witnesses.  `jobs` splits the scan into contiguous
    ranges of equal set count; one job scans the whole range.
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

    sizes = range(size_min, size_max + 1)
    total = sum(comb(n // 2, k) for k in sizes)
    bounds = [total * j // jobs for j in range(jobs + 1)]
    parts = [(n, sizes, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    if jobs > 1:
        import multiprocessing

        with multiprocessing.Pool(jobs) as pool:
            found = pool.map(_census_part, parts)
    else:
        found = [_census_part(parts[0])]

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
    representatives in two stages: by their number of components,
    gcd(n, r_1, ..., r_k); then, within every group of two or more, by
    the hash of their rooted refinement key
    (`graphs.rooted_refinement_key`), so the bucket table holds one
    integer per key rather than every round's signatures.  The
    oracle decides isomorphism between every two orbits of a final
    bucket, whose edge sets alone are built.  An orbit is CI exactly when
    no other orbit is isomorphic to it.  When a mapping of expected
    verdicts (jump tuple -> True for CI) is supplied, disagreements are
    reported on the verdict rows as anomalies -- never raised.  Orders
    below 2 and sizes outside [1, n/2] are refused.  One DEBUG record on
    the `circiso.classify` logger gives the orbit count, the rooted keys
    computed, the final bucket sizes, the oracle calls, the isomorphic
    pairs and the elapsed time.  The census never imports `logging`: a
    program that has not imported it cannot have enabled DEBUG, so the
    record is then skipped.

    Isomorphic circulants share both keys, so the buckets separate no
    isomorphic pair of orbits and the verdicts are those of comparing
    every pair.  Proof: an isomorphism is a bijection on vertices and
    edges, so it carries components onto components.  The rooted key is
    invariant by the proof in its docstring: an isomorphism may be taken
    to fix 0, since rotations are automorphisms, and then it carries each
    round's colours onto equal colours.  Equal keys have equal hashes, so
    keying by the hash splits no isomorphic pair either; a collision only
    merges two buckets, and the oracle still decides every pair in it.

    The component count only spares keys: at size 1 it tells every orbit
    apart, so no key is computed.  It splits nothing the rooted key leaves
    together.  The rooted key refines the closed-walk counts
    W_k = (A^k)_00, k = 1..n, of the adjacency matrix A (proof in its
    docstring).  In a circulant W_k = tr(A^k)/n, as rotations carry 0 to
    every vertex; the traces fix the spectrum (Newton's identities), and
    in a regular graph of degree W_2 the number of components is the
    multiplicity of the eigenvalue W_2.  The final buckets are therefore
    those of the rooted key alone.  The key only prunes:
    isospectral circulants need not be isomorphic (Elspas and Turner,
    J. Combin. Theory 1970), and the oracle still decides every pair
    that shares a final bucket.
    """
    if n < 2:
        raise ValueError(f"order must be >= 2, got {n}")
    if not 1 <= size <= n // 2:
        raise ValueError(f"size {size} out of range [1, {n // 2}] for order {n}")
    if n > oracle_cap:
        raise ValueError(f"order {n} exceeds the oracle cap {oracle_cap}")
    start = perf_counter()
    orbits: dict[ConnectionSet, list[ConnectionSet]] = {}
    products = _order_tables(n)[0]
    for _, images, _ in _orbit_minima(n, products, (size,), 0, comb(n // 2, size)):
        members = sorted(ConnectionSet(n, tuple(_mask_jumps(w))) for w in set(images))
        orbits[members[0]] = members

    reps = sorted(orbits)
    by_components: dict[int, list[ConnectionSet]] = {}
    for rep in reps:
        by_components.setdefault(gcd(n, *rep.jumps), []).append(rep)
    buckets = _split_buckets(by_components.values(), rooted_refinement_key)
    iso_partners: dict[ConnectionSet, list[ConnectionSet]] = {rep: [] for rep in reps}
    oracle_calls = isomorphic_pairs = 0
    for bucket in buckets:
        edges = {rep: build_edges(rep) for rep in bucket}
        for a, b in itertools.combinations(bucket, 2):
            oracle_calls += 1
            if are_isomorphic(edges[a], edges[b], cap=oracle_cap):
                isomorphic_pairs += 1
                iso_partners[a].append(b)
                iso_partners[b].append(a)
    logging = sys.modules.get("logging")  # only a program that imported it can enable DEBUG
    if logging is not None:
        logging.getLogger(__name__).debug(
            "ci census n=%(n)d size=%(size)d: %(orbits)d orbits, %(rooted_keys)d rooted keys, "
            "buckets %(buckets)s, %(oracle_calls)d oracle calls, "
            "%(isomorphic_pairs)d isomorphic pairs, %(elapsed_s).3f s",
            {
                "n": n,
                "size": size,
                "orbits": len(reps),
                "rooted_keys": sum(
                    len(group) for group in by_components.values() if len(group) > 1
                ),
                "buckets": [len(bucket) for bucket in buckets],
                "oracle_calls": oracle_calls,
                "isomorphic_pairs": isomorphic_pairs,
                "elapsed_s": perf_counter() - start,
            },
        )

    verdicts = []
    for rep in reps:
        members = tuple(orbits[rep])
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
