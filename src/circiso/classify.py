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
from dataclasses import dataclass
from math import gcd
from typing import Optional

from .adam import adam_orbit
from .graphs import ConnectionSet, build_edges, gcd_signature
from .modarith import divisors_gt1
from .oracle import DEFAULT_CAP, are_isomorphic
from .theta import theta_image

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


def classify_pair(c: ConnectionSet, m: int, t: int) -> ClassificationRecord:
    """Classify one probe; `theta_image` decides circulance from R alone."""
    if m <= 1 or c.n % m or all(r % m for r in c.jumps):
        raise ValueError(f"m={m} does not divide gcd({c.n}, r) for any jump of {c}")
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


def probe_records(c: ConnectionSet, allow_small: bool = False) -> list[ClassificationRecord]:
    """Records of every admissible probe (m, t) of c, in (m, t) order."""
    if len(c.jumps) < 3 and not allow_small:
        raise ValueError(f"{c} has fewer than 3 jumps (pass allow_small to probe anyway)")
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


def _connection_sets(n: int, size: int):
    for combo in itertools.combinations(range(1, n // 2 + 1), size):
        yield ConnectionSet(n, combo)


def _census_rows(n: int, sizes) -> list:
    """Serial census kernel: (pair, m, t) discoveries."""
    rows = []
    for size in sizes:
        for c in _connection_sets(n, size):
            for rec in probe_records(c, allow_small=True):
                if rec.kind != "type2":
                    continue
                pair = (c, rec.image) if c < rec.image else (rec.image, c)
                rows.append((pair, rec.m, rec.t))
    return rows


def _census_chunk(args) -> list:
    """Worker entry point for --jobs > 1 (must stay picklable)."""
    n, size = args
    return _census_rows(n, [size])


def enumerate_type2(
    n: int,
    size_min: int = 3,
    size_max: Optional[int] = None,
    allow_small: bool = False,
    jobs: int = 1,
) -> PairCensus:
    """Exhaustive Type-2 census over all jump sets with sizes in range.

    Deterministic: pairs are sorted lexicographically and witnesses merged
    across both discovery directions, independent of job count.
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

    sizes = list(range(size_min, size_max + 1))
    if jobs > 1:
        import multiprocessing

        with multiprocessing.Pool(jobs) as pool:
            chunks = pool.map(_census_chunk, [(n, size) for size in sizes])
        rows = [row for chunk in chunks for row in chunk]
    else:
        rows = _census_rows(n, sizes)

    witnesses: dict[Pair, set[Probe]] = {}
    for pair, m, t in rows:
        witnesses.setdefault(pair, set()).add((m, t))
    pairs = tuple(sorted(witnesses, key=lambda p: (p[0].jumps, p[1].jumps)))
    counts: dict[int, int] = {}
    for left, _ in pairs:
        counts[len(left.jumps)] = counts.get(len(left.jumps), 0) + 1
    return PairCensus(
        n=n,
        size_min=size_min,
        size_max=size_max,
        pairs=pairs,
        witnesses={p: tuple(sorted(witnesses[p])) for p in pairs},
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


def ci_full_census(
    n: int,
    size: int,
    expected_ci: Optional[dict[tuple[int, ...], bool]] = None,
    oracle_cap: int = DEFAULT_CAP,
) -> list[OrbitVerdict]:
    """Oracle-backed CI census of all size-`size` jump sets of order n.

    Groups the sets into multiplier orbits, buckets the orbits by gcd
    signature and lets the oracle decide isomorphism between every two
    orbits of a bucket.  The signature is only a bucketing key: no proof
    is on record that isomorphic circulants share it, but the test suite
    checks it against the oracle on every pair of orbits of each size at
    every order n <= 18.  An orbit is CI exactly when no other orbit is
    isomorphic to it.  When a mapping of expected verdicts (jump tuple ->
    True for CI) is supplied, disagreements are reported on the verdict
    rows as anomalies -- never raised.
    """
    if n > oracle_cap:
        raise ValueError(f"order {n} exceeds the oracle cap {oracle_cap}")
    orbits: dict[ConnectionSet, list[ConnectionSet]] = {}
    for c in _connection_sets(n, size):
        rep = adam_orbit(c).canonical()
        orbits.setdefault(rep, []).append(c)

    reps = sorted(orbits)
    edges = {rep: build_edges(rep) for rep in reps}
    buckets: dict[tuple[int, ...], list[ConnectionSet]] = {}
    for rep in reps:
        buckets.setdefault(gcd_signature(rep), []).append(rep)
    iso_partners: dict[ConnectionSet, list[ConnectionSet]] = {rep: [] for rep in reps}
    for bucket in buckets.values():
        for a, b in itertools.combinations(bucket, 2):
            if are_isomorphic(edges[a], edges[b], cap=oracle_cap):
                iso_partners[a].append(b)
                iso_partners[b].append(a)

    verdicts = []
    for rep in reps:
        members = tuple(sorted(orbits[rep]))
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
