"""Exhaustive property suites shared by test_properties and the acceptance
module.  Each function returns a list of violation strings; empty means the
property holds over its whole stated range.
"""

from __future__ import annotations

import itertools
from math import gcd

from circiso import (
    ConnectionSet,
    ThetaMap,
    adam_orbit,
    cycle_structure,
    enumerate_type2,
)
from circiso.theta import jump_shortcut, theta_image


# Package-free reference helpers.  They use the standard library only and
# call nothing from circiso, so they can check the package's answers
# against the definitions directly.  Jump sets are plain sorted tuples.


def reflexive_jump(n: int, v: int) -> int:
    """Reflexive reduction of v mod n: the representative in [0, n/2]."""
    w = v % n
    return min(w, n - w)


def circulant_edge_set(n: int, jumps) -> frozenset:
    """Edge set of C_n(jumps) as a set of unordered vertex pairs."""
    return frozenset(frozenset({x, (x + r) % n}) for r in jumps for x in range(n))


def theta_edge_image(n: int, m: int, t: int, edges) -> frozenset:
    """Image of an edge set under x -> x + (x mod m)*t*m (mod n)."""
    perm = [(x + (x % m) * t * m) % n for x in range(n)]
    return frozenset(frozenset(perm[v] for v in edge) for edge in edges)


def edge_level_image(n: int, m: int, t: int, jumps):
    """Jumps of the circulant that the shifted edge set of C_n(jumps) forms,
    read off the neighbours of vertex 0, or None when it is not circulant."""
    image = theta_edge_image(n, m, t, circulant_edge_set(n, jumps))
    zero_nbrs = {v for edge in image if 0 in edge for v in edge if v != 0}
    candidate = tuple(sorted({reflexive_jump(n, v) for v in zero_nbrs}))
    return candidate if circulant_edge_set(n, candidate) == image else None


def brute_unit_orbit(n: int, jumps) -> set[tuple[int, ...]]:
    """All reflexive unit multiples x*jumps, x ranging over Z_n^*."""
    return {
        tuple(sorted({reflexive_jump(n, x * r) for r in jumps}))
        for x in range(1, n)
        if gcd(x, n) == 1
    }


def type2_pair_violations(n: int, left, right, probes) -> list[str]:
    """Check a claimed Type-2 pair from the definition alone, with the
    helpers above: every probe (m, t) must have m dividing gcd(n, r) for a
    jump r of the side it maps from, and must carry that side's edge set
    onto the other side's edge set; and right must lie outside the unit
    orbit of left."""
    bad = []
    if not probes:
        bad.append("no witness probe")
    edges = {left: circulant_edge_set(n, left), right: circulant_edge_set(n, right)}
    for m, t in probes:
        if not any(
            any(gcd(n, r) % m == 0 for r in source)
            and theta_edge_image(n, m, t, edges[source]) == edges[target]
            for source, target in ((left, right), (right, left))
        ):
            bad.append(f"(m={m}, t={t}) maps neither side onto the other")
    if right in brute_unit_orbit(n, left):
        bad.append("the sides are unit multiples of each other")
    return bad


def theta_group_law(max_n: int = 48) -> list[str]:
    """Composing shifts t1 and t2 equals the shift (t1 + t2) mod n/m, for
    every n <= max_n and every m dividing n."""
    bad = []
    for n in range(2, max_n + 1):
        for m in range(2, n + 1):
            if n % m:
                continue
            q = n // m
            perms = [ThetaMap(n, m, t).perm() for t in range(q)]
            for t1 in range(q):
                p1 = perms[t1]
                for t2 in range(q):
                    p2 = perms[t2]
                    composed = tuple(p1[p2[x]] for x in range(n))
                    if composed != perms[(t1 + t2) % q]:
                        bad.append(f"composition fails at n={n}, m={m}, t1={t1}, t2={t2}")
            # iterating the t=1 generator n/m times must return to the identity
            walk = list(range(n))
            step = perms[1] if q > 1 else perms[0]
            for _ in range(q):
                walk = [step[x] for x in walk]
            if walk != list(range(n)):
                bad.append(f"iterate order fails at n={n}, m={m}")
    return bad


def cycle_structure_vs_trace(max_n: int = 40) -> list[str]:
    """Jump-r cycle counts and lengths must agree with explicitly traced
    orbits of the rotation x -> x + r, for all n <= max_n and all jumps."""
    bad = []
    for n in range(2, max_n + 1):
        for r in range(1, n // 2 + 1):
            seen = set()
            cycles = []
            for start in range(n):
                if start in seen:
                    continue
                cycle = []
                x = start
                while x not in seen:
                    seen.add(x)
                    cycle.append(x)
                    x = (x + r) % n
                cycles.append(cycle)
            cs = cycle_structure(n, r)
            if len(cycles) != cs.count or any(len(c) != cs.length for c in cycles):
                bad.append(f"trace mismatch at n={n}, r={r}")
    return bad


def shortcut_agrees_with_edges(orders=(16, 24), max_size: int = 4) -> list[str]:
    """Elementwise shortcut and edge-level image agree for m = 2, every t,
    every jump set of size <= max_size at the given orders."""
    bad = []
    for n in orders:
        for size in range(1, max_size + 1):
            for combo in itertools.combinations(range(1, n // 2 + 1), size):
                c = ConnectionSet(n, combo)
                for t in range(1, n // 2):
                    fast = jump_shortcut(c, 2, t).image
                    if (fast.jumps if fast else None) != edge_level_image(n, 2, t, combo):
                        bad.append(f"shortcut disagrees at n={n}, R={combo}, t={t}")
    return bad


def residue_kernel_agrees_with_edges(max_n: int = 20) -> list[str]:
    """theta_image equals the edge-level image for every n <= max_n, every
    jump set, every m > 1 dividing n and every t in [0, n/m - 1]."""
    bad = []
    for n in range(2, max_n + 1):
        moduli = [m for m in range(2, n + 1) if n % m == 0]
        for size in range(1, n // 2 + 1):
            for combo in itertools.combinations(range(1, n // 2 + 1), size):
                c = ConnectionSet(n, combo)
                for m in moduli:
                    for t in range(n // m):
                        image = theta_image(c, m, t).image
                        if (image.jumps if image else None) != edge_level_image(n, m, t, combo):
                            bad.append(f"kernel disagrees at n={n}, R={combo}, m={m}, t={t}")
    return bad


def units_commute_with_theta(max_n: int = 20) -> list[str]:
    """theta_image(xR, m, t) is x*theta_image(R, m, t), and None exactly
    when the other side is None, for every n <= max_n, every jump set R,
    every m | n with 1 < m < n, every t in [1, n/m - 1] and every unit
    1 < x <= n/2 (81,972 checks at max_n = 20).  Unit multiples are taken
    with the package-free `reflexive_jump`."""

    def times(n, x, jumps):
        return tuple(sorted({reflexive_jump(n, x * r) for r in jumps}))

    bad = []
    for n in range(2, max_n + 1):
        probes = [(m, t) for m in range(2, n) if n % m == 0 for t in range(1, n // m)]
        units = [x for x in range(2, n // 2 + 1) if gcd(x, n) == 1]
        for size in range(1, n // 2 + 1):
            for combo in itertools.combinations(range(1, n // 2 + 1), size):
                images = {p: theta_image(ConnectionSet(n, combo), *p).image for p in probes}
                for x in units:
                    scaled = ConnectionSet(n, times(n, x, combo))
                    for (m, t), image in images.items():
                        got = theta_image(scaled, m, t).image
                        want = None if image is None else times(n, x, image.jumps)
                        if (got.jumps if got else None) != want:
                            bad.append(f"x={x} does not commute at n={n}, R={combo}, m={m}, t={t}")
    return bad


def orbit_symmetry(orders=(16, 24)) -> list[str]:
    """Orbit membership is symmetric over every pair of triples."""
    bad = []
    for n in orders:
        triples = [
            ConnectionSet(n, combo)
            for combo in itertools.combinations(range(1, n // 2 + 1), 3)
        ]
        membership = {c: set(adam_orbit(c).members) for c in triples}
        for a in triples:
            for b in triples:
                if (b in membership[a]) != (a in membership[b]):
                    bad.append(f"orbit membership asymmetric: {a} vs {b}")
    return bad


def jump2_triple_necessity(orders=(16, 24, 32, 40)) -> list[str]:
    """Census triples of the form {2, odd, odd} occur only at orders
    divisible by 8, with the odd jumps summing to n/2, neither equal to
    n/8, and a shift witness at n/8 or 3n/8."""
    bad = []
    for n in orders:
        census = enumerate_type2(n, 3, 3)
        for left, right in census.pairs:
            for member in (left, right):
                jumps = member.jumps
                if 2 not in jumps:
                    continue
                odds = [j for j in jumps if j % 2 == 1]
                if len(odds) != 2:
                    continue
                a, b = odds
                if n % 8 != 0:
                    bad.append(f"{member}: order not divisible by 8")
                if a + b != n // 2:
                    bad.append(f"{member}: odd jumps do not sum to n/2")
                if n // 8 in (a, b):
                    bad.append(f"{member}: odd jump equals n/8")
                t_witnesses = {
                    t for m, t in census.witnesses[(left, right)] if m == 2
                }
                if not t_witnesses & {n // 8, 3 * n // 8}:
                    bad.append(f"{member}: no shift witness at n/8 or 3n/8")
    return bad
