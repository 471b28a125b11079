"""Exhaustive property suites shared by test_properties and the acceptance
module.  Each function returns a list of violation strings; empty means the
property holds over its whole stated range.
"""

from __future__ import annotations

import itertools
import random
from math import gcd

from circiso import (
    ConnectionSet,
    ThetaMap,
    adam_orbit,
    are_isomorphic,
    build_edges,
    enumerate_type2,
)
from circiso.classify import (
    _byte_keys,
    _candidate_tables,
    _masks_of_size,
    _order_tables,
    _orbit_minima,
    _split_lazily,
    _step_candidates,
    admissible_m,
    certify_isomorphism,
    ci_full_census,
    circulant_records,
    classify_pair,
    probe_records,
)
from circiso.graphs import WALK_PREFIX, is_isomorphism, refinement_rounds, walk_counts
from circiso.report import theta_table_rows
from circiso.theta import (
    _closed_under,
    _least_period,
    _nonunit_steps,
    _rotate_classes,
    _shift_plan,
    jump_shortcut,
    theta_image,
)


# Package-free reference helpers.  They use the standard library only and
# call nothing from circiso, so they can check the package's answers
# against the definitions directly.  Jump sets are plain sorted tuples.


def reflexive_jump(n: int, v: int) -> int:
    """Reflexive reduction of v mod n: the representative in [0, n/2]."""
    w = v % n
    return min(w, n - w)


def bits_mask(elements) -> int:
    """The bit mask with bit e set for every element e."""
    return sum(1 << e for e in set(elements))


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


def vertex_map_is_isomorphism(n: int, left, right, phi) -> bool:
    """Whether phi (phi[v] the image of v) is a bijection of Z_n carrying
    the edge set of C_n(left) exactly onto that of C_n(right), both rebuilt
    by `circulant_edge_set`."""
    if sorted(phi) != list(range(n)):
        return False
    image = frozenset(frozenset(phi[v] for v in edge) for edge in circulant_edge_set(n, left))
    return image == circulant_edge_set(n, right)


def closed_walk_counts(n: int, jumps, lengths=None) -> tuple[int, ...]:
    """The numbers of closed walks of length k = 1..lengths (default n)
    from vertex 0 of C_n(jumps).

    A dynamic programme over Z_n: after k steps walks[j] is the number of
    walks of length k from 0 to j, the coefficient of x^j in P(x)^k mod
    x^n - 1 with P the sum of x^s over s in +-jumps.  One more step sets
    it to the sum of walks[j - s] over s in +-jumps.  Negation maps
    +-jumps onto itself, so walks[j] = walks[-j] at every length; each
    step computes j = 0..n//2 only and mirrors the rest.
    """
    half = n // 2
    sym = {r % n for r in jumps} | {-r % n for r in jumps}
    walks, counts = [1] + [0] * (n - 1), []
    for _ in range(n if lengths is None else lengths):
        doubled = walks + walks
        low = list(map(sum, zip(*[doubled[n - s : n - s + half + 1] for s in sym])))
        walks = low + low[n - half - 1 : 0 : -1]
        counts.append(walks[0])
    return tuple(counts)


def brute_unit_orbit(n: int, jumps) -> set[tuple[int, ...]]:
    """All reflexive unit multiples x*jumps, x ranging over Z_n^*."""
    return {
        tuple(sorted({reflexive_jump(n, x * r) for r in jumps}))
        for x in range(1, n)
        if gcd(x, n) == 1
    }


def brute_orbit_witness(n: int, jumps) -> dict[tuple[int, ...], int]:
    """Each reflexive unit multiple x*jumps mapped to the smallest unit
    x <= n/2 producing it (x and n - x produce the same set)."""
    out: dict[tuple[int, ...], int] = {}
    for x in range(1, n // 2 + 1):
        if gcd(x, n) == 1:
            out.setdefault(tuple(sorted({reflexive_jump(n, x * r) for r in jumps})), x)
    return out


def every_circulant_is_ci(n: int) -> bool:
    """Muzychuk's theorem (Discrete Math. 1997): every undirected circulant
    of order n is a CI-graph iff n is 8, 9 or 18, or n = k, 2k or 4k with
    k odd and squarefree."""
    if n in (8, 9, 18):
        return True
    k = n // 4 if n % 4 == 0 else n // 2 if n % 2 == 0 else n
    return k % 2 == 1 and all(k % (p * p) for p in range(2, k + 1))


def reference_probe(n: int, m: int, t: int, jumps) -> tuple:
    """(kind, image jumps, Type-1 unit) of the probe (m, t) of C_n(jumps),
    from the edge-level image and the brute-force orbit alone."""
    image = edge_level_image(n, m, t, jumps)
    if image is None:
        return "not-circulant", None, None
    if image == tuple(jumps):
        return "self", image, None
    unit = brute_orbit_witness(n, jumps).get(image)
    return ("type2", image, None) if unit is None else ("type1", image, unit)


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
            perms = [tuple(map(ThetaMap(n, m, t).apply, range(n))) for t in range(q)]
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


def least_period_decides_shifts(max_n: int = 20) -> list[str]:
    """For every n <= max_n, every jump set R and every m | n with
    1 < m < n, with A = {s in +-R : m does not divide s}: `_least_period`
    returns the least d >= 1 with A + d = A, found here by trying every d;
    the plan of `_shift_plan` holds the bits of +-R divisible by m and
    q = d / gcd(d, m^2); the t in [1, n/m - 1] that are multiples of q are
    exactly those with a circulant `edge_level_image`; and at each of them
    the image (`_rotate_classes` over the plan) equals the mask of the
    elementwise image {s + (s mod m)*t*m : s in +-R}, computed here,
    whose jumps are those of the edge-level image.  Also,
    when the image at t = q lies in the `brute_unit_orbit` of R, the
    images at every multiple of q do too (the census then stops scanning
    that m)."""
    bad = []
    for n in range(2, max_n + 1):
        primes = [p for p in range(2, n + 1) if n % p == 0 and all(p % f for f in range(2, p))]
        moduli = [m for m in range(2, n) if n % m == 0]
        for size in range(1, n // 2 + 1):
            for combo in itertools.combinations(range(1, n // 2 + 1), size):
                sym = {r % n for r in combo} | {-r % n for r in combo}
                a = bits_mask(sym)
                for m in moduli:
                    moving_set = {s for s in sym if s % m}
                    period = next(
                        d
                        for d in range(1, n + 1)
                        if {(s + d) % n for s in moving_set} == moving_set
                    )
                    moving = bits_mask(moving_set)
                    where = f"n={n}, R={combo}, m={m}"
                    if _least_period(n, primes, moving) != period:
                        bad.append(f"least period differs at {where}")
                    q = period // gcd(period, m * m)
                    fixed, parts, plan_q = _shift_plan(n, primes, m, bits_mask(range(0, n, m)), a)
                    if (fixed, plan_q) != (a ^ moving, q):
                        bad.append(f"plan differs at {where}")
                    edges = {t: edge_level_image(n, m, t, combo) for t in range(1, n // m)}
                    circulant = {t for t, image in edges.items() if image is not None}
                    if circulant != {t for t in edges if t % q == 0}:
                        bad.append(f"circulant shifts are not the multiples of {q} at {where}")
                    in_orbit = []
                    for t in range(q, n // m, q):
                        want = bits_mask((s + (s % m) * t * m) % n for s in sym)
                        census = _rotate_classes(n, t * m, fixed, parts)
                        jumps = tuple(s for s in range(1, n // 2 + 1) if want >> s & 1)
                        if census != want or jumps != edges[t]:
                            bad.append(f"images differ at {where}, t={t}")
                        in_orbit.append(jumps in brute_unit_orbit(n, combo))
                    if in_orbit[:1] == [True] and not all(in_orbit):
                        bad.append(f"first image in the orbit but a later one not at {where}")
    return bad


def unit_shifts_are_unit_multipliers(max_n: int = 64) -> tuple[list[str], int]:
    """For every n <= max_n, every m | n with 1 < m < n and every t in
    [1, n/m - 1] with n | t*m^2: x + (x mod m)*t*m = (1 + t*m)*x (mod n)
    for every x in Z_n, and gcd(1 + t*m, n) = 1.  Package-free: the shift
    is the formula of the definition.  Returns the violations and the
    number of (n, m, t) checked."""
    bad, checked = [], 0
    for n in range(2, max_n + 1):
        for m in range(2, n):
            if n % m:
                continue
            for t in range(1, n // m):
                if t * m * m % n:
                    continue
                checked += 1
                u = 1 + t * m
                if any((x + (x % m) * t * m - u * x) % n for x in range(n)):
                    bad.append(f"theta is not multiplication by {u} at n={n}, m={m}, t={t}")
                if gcd(u, n) != 1:
                    bad.append(f"{u} is not a unit at n={n}, m={m}, t={t}")
    return bad, checked


def unit_shift_covered(n: int, m: int, t: int) -> bool:
    """The hypothesis of the unit-shift lemma (`theta._unit_shift`),
    restated here: h = gcd(t*m^2, n/m) divides t*m or t*m + 2."""
    h = gcd(t * m * m, n // m)
    return t * m % h == 0 or (t * m + 2) % h == 0


def unit_shift_unit(n: int, m: int, t: int):
    """The x of the lemma for a covered shift, by trying every x in Z_n:
    x = 1 + t*m (mod gcd(t*m^2, n)) and x = e (mod n/m), with e = 1 when
    gcd(t*m^2, n/m) divides t*m and e = -1 otherwise; None if none does."""
    g, h = gcd(t * m * m, n), gcd(t * m * m, n // m)
    e = 1 if t * m % h == 0 else -1
    return next((x for x in range(n) if (x - 1 - t * m) % g == 0 and (x - e) % (n // m) == 0), None)


def unit_shift_lemma_matches_edges(max_n: int = 20) -> tuple[list[str], int, int]:
    """For every n <= max_n, every jump set R, every m > 1 dividing n and
    a jump, and every t in [1, n/m - 1] that `unit_shift_covered` covers:
    the x of `unit_shift_unit` exists and is a unit, and when the
    `edge_level_image` is circulant it is the reduction of x*(+-R) and
    lies in the `brute_unit_orbit` of R.  Package-free.  Returns the
    violations, the covered probes and the circulant ones among them."""
    bad, probes, circulant = [], 0, 0
    for n in range(2, max_n + 1):
        covered = [
            (m, t, unit_shift_unit(n, m, t))
            for m in range(2, n)
            if n % m == 0
            for t in range(1, n // m)
            if unit_shift_covered(n, m, t)
        ]
        for m, t, x in covered:
            if x is None or gcd(x, n) != 1:
                bad.append(f"no unit x at n={n}, m={m}, t={t}")
        for size in range(1, n // 2 + 1):
            for combo in itertools.combinations(range(1, n // 2 + 1), size):
                orbit = None
                for m, t, x in covered:
                    if x is None or all(r % m for r in combo):
                        continue
                    probes += 1
                    image = edge_level_image(n, m, t, combo)
                    if image is None:
                        continue
                    circulant += 1
                    orbit = orbit or brute_unit_orbit(n, combo)
                    if image != tuple(sorted({reflexive_jump(n, x * r) for r in combo})):
                        bad.append(f"image is not x*R, x={x}, at n={n}, R={combo}, m={m}, t={t}")
                    if image not in orbit:
                        bad.append(f"image leaves the orbit at n={n}, R={combo}, m={m}, t={t}")
    return bad, probes, circulant


def nonunit_steps_match_edges(max_n: int = 20) -> tuple[list[str], int]:
    """For every n <= max_n, every jump set R and every m | n with
    1 < m < n, with A = {s in +-R : m does not divide s}: A is closed
    (`_closed_under`) under one of the steps that `_order_tables(n)` holds
    for m -- none when the table leaves m out -- iff some t in
    [1, n/m - 1] that `unit_shift_covered` leaves free has a circulant
    `edge_level_image`; and every covered t with a circulant image has it
    in the `brute_unit_orbit` of R.  The table's steps are also those of
    `_nonunit_steps`, with the moduli without steps left out.  Returns the
    violations and the number of (R, m) for which the test passes."""
    bad, passing = [], 0
    for n in range(2, max_n + 1):
        table = {m: steps for m, _, steps in _order_tables(n)[2]}
        want = {m: _nonunit_steps(n, m) for m in range(2, n) if n % m == 0}
        if table != {m: steps for m, steps in want.items() if steps}:
            bad.append(f"table steps differ from _nonunit_steps at n={n}")
        for size in range(1, n // 2 + 1):
            for combo in itertools.combinations(range(1, n // 2 + 1), size):
                sym = {r % n for r in combo} | {-r % n for r in combo}
                orbit = brute_unit_orbit(n, combo)
                for m in want:
                    moving = bits_mask(s for s in sym if s % m)
                    passes = any(_closed_under(n, moving, e) for e in table.get(m, ()))
                    passing += passes
                    images = {t: edge_level_image(n, m, t, combo) for t in range(1, n // m)}
                    escapes = any(
                        image is not None
                        for t, image in images.items()
                        if not unit_shift_covered(n, m, t)
                    )
                    where = f"n={n}, R={combo}, m={m}"
                    if passes != escapes:
                        bad.append(f"test says {passes}, edge level says {escapes} at {where}")
                    for t, image in images.items():
                        if unit_shift_covered(n, m, t) and image is not None and image not in orbit:
                            bad.append(f"covered shift t={t} leaves the orbit at {where}")
    return bad, passing


def nonunit_steps_are_maximal(max_n: int = 1000) -> tuple[list[str], list[int]]:
    """For every n <= max_n and every m | n with 1 < m < n, the steps of
    `_nonunit_steps(n, m)` are the maximal elements, under divisibility,
    of E = {gcd(t, q0)*g0 : t in [1, n/m - 1] free of `unit_shift_covered`},
    g0 = gcd(n, m^2), q0 = n/g0: each is in E and divides n, is below n
    and is a multiple of m, no step divides another, and every element of
    E divides a step.  Returns the violations and the orders at which
    some modulus keeps a step."""
    bad, kept = [], []
    for n in range(2, max_n + 1):
        keeps = False
        for m in range(2, n):
            if n % m:
                continue
            g0 = gcd(n, m * m)
            free = {gcd(t, n // g0) * g0 for t in range(1, n // m) if not unit_shift_covered(n, m, t)}
            steps = _nonunit_steps(n, m)
            keeps = keeps or bool(steps)
            where = f"n={n}, m={m}"
            if any(e not in free or n % e or e == n or e % m for e in steps):
                bad.append(f"a step is not a free proper multiple of m at {where}")
            if any(e != f and f % e == 0 for e in steps for f in steps):
                bad.append(f"a step divides another at {where}")
            if any(all(e % f for e in steps) for f in free):
                bad.append(f"a free shift divides no step at {where}")
        if keeps:
            kept.append(n)
    return bad, kept


def passes_step_test(n: int, modulus, jumps) -> bool:
    """Whether the modulus (m, mult, steps) of `_order_tables(n)` divides a
    jump and the moving jumps {s in +-R : m does not divide s} are closed
    (`_closed_under`) under one of its steps."""
    m, _, steps = modulus
    moving = bits_mask({s for r in jumps for s in (r % n, -r % n) if s % m})
    return any(r % m == 0 for r in jumps) and any(_closed_under(n, moving, e) for e in steps)


def step_tag(n: int, moduli, jumps) -> int:
    """The bits 1 << i of the moduli of `moduli` (`_order_tables(n)`) at
    which `passes_step_test` holds."""
    return sum(1 << i for i, modulus in enumerate(moduli) if passes_step_test(n, modulus, jumps))


def byte_tables_match_units(max_n: int = 24) -> list[str]:
    """For every n <= max_n and every nonempty jump mask v (bit r - 1 for
    jump r): the byte tables of `_order_tables` give, for every unit
    x <= n/2 in increasing order, the mask of the multiple x*R taken with
    `reflexive_jump`, and the symmetric mask of +-R.  Size by size,
    `_masks_of_size` gives every mask in integer order, and `_orbit_minima`
    fed with them yields exactly the masks that are the smallest mask in
    their `brute_unit_orbit`, each with its whole orbit; fed with the
    `_step_candidates` instead, it yields exactly those minima that pass
    the step test at some modulus (`step_tag`), each with its whole
    orbit."""
    bad = []
    for n in range(2, max_n + 1):
        h = n // 2
        products, symmetric, moduli, _ = _order_tables(n)
        tables = _candidate_tables(n, moduli, h)
        units = [x for x in range(1, h + 1) if gcd(x, n) == 1]
        minima: dict[int, set] = {k: set() for k in range(1, h + 1)}
        passing: dict[int, set] = {k: set() for k in range(1, h + 1)}
        for v in range(1, 1 << h):
            jumps = [r for r in range(1, h + 1) if v >> (r - 1) & 1]
            keys = _byte_keys(v, h)
            for x, product in zip(units, products):
                want = bits_mask(reflexive_jump(n, x * r) - 1 for r in jumps)
                if sum(map(product, keys)) != want:
                    bad.append(f"unit {x} table differs at n={n}, R={tuple(jumps)}")
            want = bits_mask({r % n for r in jumps} | {-r % n for r in jumps})
            if sum(map(symmetric, keys)) != want:
                bad.append(f"symmetric table differs at n={n}, R={tuple(jumps)}")
            orbit = {bits_mask(r - 1 for r in member) for member in brute_unit_orbit(n, jumps)}
            if v == min(orbit):
                minima[len(jumps)].add((v, frozenset(orbit)))
                if step_tag(n, moduli, jumps):
                    passing[len(jumps)].add((v, frozenset(orbit)))
        for k in range(1, h + 1):
            masks = list(_masks_of_size(h, k))
            combos = itertools.combinations(range(1, h + 1), k)
            if masks != sorted(bits_mask(r - 1 for r in combo) for combo in combos):
                bad.append(f"masks of size {k} differ at n={n}")
            scan = _orbit_minima(n, products, masks)
            if {(v, frozenset(images)) for v, images, _ in scan} != minima[k]:
                bad.append(f"orbit minima of size {k} differ at n={n}")
            scan = _orbit_minima(n, products, sorted(_step_candidates(tables, k)))
            if {(v, frozenset(images)) for v, images, _ in scan} != passing[k]:
                bad.append(f"orbit minima of the size-{k} candidates differ at n={n}")
    return bad


def byte_tables_match_random_masks(n: int = 150, count: int = 200, seed: int = 150) -> list[str]:
    """The byte tables of `_order_tables(n)` at an order whose h = n/2
    jumps span several byte chunks: for `count` seeded random jump masks,
    plus the full mask and the mask of jump h alone, every unit x <= n/2
    gives the mask of x*R taken jump by jump with `reflexive_jump`, and
    the symmetric table gives the mask of +-R."""
    h = n // 2
    products, symmetric = _order_tables(n)[:2]
    units = [x for x in range(1, h + 1) if gcd(x, n) == 1]
    rng = random.Random(seed)
    masks = [rng.getrandbits(h) for _ in range(count)] + [(1 << h) - 1, 1 << (h - 1)]
    bad = []
    for v in masks:
        jumps = [r for r in range(1, h + 1) if v >> (r - 1) & 1]
        keys = _byte_keys(v, h)
        for x, product in zip(units, products):
            if sum(map(product, keys)) != bits_mask(reflexive_jump(n, x * r) - 1 for r in jumps):
                bad.append(f"unit {x} table differs at n={n}, R={tuple(jumps)}")
        if sum(map(symmetric, keys)) != bits_mask([*jumps, *(n - r for r in jumps)]):
            bad.append(f"symmetric table differs at n={n}, R={tuple(jumps)}")
    return bad


def step_candidates_match_edges(max_n: int = 28, max_edge_n: int = 20) -> tuple[list[str], int]:
    """For every n <= max_n and every size k, `_step_candidates` gives
    exactly the k-masks whose jump sets pass the step test at some
    modulus, each tagged with exactly the moduli at which it passes
    (`step_tag`, which runs `passes_step_test` one modulus at a time),
    whether its tables are built up to size n/2 or only up to k.
    For n <= max_edge_n, a set is generated iff
    some m > 1 dividing n and a jump has a circulant `edge_level_image` at
    a t in [1, n/m - 1] that `unit_shift_covered` leaves free.  Returns the violations
    and the number of masks generated."""
    bad, generated = [], 0
    for n in range(2, max_n + 1):
        h = n // 2
        moduli = _order_tables(n)[2]
        tables = _candidate_tables(n, moduli, h)
        for k in range(1, h + 1):
            got = _step_candidates(tables, k)
            generated += len(got)
            if _step_candidates(_candidate_tables(n, moduli, k), k) != got:
                bad.append(f"tables capped at size {k} give other candidates at n={n}")
            want = {}
            for combo in itertools.combinations(range(1, h + 1), k):
                tag = step_tag(n, moduli, combo)
                passes = tag != 0
                if passes:
                    want[bits_mask(r - 1 for r in combo)] = tag
                if n <= max_edge_n:
                    escapes = any(
                        edge_level_image(n, m, t, combo) is not None
                        for m in range(2, h + 1)
                        if n % m == 0 and any(r % m == 0 for r in combo)
                        for t in range(1, n // m)
                        if not unit_shift_covered(n, m, t)
                    )
                    if escapes != passes:
                        where = f"n={n}, R={combo}"
                        bad.append(f"test says {passes}, edge level says {escapes} at {where}")
            if got.keys() != want.keys():
                bad.append(f"candidates of size {k} differ at n={n}")
            elif got != want:
                bad.append(f"candidate tags of size {k} differ at n={n}")
    return bad, generated


def adjacency_power_traces(n: int, jumps) -> list[int]:
    """tr(A^k) for k = 1..n, A the adjacency matrix of the package-free
    `circulant_edge_set(n, jumps)`; row u of A^(k+1) is the sum of the rows
    of A^k at the neighbours of u."""
    nbrs = [[] for _ in range(n)]
    for edge in circulant_edge_set(n, jumps):
        u, v = edge
        nbrs[u].append(v)
        nbrs[v].append(u)
    power = [[int(u == v) for v in range(n)] for u in range(n)]
    traces = []
    for _ in range(n):
        power = [list(map(sum, zip(*(power[w] for w in nbrs[u])))) for u in range(n)]
        traces.append(sum(power[v][v] for v in range(n)))
    return traces


def walk_counts_match_traces(max_n: int = 16) -> list[str]:
    """n * closed_walk_counts(R)[k - 1] equals tr(A^k) for k = 1..n, for
    every n <= max_n and every jump set R (749 sets at max_n = 16)."""
    bad = []
    for n in range(2, max_n + 1):
        for size in range(1, n // 2 + 1):
            for combo in itertools.combinations(range(1, n // 2 + 1), size):
                counts = closed_walk_counts(n, combo)
                if [n * w for w in counts] != adjacency_power_traces(n, combo):
                    bad.append(f"walk counts differ from traces at n={n}, R={combo}")
    return bad


def walk_prefix_matches_reference(max_n: int = 20, max_size: int = 4, max_small_n: int = 32):
    """walk_counts(R) yields the first WALK_PREFIX closed-walk counts of
    the package-free `closed_walk_counts` for every jump set R at
    n <= max_n, and for every R of size <= max_size at n <= max_small_n.
    Returns the violations and the number of sets checked."""
    bad, checked = [], 0
    for n in range(2, max_small_n + 1):
        for size in range(1, (n // 2 if n <= max_n else max_size) + 1):
            for combo in itertools.combinations(range(1, n // 2 + 1), size):
                checked += 1
                if tuple(walk_counts(ConnectionSet(n, combo))) != closed_walk_counts(
                    n, combo, WALK_PREFIX
                ):
                    bad.append(f"walk prefix of C_{n}{combo} differs from the reference")
    return bad, checked


def walk_stage_keeps_final_buckets(cells) -> tuple[list[str], int]:
    """At every (n, size) of `cells`, bucketing the multiplier orbits by
    component count, then walk counts, then refinement rounds, as
    `ci_full_census` does, gives the final buckets of component count, then
    refinement rounds.  Both go through `classify._split_lazily`.  Orbits
    are the package-free `brute_unit_orbit`s, each represented by its
    smallest member.  Returns the violations and the number of orbits the
    walk stage spares from refinement."""
    bad, spared = [], 0
    for n, size in cells:
        reps = sorted(
            {
                min(brute_unit_orbit(n, combo))
                for combo in itertools.combinations(range(1, n // 2 + 1), size)
            }
        )
        by_components = {}
        for rep in reps:
            by_components.setdefault(gcd(n, *rep), []).append(ConnectionSet(n, rep))
        two, _ = _split_lazily(by_components.values(), refinement_rounds)
        by_walks, _ = _split_lazily(by_components.values(), walk_counts)
        three, _ = _split_lazily(by_walks, refinement_rounds)
        if sorted(map(sorted, two)) != sorted(map(sorted, three)):
            bad.append(f"the walk stage changes the final buckets at n={n}, size={size}")
        tied = [group for group in by_components.values() if len(group) > 1]
        spared += sum(map(len, tied)) - sum(map(len, by_walks))
    return bad, spared


def rooted_key(c: ConnectionSet) -> tuple:
    """The whole sequence of `refinement_rounds` of c as one tuple."""
    return tuple(refinement_rounds(c))


def reference_refinement(n: int, jumps) -> tuple:
    """Colour refinement of C_n(jumps) with vertex 0 individualised, read
    off the edge-level adjacency of `circulant_edge_set`.  Vertex 0 starts
    with colour 0 and the rest with colour 1; each round gives every vertex
    the signature (own colour, sorted neighbour colours) and renames the
    colours by the rank of each signature among the round's sorted
    distinct signatures, and the rounds stop once one splits no class.
    Returns every round's sorted distinct signatures, then the final class
    sizes."""
    nbrs = [[] for _ in range(n)]
    for u, v in map(tuple, circulant_edge_set(n, jumps)):
        nbrs[u].append(v)
        nbrs[v].append(u)
    colours = [0] + [1] * (n - 1)
    out = []
    while True:
        classes = len(set(colours))
        signatures = [(colours[v], tuple(sorted(colours[u] for u in nbrs[v]))) for v in range(n)]
        distinct = sorted(set(signatures))
        out.append(tuple(distinct))
        colours = [distinct.index(signature) for signature in signatures]
        if len(distinct) == classes:
            break
    out.append(tuple(colours.count(colour) for colour in range(len(distinct))))
    return tuple(out)


def packed_rounds_match_reference(max_n: int = 16, order: int = 24, max_size: int = 5):
    """The packed signatures of `refinement_rounds` split the vertices as
    the package-free `reference_refinement` does, and tell the same sets
    apart: for every jump set, each round has as many distinct signatures
    in both and the final class sizes agree as multisets; and grouping the
    jump sets of an order by their whole sequence of rounds gives the same
    partition as grouping them by the reference.  Covers every order
    n <= max_n at all sizes and `order` at sizes <= max_size.  Returns the
    violations and the number of sets checked."""
    bad, checked = [], 0
    cells = [(n, n // 2) for n in range(2, max_n + 1)] + [(order, max_size)]
    for n, top in cells:
        by_key, by_reference = {}, {}
        for size in range(1, top + 1):
            for combo in itertools.combinations(range(1, n // 2 + 1), size):
                checked += 1
                key = rooted_key(ConnectionSet(n, combo))
                reference = reference_refinement(n, combo)
                if [len(r) for r in key[:-1]] != [len(r) for r in reference[:-1]] or sorted(
                    key[-1]
                ) != sorted(reference[-1]):
                    bad.append(f"packed rounds split C_{n}{combo} unlike the reference")
                by_key.setdefault(key, set()).add(combo)
                by_reference.setdefault(reference, set()).add(combo)
        if set(map(frozenset, by_key.values())) != set(map(frozenset, by_reference.values())):
            bad.append(f"packed rounds and the reference group the sets of order {n} differently")
    return bad, checked


def walk_key_separates_only_non_isomorphic(max_n: int = 18) -> tuple[list[str], int]:
    """Every two same-size multiplier orbits at an order n <= max_n whose
    closed-walk counts differ are non-isomorphic per the oracle, which
    never looks at walk counts.  Returns the violations and the number of
    orbit pairs checked (4,531 at max_n = 18).  Orbits are the
    package-free `brute_unit_orbit`s, each represented by its smallest
    member."""
    bad = []
    checked = 0
    for n in range(2, max_n + 1):
        for size in range(1, n // 2 + 1):
            reps = sorted(
                {
                    min(brute_unit_orbit(n, combo))
                    for combo in itertools.combinations(range(1, n // 2 + 1), size)
                }
            )
            keys = {rep: closed_walk_counts(n, rep) for rep in reps}
            for a, b in itertools.combinations(reps, 2):
                if keys[a] == keys[b]:
                    continue
                checked += 1
                left = build_edges(ConnectionSet(n, a))
                if are_isomorphic(left, build_edges(ConnectionSet(n, b))):
                    bad.append(f"C_{n}{a} and C_{n}{b} differ in walk counts but are isomorphic")
    return bad, checked


def rooted_key_is_invariant(max_n: int = 16, census_orders=(16, 24)) -> list[str]:
    """rooted_key(xR) equals rooted_key(R) for every jump set R at
    n <= max_n (749 sets at max_n = 16) and every unit 1 < x <= n/2 (x and
    -x give the same set), with unit multiples taken by the package-free
    `reflexive_jump`; and both sides of every Type-2
    census pair at the orders `census_orders` have equal keys.  Those pairs
    are isomorphic by a residue shift, not by a multiplier, so no oracle is
    needed to know they must agree."""
    bad = []
    for n in range(2, max_n + 1):
        units = [x for x in range(2, n // 2 + 1) if gcd(x, n) == 1]
        for size in range(1, n // 2 + 1):
            for combo in itertools.combinations(range(1, n // 2 + 1), size):
                key = rooted_key(ConnectionSet(n, combo))
                for x in units:
                    scaled = tuple(sorted({reflexive_jump(n, x * r) for r in combo}))
                    if rooted_key(ConnectionSet(n, scaled)) != key:
                        bad.append(f"rooted key of C_{n}{combo} changes under the unit {x}")
    for n in census_orders:
        for left, right in enumerate_type2(n).pairs:
            if rooted_key(left) != rooted_key(right):
                bad.append(f"Type-2 pair {left}, {right} has unequal rooted keys")
    return bad


def rooted_key_separates_walk_ties(grid) -> tuple[list[str], dict]:
    """Every two same-size multiplier orbits at (n, size) in `grid` that
    share their closed-walk counts but differ in rooted refinement key are
    non-isomorphic per the oracle, which looks at neither key.  Returns
    the violations and the number of such orbit pairs at each (n, size).
    Orbits are the package-free `brute_unit_orbit`s, each represented by
    its smallest member."""
    bad = []
    counts = {}
    for n, size in grid:
        reps = sorted(
            {
                min(brute_unit_orbit(n, combo))
                for combo in itertools.combinations(range(1, n // 2 + 1), size)
            }
        )
        by_walks = {}
        for rep in reps:
            by_walks.setdefault(closed_walk_counts(n, rep), []).append(rep)
        counts[(n, size)] = 0
        for tied in by_walks.values():
            keys = {rep: rooted_key(ConnectionSet(n, rep)) for rep in tied}
            for a, b in itertools.combinations(tied, 2):
                if keys[a] == keys[b]:
                    continue
                counts[(n, size)] += 1
                left = build_edges(ConnectionSet(n, a))
                if are_isomorphic(left, build_edges(ConnectionSet(n, b))):
                    bad.append(f"C_{n}{a} and C_{n}{b} differ in rooted key but are isomorphic")
    return bad, counts


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


def _probe_outcome(c: ConnectionSet, m: int, t: int) -> tuple:
    rec = classify_pair(c, m, t)
    return rec.kind, rec.image.jumps if rec.image else None, rec.unit


def classify_pair_matches_reference(max_n: int = 20) -> list[str]:
    """For every n <= max_n, every jump set R and every admissible probe
    (m > 1 dividing gcd(n, r) for a jump r, 1 <= t <= n/m - 1): the kind,
    image and Type-1 unit of `classify_pair` equal `reference_probe`.
    `probe_records(R, allow_small=True)` lists, in (m, t) order, exactly
    the reference outcomes that are not "not-circulant".  Then an
    interleaved sequence (R1, m1) -> (R2, m2) -> (R1, m1), with the same
    jumps at two orders and one set at two moduli, is checked probe by
    probe, so a plan or orbit memo keyed on less than (n, R, m) answers
    for the wrong probe and fails."""
    bad = []
    for n in range(2, max_n + 1):
        for size in range(1, n // 2 + 1):
            for combo in itertools.combinations(range(1, n // 2 + 1), size):
                c = ConnectionSet(n, combo)
                moduli = [
                    m for m in range(2, n // 2 + 1) if n % m == 0 and any(r % m == 0 for r in combo)
                ]
                circulant = []
                for m in moduli:
                    where = f"n={n}, R={combo}, m={m}"
                    for t in range(1, n // m):
                        expected = reference_probe(n, m, t, combo)
                        if _probe_outcome(c, m, t) != expected:
                            bad.append(f"classify_pair differs at {where}, t={t}")
                        if expected[0] != "not-circulant":
                            circulant.append((m, t, *expected))
                records = [
                    (rec.m, rec.t, rec.kind, rec.image and rec.image.jumps, rec.unit)
                    for rec in probe_records(c, allow_small=True)
                ]
                if records != circulant:
                    bad.append(f"probe_records differ at n={n}, R={combo}")
    sequence = [(24, (2, 3, 7), 2), (24, (2, 3, 7), 3), (16, (2, 3, 7), 2), (24, (2, 3, 7), 2),
                (24, (1, 2, 11), 2), (24, (2, 5, 7), 2), (24, (1, 2, 11), 2), (20, (1, 4, 5), 5),
                (20, (1, 4, 5), 2), (20, (1, 4, 5), 5)]
    for n, combo, m in sequence * 2:
        c = ConnectionSet(n, combo)
        for t in range(n // m - 1, 0, -1):  # descending; the scan above ascends
            if _probe_outcome(c, m, t) != reference_probe(n, m, t, combo):
                bad.append(f"interleaved classify_pair differs at n={n}, R={combo}, m={m}, t={t}")
    return bad


def theta_table_matches_probes(max_n: int = 20) -> list[str]:
    """For every n <= max_n, every jump set R and every admissible m, each
    row of `theta_table_rows` equals its per-t definition: t, the cells
    `ThetaMap(n, m, t).apply(s)` for s in +-R, and the kind (with
    "not-circulant" read as "not") and Type-1 unit of `classify_pair(c,
    m, t)`, for t = 1 .. n/m - 1 in order.  `probe_records` equals the
    concatenation of `circulant_records` over `admissible_m`, and
    `theta_table_rows` refuses m = 0, m = 1 and every other m dividing n."""
    bad = []
    for n in range(2, max_n + 1):
        for size in range(1, n // 2 + 1):
            for combo in itertools.combinations(range(1, n // 2 + 1), size):
                c = ConnectionSet(n, combo)
                sym = c.symmetric_jumps()
                moduli = admissible_m(c)
                for m in moduli:
                    expected = []
                    for t in range(1, n // m):
                        rec = classify_pair(c, m, t)
                        verdict = "not" if rec.kind == "not-circulant" else rec.kind
                        images = tuple(ThetaMap(n, m, t).apply(s) for s in sym)
                        expected.append((t, images, verdict, rec.unit))
                    rows = [(r.t, r.images, r.verdict, r.unit) for r in theta_table_rows(c, m)]
                    if rows != expected:
                        bad.append(f"theta_table_rows differ at n={n}, R={combo}, m={m}")
                concatenated = [rec for m in moduli for rec in circulant_records(c, m)]
                if probe_records(c, allow_small=True) != concatenated:
                    bad.append(f"probe_records is not the per-modulus records at n={n}, R={combo}")
                refused = [m for m in range(2, n + 1) if n % m == 0 and m not in moduli]
                for m in (0, 1, *refused):
                    try:
                        theta_table_rows(c, m)
                    except ValueError:
                        continue
                    bad.append(f"theta_table_rows accepts m={m} at n={n}, R={combo}")
    return bad


# Large-order sets whose multiplier orbits are far smaller than the
# phi(n)/2 units scanned: most units repeat a member already found.
LARGE_ORDER_SETS = (
    (343, (7, 8, 41, 57, 90, 106, 139, 155)),
    (675, (1, 3, 224, 226)),
    (592, (111, 148, 185, 222, 296)),
    (250, (1, 5, 49, 51, 99, 101)),
)


def adam_orbit_matches_brute(
    max_n: int = 24, max_size: int = 4, extra=LARGE_ORDER_SETS
) -> list[str]:
    """For every n <= max_n (odd and even, so sets with the jump n/2 are
    covered) and every jump set of size <= max_size, and for each fixed
    (n, jumps) of `extra`: `adam_orbit` members are the sorted
    `brute_unit_orbit`, and each witness is the smallest unit x <= n/2
    producing the member (`brute_orbit_witness`)."""
    cells = [
        (n, combo)
        for n in range(2, max_n + 1)
        for size in range(1, min(max_size, n // 2) + 1)
        for combo in itertools.combinations(range(1, n // 2 + 1), size)
    ]
    bad = []
    for n, combo in [*cells, *extra]:
        orbit = adam_orbit(ConnectionSet(n, combo))
        if [m.jumps for m in orbit.members] != sorted(brute_unit_orbit(n, combo)):
            bad.append(f"orbit members differ at n={n}, R={combo}")
        witness = {m.jumps: x for m, x in orbit.witness.items()}
        if witness != brute_orbit_witness(n, combo):
            bad.append(f"orbit witnesses differ at n={n}, R={combo}")
    return bad


def move_partners(n: int, jumps) -> set[tuple[int, ...]]:
    """The jump sets one move reaches from C_n(jumps): the unit multiples of
    jumps and of every circulant image `edge_level_image(n, m, t, jumps)`,
    m > 1 dividing n and some jump, 1 <= t <= n/m - 1."""
    images = {tuple(jumps)}
    for m in range(2, n):
        if n % m or all(r % m for r in jumps):
            continue
        for t in range(1, n // m):
            image = edge_level_image(n, m, t, jumps)
            if image is not None:
                images.add(image)
    return set().union(*(brute_unit_orbit(n, image) for image in images))


def certificates_match_moves(max_n: int = 16, extra=((24, 3),)) -> tuple[list[str], int]:
    """For every ordered pair (a, b) of same-size jump sets at every order
    n <= max_n, and at each (n, top) of `extra` at sizes 1..top:
    `certify_isomorphism(a, b)` returns a map exactly when b is among the
    package-free `move_partners` of a, and every map it returns passes the
    package-free `vertex_map_is_isomorphism` and is confirmed by the
    oracle.  Returns the violations and the number of maps checked."""
    cells = [(n, size) for n in range(2, max_n + 1) for size in range(1, n // 2 + 1)]
    cells += [(n, size) for n, top in extra for size in range(1, top + 1)]
    bad, certified = [], 0
    for n, size in cells:
        sets = list(itertools.combinations(range(1, n // 2 + 1), size))
        partners = {a: move_partners(n, a) for a in sets}
        for b in sets:  # the outer loop, so the memoised orbit of b is reused
            right = ConnectionSet(n, b)
            for a in sets:
                phi = certify_isomorphism(ConnectionSet(n, a), right)
                if (phi is not None) != (b in partners[a]):
                    found = "a map" if phi is not None else "no map"
                    bad.append(f"certify_isomorphism(C_{n}{a}, C_{n}{b}) gave {found}")
                if phi is None:
                    continue
                certified += 1
                if not vertex_map_is_isomorphism(n, a, b, phi):
                    bad.append(f"the map for C_{n}{a} -> C_{n}{b} is not an isomorphism")
                elif not are_isomorphic(build_edges(ConnectionSet(n, a)), build_edges(right)):
                    bad.append(f"the oracle denies C_{n}{a} ~ C_{n}{b}")
    return bad, certified


def certificates_join_type2_pairs(cells=((27, 3, 4), (32, 3, 4))) -> tuple[list[str], int]:
    """For every Type-2 census pair (a, b) of each (n, size_min, size_max)
    of `cells` and every package-free unit multiple b' of b,
    `certify_isomorphism` returns a map from a onto b' and one from b'
    onto a, and `vertex_map_is_isomorphism` accepts both.  Units x with
    x^2 != +-1 occur here, unlike at the orders of
    `certificates_match_moves`, so a map that used x for x^-1 is caught.
    Returns the violations and the number of maps checked."""
    bad, checked = [], 0
    for n, size_min, size_max in cells:
        for a, b in enumerate_type2(n, size_min, size_max).pairs:
            for multiple in sorted(brute_unit_orbit(n, b.jumps)):
                for left, right in ((a.jumps, multiple), (multiple, a.jumps)):
                    phi = certify_isomorphism(ConnectionSet(n, left), ConnectionSet(n, right))
                    checked += 1
                    if phi is None or not vertex_map_is_isomorphism(n, left, right, phi):
                        bad.append(f"no checked map from C_{n}{left} onto C_{n}{right}")
    return bad, checked


def complement_jumps(n: int, jumps) -> tuple[int, ...]:
    """The jumps of {1..n/2} outside jumps: C_n of them is the complement
    graph of C_n(jumps)."""
    return tuple(r for r in range(1, n // 2 + 1) if r not in jumps)


def complement_duality(max_n: int = 20) -> tuple[list[str], int, int]:
    """Package-free checks of the duality lemma of `enumerate_type2` at
    every n <= max_n, every jump set R of {1..n/2} (empty and full
    included), every m | n with 1 < m < n and every t in [1, n/m - 1].
    (a) The `edge_level_image` of the complement of R is the complement
    of the image of R, and None exactly when that is None.  (b) When +-R
    holds every nonzero multiple of m and the image of R is circulant, a
    unit x of Z_n with x = 1 + t*m (mod gcd(t*m^2, n)) exists, the image
    is x*R, and it lies in `brute_unit_orbit(n, R)`.  Returns the
    violations, the number of images compared and the number of (b)
    cases."""
    bad, compared, lemma = [], 0, 0
    for n in range(2, max_n + 1):
        h = n // 2
        probes = [(m, t) for m in range(2, n) if n % m == 0 for t in range(1, n // m)]
        sets = [c for k in range(h + 1) for c in itertools.combinations(range(1, h + 1), k)]
        images = {(c, probe): edge_level_image(n, *probe, c) for c in sets for probe in probes}
        for (c, (m, t)), image in images.items():
            where = f"n={n}, R={c}, m={m}, t={t}"
            compared += 1
            want = None if image is None else complement_jumps(n, image)
            if images[complement_jumps(n, c), (m, t)] != want:
                bad.append(f"the image of the complement is not the complement at {where}")
            if image is None or any(r not in c for r in range(m, h + 1, m)):
                continue
            lemma += 1
            g = gcd(t * m * m, n)
            units = (x for x in range(1, n) if gcd(x, n) == 1 and (x - 1 - t * m) % g == 0)
            x = next(units, None)
            if x is None or image != tuple(sorted({reflexive_jump(n, x * r) for r in c})):
                bad.append(f"no unit x = 1 + t*m (mod {g}) maps R onto its image at {where}")
            elif image not in brute_unit_orbit(n, c):
                bad.append(f"the image is outside the unit orbit at {where}")
    return bad, compared, lemma


def mirrored_ci_census_matches_pairwise(max_n: int = 16) -> tuple[list[str], int]:
    """At every n <= max_n and every size k > n/2 - k, where the CI census
    runs at the size n/2 - k and complements its orbits: its verdict rows
    equal those of comparing every two orbit representatives of size k.
    The orbits come from `brute_unit_orbit`; two representatives are
    joined when `certify_isomorphism` returns a map or the oracle finds
    them isomorphic, and the classes are those of a union-find over the
    joins.  Returns the violations and the number of censuses checked."""
    bad, checked = [], 0
    for n in range(2, max_n + 1):
        h = n // 2
        for k in range(h // 2 + 1, h + 1):  # exactly the k > h - k
            combos = itertools.combinations(range(1, h + 1), k)
            orbits = sorted({tuple(sorted(brute_unit_orbit(n, c))) for c in combos})
            reps = [ConnectionSet(n, members[0]) for members in orbits]
            root = list(range(len(reps)))

            def find(i):
                while root[i] != i:
                    i = root[i]
                return i

            for i, j in itertools.combinations(range(len(reps)), 2):
                a, b = reps[i], reps[j]
                if certify_isomorphism(a, b) is not None or are_isomorphic(
                    build_edges(a), build_edges(b)
                ):
                    root[find(i)] = find(j)
            classes = [find(i) for i in range(len(reps))]
            want = []
            for members, rep, cls in zip(orbits, reps, classes):
                partners = [r for r, c in zip(reps, classes) if c == cls and r != rep]
                want.append([list(members), not partners, partners])
            got = [
                [[c.jumps for c in v.orbit_members], v.ci, list(v.isomorphic_to)]
                for v in ci_full_census(n, k)
            ]
            checked += 1
            if got != want:
                bad.append(f"the mirrored CI census differs from pairwise comparison at ({n}, {k})")
    return bad, checked


def is_isomorphism_matches_edges(max_n: int = 6) -> tuple[list[str], int]:
    """`graphs.is_isomorphism` agrees with `vertex_map_is_isomorphism` on
    every permutation of Z_n and every pair of jump sets, sizes equal or
    not, at every order n <= max_n.  Returns the violations and the number
    of accepted maps."""
    bad, accepted = [], 0
    for n in range(2, max_n + 1):
        sets = [
            combo
            for size in range(1, n // 2 + 1)
            for combo in itertools.combinations(range(1, n // 2 + 1), size)
        ]
        for phi in itertools.permutations(range(n)):
            for a, b in itertools.product(sets, repeat=2):
                want = vertex_map_is_isomorphism(n, a, b, phi)
                if is_isomorphism(ConnectionSet(n, a), ConnectionSet(n, b), phi) != want:
                    bad.append(f"is_isomorphism disagrees on C_{n}{a} -> C_{n}{b} by {phi}")
                accepted += want
    return bad, accepted
