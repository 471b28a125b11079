"""Build-time property suites over exhaustive small domains."""

import itertools
import random

from circiso.adam import adam_orbit, same_adam_orbit
from circiso.graphs import ConnectionSet, EdgeSet, build_edges, detect_circulant, gcd_signature
from circiso.oracle import are_isomorphic

from suites import (
    cycle_structure_vs_trace,
    jump2_triple_necessity,
    orbit_symmetry,
    residue_kernel_agrees_with_edges,
    shortcut_agrees_with_edges,
    theta_group_law,
    units_commute_with_theta,
)


def test_theta_group_law_up_to_48():
    assert theta_group_law(48) == []


def test_cycle_structure_vs_trace_up_to_40():
    assert cycle_structure_vs_trace(40) == []


def test_shortcut_agrees_with_edge_level_exhaustively():
    assert shortcut_agrees_with_edges((16, 24), 4) == []


def test_residue_kernel_agrees_with_edge_level_up_to_20():
    assert residue_kernel_agrees_with_edges(20) == []


def test_units_commute_with_theta_up_to_20():
    assert units_commute_with_theta(20) == []


def test_orbit_symmetry_exhaustive_triples():
    assert orbit_symmetry((16, 24)) == []


def test_jump2_triple_necessity_conditions():
    assert jump2_triple_necessity((16, 24, 32, 40)) == []


def test_unequal_signature_implies_non_isomorphic_samples():
    # The oracle never looks at signatures, so this backs the CI census's
    # bucketing key: every pair of same-size multiplier orbits at n <= 18
    # (4,240 pairs with unequal signatures), then random samples above.
    checked = 0
    for n in range(1, 19):
        for size in range(1, n // 2 + 1):
            reps = sorted(
                {
                    adam_orbit(ConnectionSet(n, combo)).canonical()
                    for combo in itertools.combinations(range(1, n // 2 + 1), size)
                }
            )
            for a, b in itertools.combinations(reps, 2):
                if gcd_signature(a) != gcd_signature(b):
                    assert not are_isomorphic(build_edges(a), build_edges(b)), (a, b)
                    checked += 1
    assert checked == 4240
    rng = random.Random(7)
    for n in (20, 24):
        pool = list(itertools.combinations(range(1, n // 2 + 1), 3))
        for _ in range(30):
            a = ConnectionSet(n, rng.choice(pool))
            b = ConnectionSet(n, rng.choice(pool))
            if gcd_signature(a) != gcd_signature(b):
                assert not are_isomorphic(build_edges(a), build_edges(b)), (a, b)


def test_adam_orbit_members_are_isomorphic_samples():
    rng = random.Random(11)
    for n in (16, 21, 24):
        pool = list(itertools.combinations(range(1, n // 2 + 1), 3))
        for combo in rng.sample(pool, 8):
            c = ConnectionSet(n, combo)
            base = build_edges(c)
            for member in adam_orbit(c).members:
                assert are_isomorphic(base, build_edges(member))


def test_detect_circulant_rejects_vertex_relabellings():
    # shuffling vertices generally destroys the rotation layout
    rng = random.Random(3)
    c = ConnectionSet(12, (1, 4))
    base = build_edges(c)
    hits = 0
    for _ in range(20):
        perm = list(range(12))
        rng.shuffle(perm)
        shuffled = EdgeSet(
            12,
            frozenset(
                (min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in base.edges
            ),
        )
        detected = detect_circulant(12, shuffled)
        if detected is not None:
            assert shuffled.edges == build_edges(detected).edges
            hits += 1
    assert hits < 20  # at least one shuffle must break the layout


def test_orbit_pairs_vs_oracle_consistency_on_triples_of_16():
    """Over every pair of order-16 triples: same orbit implies isomorphic."""
    triples = [
        ConnectionSet(16, combo) for combo in itertools.combinations(range(1, 9), 3)
    ]
    edges = {c: build_edges(c) for c in triples}
    for a, b in itertools.combinations(triples, 2):
        if same_adam_orbit(a, b):
            assert are_isomorphic(edges[a], edges[b])
