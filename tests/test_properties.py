"""Build-time property suites over exhaustive small domains."""

import itertools
import random

from circiso.adam import adam_orbit, same_adam_orbit
from circiso.graphs import ConnectionSet, EdgeSet, build_edges, detect_circulant, gcd_signature
from circiso.oracle import are_isomorphic

from reference_data import CI_VERDICT_SHA256
from suites import (
    adam_orbit_matches_brute,
    byte_tables_match_units,
    certificates_join_type2_pairs,
    certificates_match_moves,
    classify_pair_matches_reference,
    complement_duality,
    is_isomorphism_matches_edges,
    jump2_triple_necessity,
    least_period_decides_shifts,
    mirrored_ci_census_matches_pairwise,
    nonunit_steps_match_edges,
    orbit_symmetry,
    packed_rounds_match_reference,
    residue_kernel_agrees_with_edges,
    rooted_key_is_invariant,
    rooted_key_separates_walk_ties,
    shortcut_agrees_with_edges,
    step_candidates_match_edges,
    theta_group_law,
    theta_table_matches_probes,
    unit_shifts_are_unit_multipliers,
    units_commute_with_theta,
    walk_counts_match_traces,
    walk_key_separates_only_non_isomorphic,
    walk_prefix_matches_reference,
    walk_stage_keeps_final_buckets,
)


def test_theta_group_law_up_to_48():
    assert theta_group_law(48) == []


def test_shortcut_agrees_with_edge_level_exhaustively():
    assert shortcut_agrees_with_edges((16, 24), 4) == []


def test_residue_kernel_agrees_with_edge_level_up_to_20():
    assert residue_kernel_agrees_with_edges(20) == []


def test_least_period_decides_every_shift_up_to_20():
    assert least_period_decides_shifts(20) == []


def test_shifts_with_n_dividing_t_m_squared_are_unit_multipliers_up_to_64():
    # every m | n and t in [1, n/m - 1] with n | t*m^2, at every n <= 64
    bad, checked = unit_shifts_are_unit_multipliers(64)
    assert bad == [] and checked == 122


def test_complement_duality_at_edge_level_up_to_20():
    # every jump set, every m | n and every t at n <= 20: shifting the
    # complement graph gives the complement of the image, and the 1,804
    # circulant images of sets holding every multiple of m are unit
    # multiples x*R with x = 1 + t*m (mod gcd(t*m^2, n))
    bad, compared, lemma = complement_duality(20)
    assert bad == [] and (compared, lemma) == (31068, 1804)


def test_mirrored_ci_census_matches_pairwise_comparison_up_to_18():
    # every size k > n/2 - k at n <= 18: 45 censuses
    bad, checked = mirrored_ci_census_matches_pairwise(18)
    assert bad == [] and checked == 45


def test_census_modulus_skip_matches_edge_level_up_to_20():
    # every jump set and every m | n at n <= 20: the census probes m exactly
    # when some shift outside the unit multipliers is circulant
    bad, passing = nonunit_steps_match_edges(20)
    assert bad == [] and passing == 469


def test_census_candidates_match_the_step_test_up_to_28_and_edge_level_up_to_20():
    # every size at every n <= 28: the generated sets are those that pass
    # the census's modulus test, each tagged with exactly the moduli it
    # passes at, and at n <= 20 those with a circulant shift that is not
    # a unit multiplier
    bad, generated = step_candidates_match_edges(28, 20)
    assert bad == [] and generated == 1947


def test_classify_pair_matches_edge_level_reference_up_to_20():
    assert classify_pair_matches_reference(20) == []


def test_theta_table_rows_match_per_probe_definition_up_to_20():
    assert theta_table_matches_probes(20) == []


def test_adam_orbit_matches_brute_force_up_to_24():
    # and on the fixed large-order sets of suites.LARGE_ORDER_SETS
    assert adam_orbit_matches_brute(24, 4) == []


def test_byte_tables_and_orbit_minima_up_to_24():
    assert byte_tables_match_units(24) == []


def test_units_commute_with_theta_up_to_20():
    assert units_commute_with_theta(20) == []


def test_is_isomorphism_matches_edge_level_on_every_map_up_to_6():
    # every permutation of Z_n against every pair of jump sets
    bad, accepted = is_isomorphism_matches_edges(6)
    assert bad == [] and accepted == 1192


def test_certified_maps_are_isomorphisms_and_found_for_every_move():
    # every same-size pair at n <= 16, and n = 24 at sizes <= 3: a map is
    # returned exactly for the pairs one move joins, and each map returned
    # carries edges onto edges and is confirmed by the oracle
    bad, certified = certificates_match_moves(16, ((24, 3),))
    assert bad == [] and certified == 3419


def test_certified_maps_join_every_type2_pair_and_its_unit_multiples():
    # n = 27 and 32 at sizes 3 and 4: 87 census pairs, both directions
    bad, checked = certificates_join_type2_pairs(((27, 3, 4), (32, 3, 4)))
    assert bad == [] and checked == 654


def test_orbit_symmetry_exhaustive_triples():
    assert orbit_symmetry((16, 24)) == []


def test_jump2_triple_necessity_conditions():
    assert jump2_triple_necessity((16, 24, 32, 40)) == []


def test_walk_counts_are_adjacency_traces_up_to_16():
    assert walk_counts_match_traces(16) == []


def test_unequal_walk_counts_imply_non_isomorphic_up_to_18():
    bad, checked = walk_key_separates_only_non_isomorphic(18)
    assert bad == [] and checked == 4531


def test_walk_prefix_matches_reference_walk_counts():
    # every set at n <= 20 (odd n and sets holding n/2 included), then
    # every set of size <= 4 up to n = 32
    bad, checked = walk_prefix_matches_reference(20, 4, 32)
    assert bad == [] and checked == 17662


def test_walk_stage_keeps_the_final_ci_buckets():
    # the 98 cells of the CI verdict digests: the walk counts only spare
    # refinement rounds, they split nothing the rounds keep together
    bad, spared = walk_stage_keeps_final_buckets(sorted(CI_VERDICT_SHA256))
    assert bad == [] and spared == 1804


def test_packed_rounds_match_reference_refinement():
    # every set at n <= 16, then sizes <= 5 at n = 24, against tuple
    # signatures read off the edge-level adjacency
    bad, checked = packed_rounds_match_reference(16, 24, 5)
    assert bad == [] and checked == 2334


def test_rooted_key_is_invariant_under_units_and_type2_pairs():
    assert rooted_key_is_invariant(16, (16, 24)) == []


def test_rooted_key_separates_only_non_isomorphic_walk_ties():
    # the ci_census benchmark grid is (24, 3..5) and (32, 3)
    bad, counts = rooted_key_separates_walk_ties(((24, 3), (24, 4), (24, 5), (32, 3), (32, 4)))
    assert bad == []
    assert sum(counts.values()) == 35
    assert sum(counts.values()) - counts[(32, 4)] == 27


def test_unequal_signature_implies_non_isomorphic_samples():
    # The gcd signature no longer backs the CI census, which buckets by
    # the rooted refinement key; this keeps the signature's own claim checked
    # while the benchmark still traces it.  The oracle never looks at
    # signatures: every pair of same-size multiplier orbits at n <= 18
    # (4,240 pairs with unequal signatures), then random samples above.
    checked = 0
    for n in range(1, 19):
        for size in range(1, n // 2 + 1):
            reps = sorted(
                {
                    adam_orbit(ConnectionSet(n, combo)).members[0]
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
