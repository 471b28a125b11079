import functools
import hashlib
import itertools
import json
import logging
import os
import subprocess
import sys
from math import comb, gcd

import pytest

import circiso.adam as adam_mod
import circiso.classify as classify_mod
from circiso import cli
from circiso.adam import adam_orbit
from circiso.classify import (
    admissible_m,
    certify_isomorphism,
    ci_full_census,
    ci_theta_status,
    classify_pair,
    confirm_with_oracle,
    enumerate_type2,
    type2_partners,
)
from circiso.graphs import (
    WALK_PREFIX,
    ConnectionSet,
    build_edges,
    refinement_rounds,
    walk_counts,
)
from circiso.oracle import are_isomorphic
from circiso.report import emit_census
from circiso.theta import _mask_jumps, theta_image

from reference_data import (
    CENSUS_48,
    CENSUS_JSON_SHA256,
    CI_VERDICT_SHA256,
    NON_CI_TRIPLES_24,
    ORBIT_TABLE_ROWS_24,
    PAIRS_16,
    PAIRS_24,
)
from suites import (
    brute_unit_orbit,
    closed_walk_counts,
    edge_level_image,
    every_circulant_is_ci,
    type2_pair_violations,
    vertex_map_is_isomorphism,
)


@pytest.mark.parametrize(
    "n, jumps, expected",
    [
        (16, (1, 2, 7), [2]),
        (24, (1, 4, 11), [2, 4]),
        (15, (1, 2, 4), []),
        (24, (3, 4, 9), [2, 3, 4]),
    ],
)
def test_admissible_m(n, jumps, expected):
    assert admissible_m(ConnectionSet(n, jumps)) == expected


def test_classify_pair_examples():
    rec = classify_pair(ConnectionSet(16, (1, 4, 7)), 2, 2)
    assert (rec.kind, rec.image.jumps, rec.unit) == ("type1", (3, 4, 5), 3)

    rec = classify_pair(ConnectionSet(16, (1, 6, 7)), 2, 2)
    assert (rec.kind, rec.image.jumps) == ("type2", (3, 5, 6))

    rec = classify_pair(ConnectionSet(24, (2, 3, 9)), 2, 3)
    assert rec.kind == "self"

    rec = classify_pair(ConnectionSet(24, (1, 2, 3)), 2, 1)
    assert rec.kind == "not-circulant"


def test_classify_pair_rejects_bad_probe():
    c = ConnectionSet(24, (1, 2, 3))
    with pytest.raises(ValueError):
        classify_pair(c, 5, 1)  # 5 divides no gcd(24, r)
    with pytest.raises(ValueError):
        classify_pair(c, 2, 0)
    with pytest.raises(ValueError):
        classify_pair(c, 2, 12)


def test_type2_partners_examples():
    partners = type2_partners(ConnectionSet(16, (1, 2, 7)))
    assert partners == [
        (ConnectionSet(16, (2, 3, 5)), 2, 2),
        (ConnectionSet(16, (2, 3, 5)), 2, 6),
    ]
    assert type2_partners(ConnectionSet(24, (1, 2, 3))) == []
    partners = type2_partners(ConnectionSet(24, (1, 10, 11)))
    assert {(p.jumps, m, t) for p, m, t in partners} == {
        ((5, 7, 10), 2, 3),
        ((5, 7, 10), 2, 9),
    }


def test_type2_partners_small_set_gate():
    c = ConnectionSet(16, (1, 2))
    with pytest.raises(ValueError):
        type2_partners(c)
    assert type2_partners(c, allow_small=True) == []


@pytest.mark.parametrize(
    "n, jumps, verdict",
    [
        (24, (3, 4, 9), "ci-theta"),
        (16, (1, 2, 7), "non-ci"),
        (24, (1, 2, 3), "ci-theta"),
        (24, (1, 2, 11), "non-ci"),
    ],
)
def test_ci_theta_status(n, jumps, verdict):
    status = ci_theta_status(ConnectionSet(n, jumps))
    assert status.verdict == verdict
    assert bool(status.evidence) == (verdict == "non-ci")


def test_census_16_is_the_reference_list():
    census = enumerate_type2(16, 3, 8)
    assert {(l.jumps, r.jumps) for l, r in census.pairs} == set(PAIRS_16)
    assert census.counts == {3: 2, 4: 4, 5: 2}


def test_census_24_contains_reference_pairs_plus_block_augmented():
    """The exhaustive order-24 census finds the 32 published pairs plus the
    32 pairs obtained by adding {3, 9} to both sides.

    The odd multiples of 3 in Z_24 form a negation-closed, unit-invariant
    block that the t=3 and t=9 shifts permute, so the augmented pairs
    satisfy every clause of the Type-2 definition; each one is re-verified
    here through the oracle and orbit exclusion, and again by the
    package-free helpers of suites.
    """
    census = enumerate_type2(24, 3, 12)
    got = {(l.jumps, r.jumps) for l, r in census.pairs}
    reference = set(PAIRS_24)
    assert reference <= got
    extras = got - reference
    augmented = {
        (
            tuple(sorted(set(left) | {3, 9})),
            tuple(sorted(set(right) | {3, 9})),
        )
        for left, right in reference
    }
    assert extras == augmented
    assert len(census.pairs) == 64
    for left, right in sorted(extras):
        a, b = ConnectionSet(24, left), ConnectionSet(24, right)
        assert b not in adam_orbit(a).witness
        assert are_isomorphic(build_edges(a), build_edges(b))
        assert type2_pair_violations(24, left, right, census.witnesses[(a, b)]) == []
    # every pair, reference or extra, carries an m=2 witness
    for pair in census.pairs:
        assert 2 in {m for m, _ in census.witnesses[pair]}


def test_census_members_are_non_ci():
    census = enumerate_type2(16, 3, 8)
    for pair in census.pairs:
        for member in pair:
            assert ci_theta_status(member).verdict == "non-ci"


def test_census_closure_and_determinism():
    census = enumerate_type2(16, 3, 8)
    for left, right in census.pairs:
        kinds = set()
        for m, t in census.witnesses[(left, right)]:
            for source, target in ((left, right), (right, left)):
                res = theta_image(source, m, t)
                if res.image == target:
                    kinds.add(classify_pair(source, m, t).kind)
        assert "type2" in kinds
    again = enumerate_type2(16, 3, 8)
    assert again.pairs == census.pairs
    assert again.witnesses == census.witnesses


def test_type2_census_probes_sizes_up_to_half_and_mirrors_the_rest(monkeypatch):
    # every size 1..h at every n <= 40, h = n // 2: at an order with a
    # modulus left `_census_part` runs once for each size k <= h - k and
    # for no other, the tables go up to the largest of them, and every
    # size's pairs and witnesses equal those of running `_census_part` on
    # that size directly; at an order without one nothing runs
    candidate_tables = classify_mod._candidate_tables
    step_candidates = classify_mod._step_candidates
    census_part = classify_mod._census_part
    tops, probed, parts = [], [], []

    def tables_recorder(n, moduli, top):
        tops.append(top)
        return candidate_tables(n, moduli, top)

    def step_recorder(tables, k):
        probed.append(k)
        return step_candidates(tables, k)

    def part_recorder(n, candidates):
        parts.append(n)
        return census_part(n, candidates)

    monkeypatch.setattr(classify_mod, "_candidate_tables", tables_recorder)
    monkeypatch.setattr(classify_mod, "_step_candidates", step_recorder)
    monkeypatch.setattr(classify_mod, "_census_part", part_recorder)
    for n in range(4, 41):
        h = n // 2
        for calls in (tops, probed, parts):
            calls.clear()
        census = enumerate_type2(n, 1, h, allow_small=True)
        if not classify_mod._order_moduli(n):
            assert (tops, probed, parts, census.pairs) == ([], [], [], ()), n
            continue
        assert probed == list(range(1, h // 2 + 1)) and len(parts) == len(probed)
        assert tops == [h // 2]
        rows = [(a.jumps, b.jumps, w) for (a, b), w in census.witnesses.items()]
        tables = candidate_tables(n, classify_mod._order_tables(n)[2], h)
        for k in range(1, h + 1):
            part = census_part(n, step_candidates(tables, k))
            direct = sorted(
                (*sorted(tuple(_mask_jumps(v)) for v in masks), tuple(sorted(probes)))
                for masks, probes in part.items()
            )
            assert [row for row in rows if len(row[0]) == k] == direct, (n, k)


@pytest.mark.parametrize("n", sorted(CENSUS_JSON_SHA256))
def test_canonical_census_json_matches_recorded_digest(n):
    text = emit_census(enumerate_type2(n), format="json", canonical=True)
    assert hashlib.sha256(text.encode()).hexdigest() == CENSUS_JSON_SHA256[n]


def test_order_48_census_matches_the_recorded_pairs():
    census = enumerate_type2(48)
    witnesses = census.witnesses
    rows = [[left.jumps, right.jumps, witnesses[(left, right)]] for left, right in census.pairs]
    assert len(census.pairs) == CENSUS_48["pair_count"]
    assert census.counts == CENSUS_48["counts_by_size"]
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == CENSUS_48["compact_sha256"]


def test_narrow_census_at_a_large_order_builds_only_the_sizes_asked_for():
    # The candidate tables stop at size_max: at n = 128 the 32 even jumps
    # have 2^32 subsets, which a table of every size would have to hold.
    # 456 pairs of size 3, as counted before the tables were shared.
    moduli = classify_mod._order_tables(128)[2]
    for _, fsets, unions in classify_mod._candidate_tables(128, moduli, 3):
        assert len(fsets) <= 4
        assert all(len(by_size) == 4 for by_size in unions)
    assert len(enumerate_type2(128, 3, 3).pairs) == 456


def test_type2_census_is_empty_at_every_ci_order():
    # A Type-2 pair is isomorphic but not Type-1, so it makes both graphs
    # non-CI; Muzychuk's theorem rules that out at the CI orders.
    ci_orders = [n for n in range(6, 49) if every_circulant_is_ci(n)]
    assert [n for n in range(6, 49) if n not in ci_orders] == [16, 24, 25, 27, 32, 36, 40, 45, 48]
    for n in ci_orders:
        assert enumerate_type2(n, 1, n // 2, allow_small=True).pairs == (), n
    for n in (16, 24, 27, 32, 40):
        assert enumerate_type2(n, 1, n // 2, allow_small=True).pairs, n


@pytest.mark.parametrize("n, size_min, size_max", [(60, 1, 30), (1050, 3, 3)])
def test_census_without_moduli_builds_no_tables(monkeypatch, n, size_min, size_max):
    # Both orders are cube-free, so the unit-shift lemma leaves no modulus:
    # the census is empty and builds no byte table, no candidate table and
    # probes no part.
    def refuse(*args):
        raise AssertionError("built or probed although no modulus is left")

    for name in ("_byte_table", "_candidate_tables", "_census_part"):
        monkeypatch.setattr(classify_mod, name, refuse)
    classify_mod._order_tables.cache_clear()
    census = enumerate_type2(n, size_min, size_max, allow_small=True)
    assert classify_mod._order_moduli(n) == ()
    assert census.pairs == () and census.counts == {}
    assert (census.n, census.size_min, census.size_max) == (n, size_min, size_max)


def test_type2_pairs_exist_at_exactly_these_orders_up_to_54():
    # Every size at every order: none at the cube-free non-CI orders 25,
    # 36, 45 and 50, nor at any CI order.
    have = [n for n in range(6, 55) if enumerate_type2(n, 1, n // 2, allow_small=True).pairs]
    assert have == [16, 24, 27, 32, 40, 48, 54]


def test_census_preconditions():
    with pytest.raises(ValueError):
        enumerate_type2(3)
    with pytest.raises(ValueError):
        enumerate_type2(16, 2, 8)  # size_min < 3 without allow_small
    with pytest.raises(ValueError):
        enumerate_type2(16, 3, 9)  # size_max above n/2
    small = enumerate_type2(8, 2, 2, allow_small=True)
    assert small.pairs == ()


def _reference_census(n, size_min, size_max):
    """Independent mini-census: direct permutation images, direct rotation
    test, brute-force orbits.  Deliberately shares no code with the package:
    it runs only on the package-free helpers of suites."""
    found = set()
    for size in range(size_min, size_max + 1):
        for combo in itertools.combinations(range(1, n // 2 + 1), size):
            moduli = set()
            for r in combo:
                g = gcd(n, r)
                moduli.update(m for m in range(2, g + 1) if g % m == 0)
            orbit = brute_unit_orbit(n, combo)
            for m in moduli:
                for t in range(1, n // m):
                    candidate = edge_level_image(n, m, t, combo)
                    if candidate is None or candidate == combo or candidate in orbit:
                        continue
                    found.add(tuple(sorted((combo, candidate))))
    return found


@pytest.mark.parametrize("n, size_min, size_max", [(9, 3, 4), (12, 3, 6), (16, 3, 5)])
def test_census_matches_independent_enumeration(n, size_min, size_max):
    census = enumerate_type2(n, size_min, size_max)
    got = {(l.jumps, r.jumps) for l, r in census.pairs}
    assert got == _reference_census(n, size_min, size_max)


def test_census_order_9_is_empty():
    assert enumerate_type2(9, 3, 4).pairs == ()


def test_confirm_with_oracle():
    census = enumerate_type2(16, 3, 4)
    confirm_with_oracle(census)
    assert census.oracle_confirmed is not None
    assert all(census.oracle_confirmed.values())


def test_published_orbit_table_rows():
    """Sampled rows of the published order-24 summary tables: the t=3,6,9
    shift outcomes and the full orbit membership (the T1 column read as the
    multiplier orbit) must match what the pipeline computes."""
    for jumps, at3, at6, at9, members in ORBIT_TABLE_ROWS_24:
        c = ConnectionSet(24, jumps)
        for t, expected in ((3, at3), (6, at6), (9, at9)):
            res = theta_image(c, 2, t)
            if expected is None:
                assert res.image is None, (jumps, t)
            else:
                assert res.image == ConnectionSet(24, expected), (jumps, t)
        orbit = adam_orbit(c)
        assert set(orbit.members) == {ConnectionSet(24, m) for m in members}, jumps


def test_ci_full_census_16():
    verdicts = ci_full_census(16, 3)
    non_ci = {m.jumps for v in verdicts if not v.ci for m in v.orbit_members}
    assert non_ci == {(1, 2, 7), (3, 5, 6), (1, 6, 7), (2, 3, 5)}
    by_rep = {v.orbit_members[0].jumps: v for v in verdicts}
    assert by_rep[(1, 2, 7)].isomorphic_to == (ConnectionSet(16, (1, 6, 7)),)


def test_ci_full_census_24_size3():
    verdicts = ci_full_census(24, 3)
    non_ci = {m.jumps for v in verdicts if not v.ci for m in v.orbit_members}
    assert non_ci == NON_CI_TRIPLES_24
    # spot check a CI orbit
    rep = next(v for v in verdicts if ConnectionSet(24, (2, 3, 9)) in v.orbit_members)
    assert rep.ci and rep.isomorphic_to == ()


def test_ci_full_census_size1():
    verdicts = ci_full_census(8, 1)
    assert all(v.ci for v in verdicts)
    orbit_of_1 = next(v for v in verdicts if ConnectionSet(8, (1,)) in v.orbit_members)
    assert ConnectionSet(8, (3,)) in orbit_of_1.orbit_members


def test_ci_full_census_anomaly_reporting():
    expected = {combo: True for combo in itertools.combinations(range(1, 9), 3)}
    expected[(1, 2, 7)] = True  # deliberately wrong: census finds non-CI
    verdicts = ci_full_census(16, 3, expected_ci=expected)
    anomalies = [v.anomaly for v in verdicts if v.anomaly]
    assert anomalies and any("(1,2,7)" in a.replace(" ", "") for a in anomalies)


def test_ci_full_census_verdicts_match_recorded_digests():
    # 98 censuses; the digests were recorded from the gcd-signature buckets,
    # so a bucket key that separates an isomorphic pair of orbits fails here
    mismatched = []
    for (n, size), digest in CI_VERDICT_SHA256.items():
        rows = [
            [[m.jumps for m in v.orbit_members], v.ci, [p.jumps for p in v.isomorphic_to], v.anomaly]
            for v in ci_full_census(n, size)
        ]
        if hashlib.sha256(json.dumps(rows).encode()).hexdigest() != digest:
            mismatched.append((n, size))
    assert len(CI_VERDICT_SHA256) == 98 and mismatched == []


def test_ci_full_census_keys_only_orbits_that_share_a_component_count(monkeypatch):
    # at size 1 the component count gcd(n, r) tells every orbit apart, so a
    # large order takes no walk step, no refinement round and no oracle call
    keyed, decided = [], []

    def recorder(c):
        keyed.append(c)
        yield from ()

    monkeypatch.setattr(classify_mod, "walk_counts", recorder)
    monkeypatch.setattr(classify_mod, "refinement_rounds", recorder)
    monkeypatch.setattr(classify_mod, "are_isomorphic", lambda *a, **k: decided.append(a))
    verdicts = ci_full_census(1200, 1, oracle_cap=2000)
    assert len(verdicts) == 29 and all(v.ci for v in verdicts)
    assert keyed == [] and decided == []


CI_CENSUS_GRID = ((24, 3), (24, 4), (24, 5), (32, 3))  # the perfbench ci_census pass


def test_ci_full_census_oracle_confirms_only_isomorphic_pairs(monkeypatch):
    # a move joins every pair that shares a final bucket on the grid, so all
    # 16 pairs are certified by a checked map and the oracle is never asked
    decided, certified = [], []

    def recorder(a, b):
        certified.append((a, b, certify_isomorphism(a, b)))
        return certified[-1][2]

    monkeypatch.setattr(classify_mod, "are_isomorphic", lambda *a, **k: decided.append(a))
    monkeypatch.setattr(classify_mod, "certify_isomorphism", recorder)
    for n, size in CI_CENSUS_GRID:
        ci_full_census(n, size)
    assert decided == [] and len(certified) == 16
    assert all(vertex_map_is_isomorphism(a.n, a.jumps, b.jumps, phi) for a, b, phi in certified)


def test_certification_builds_only_the_orbit_of_the_target(monkeypatch, capsys):
    # builds counted through a fresh one-entry memo over the unmemoised
    # builder, so memo hits do not count; the parent built the orbit of the
    # source too, through classify_pair: 2, 32 and 2 builds
    builds = []

    def build(c):
        builds.append(c)
        return adam_orbit.__wrapped__(c)

    counted = functools.lru_cache(maxsize=1)(build)
    monkeypatch.setattr(adam_mod, "adam_orbit", counted)
    monkeypatch.setattr(classify_mod, "adam_orbit", counted)

    def refuse(*args):
        raise AssertionError("certify_isomorphism classified a probe")

    monkeypatch.setattr(classify_mod, "classify_pair", refuse)
    left, right = ConnectionSet(16, (1, 2, 7)), ConnectionSet(16, (2, 3, 5))
    assert certify_isomorphism(left, right) is not None
    assert builds == [right]
    builds.clear()
    for n, size in CI_CENSUS_GRID:
        ci_full_census(n, size)
    assert len(builds) == 16
    builds.clear()
    assert cli.main(["verify", "--n", "16", "--left", "1,2,7", "--right", "2,3,5"]) == 0
    assert "Type-2 candidate" in capsys.readouterr().out
    assert builds == [right]


C25_LEFT = ConnectionSet(25, (1, 4, 5, 6, 9, 11))
C25_RIGHT = ConnectionSet(25, (1, 4, 6, 9, 10, 11))


def test_oracle_decides_the_pair_that_no_move_joins(monkeypatch):
    # an isomorphic pair outside the reach of units and residue shifts: no
    # map is offered either way, and the one oracle call of the (25, 6)
    # census joins the two orbits
    assert certify_isomorphism(C25_LEFT, C25_RIGHT) is None
    assert certify_isomorphism(C25_RIGHT, C25_LEFT) is None
    decided = []

    def recorder(left, right, **kwargs):
        decided.append(are_isomorphic(left, right, **kwargs))
        return decided[-1]

    monkeypatch.setattr(classify_mod, "are_isomorphic", recorder)
    non_ci = [v for v in ci_full_census(25, 6) if not v.ci]
    assert decided == [True] and len(non_ci) == 2
    left, right = sorted(non_ci, key=lambda v: C25_RIGHT in v.orbit_members)
    assert C25_LEFT in left.orbit_members and C25_RIGHT in right.orbit_members
    assert left.isomorphic_to == (right.orbit_members[0],)


def test_ci_full_census_needs_the_oracle_first_at_order_25(monkeypatch):
    # at every order up to 25 and every size, the keys separate all
    # non-isomorphic pairs and a move joins every isomorphic one, except
    # the one pair at (25, 6) above
    decided = []

    def recorder(left, right, **kwargs):
        decided.append((left.n, are_isomorphic(left, right, **kwargs)))
        return decided[-1][1]

    monkeypatch.setattr(classify_mod, "are_isomorphic", recorder)
    for n in range(2, 26):
        for size in range(1, n // 2 + 1):
            ci_full_census(n, size)
    assert decided == [(25, True)]


def test_ci_full_census_finds_non_ci_orbits_exactly_at_muzychuk_orders():
    # Muzychuk (Discrete Math. 1997): every circulant of order n is a
    # CI-graph iff n is 8, 9 or 18, or n = k, 2k or 4k with k odd and
    # squarefree.  The sizes 1..n/2 reach every circulant of order n, so a
    # census over all of them finds a non-CI orbit iff n is not such an
    # order; at 36 and 40 one already shows at a size <= 6.
    smallest = {}
    for n, max_size in [(n, n // 2) for n in range(4, 35)] + [(36, 6), (40, 6)]:
        for size in range(1, max_size + 1):
            if not all(v.ci for v in ci_full_census(n, size, oracle_cap=max(n, 34))):
                smallest[n] = size
                break
        else:
            assert n <= 34 and every_circulant_is_ci(n), n
    assert all(not every_circulant_is_ci(n) for n in smallest)
    assert smallest == {16: 3, 24: 3, 25: 6, 27: 4, 32: 3, 36: 4, 40: 3}


def test_certify_isomorphism_refuses_orders_and_skips_sizes():
    assert certify_isomorphism(ConnectionSet(16, (1, 2)), ConnectionSet(16, (1, 2, 3))) is None
    with pytest.raises(ValueError):
        certify_isomorphism(ConnectionSet(16, (1, 2)), ConnectionSet(18, (1, 2)))
    # the identity certifies a set against itself
    assert certify_isomorphism(ConnectionSet(16, (1, 2)), ConnectionSet(16, (1, 2))) == tuple(
        range(16)
    )


@pytest.mark.parametrize("n, size", CI_CENSUS_GRID)
def test_ci_full_census_roots_only_component_ties(monkeypatch, n, size):
    # walk steps start on exactly the orbits that share a component count,
    # refinement rounds on exactly those that also share W_1..W_8, and each
    # generator is started at most once per orbit
    walked, rooted = [], []

    def walk_recorder(c):
        walked.append(c)
        yield from walk_counts(c)

    def root_recorder(c):
        rooted.append(c)
        yield from refinement_rounds(c)

    monkeypatch.setattr(classify_mod, "walk_counts", walk_recorder)
    monkeypatch.setattr(classify_mod, "refinement_rounds", root_recorder)
    reps = [v.orbit_members[0] for v in ci_full_census(n, size)]
    components = [gcd(n, *rep.jumps) for rep in reps]
    walks = [
        (count, closed_walk_counts(n, rep.jumps)[:WALK_PREFIX])
        for rep, count in zip(reps, components)
    ]
    tied = {rep for rep, count in zip(reps, components) if components.count(count) > 1}
    walk_tied = {rep for rep, key in zip(reps, walks) if walks.count(key) > 1}
    assert sorted(walked) == sorted(tied) and len(walked) == len(set(walked))
    assert sorted(rooted) == sorted(walk_tied) and len(rooted) == len(set(rooted))


def test_ci_full_census_prints_nothing_by_default():
    # a fresh interpreter, so no logging set-up of the test runner applies
    code = "from circiso.classify import ci_full_census; ci_full_census(24, 4)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, b"", b"")


def test_ci_full_census_debug_record_is_self_consistent(caplog):
    caplog.set_level(logging.DEBUG, logger="circiso.classify")
    rooted_keys = walk_steps = rounds = 0
    for n, size in CI_CENSUS_GRID:
        caplog.clear()
        verdicts = ci_full_census(n, size)
        (record,) = [r for r in caplog.records if r.name == "circiso.classify"]
        stats = record.args
        assert stats["n"] == n and stats["size"] == size
        assert stats["orbits"] == len(verdicts)
        assert stats["rooted_keys"] <= stats["walk_keys"] <= stats["orbits"]
        assert stats["walk_keys"] <= stats["walk_steps"] <= WALK_PREFIX * stats["walk_keys"]
        assert stats["rooted_keys"] <= stats["rounds"] <= n * stats["rooted_keys"]
        assert stats["certified"] + stats["oracle_calls"] == sum(
            comb(b, 2) for b in stats["buckets"]
        )
        assert 2 * stats["isomorphic_pairs"] == sum(len(v.isomorphic_to) for v in verdicts)
        assert stats["elapsed_s"] >= 0
        rooted_keys += stats["rooted_keys"]
        walk_steps += stats["walk_steps"]
        rounds += stats["rounds"]
    # the walk counts leave few ties for the refinement on the grid, and
    # both stages stop at the first value that sets an orbit apart
    assert rooted_keys <= 100
    assert walk_steps <= 3000 and rounds <= 320


def test_mirrored_ci_census_says_so_in_its_debug_record(caplog):
    # a size k > h - k runs at h - k; size h = n // 2 and the sizes up to
    # h/2 run as asked
    caplog.set_level(logging.DEBUG, logger="circiso.classify")
    for n, size, source in ((16, 5, 3), (16, 4, None), (16, 8, None), (24, 9, 3), (27, 10, 3)):
        caplog.clear()
        verdicts = ci_full_census(n, size)
        (record,) = [r for r in caplog.records if r.name == "circiso.classify"]
        assert record.args["mirrored_from"] == source
        assert f"size={size} mirrored_from={source}:" in record.getMessage()
        assert record.args["orbits"] == len(verdicts)
        assert {len(c.jumps) for v in verdicts for c in v.orbit_members} == {size}


def test_ci_full_census_respects_cap():
    with pytest.raises(ValueError):
        ci_full_census(40, 3)
