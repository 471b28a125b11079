import itertools
from math import gcd

import pytest

from circiso.adam import adam_orbit, multiply_set, same_adam_orbit
from circiso.graphs import ConnectionSet
from suites import brute_unit_orbit


@pytest.mark.parametrize(
    "n, jumps, x, expected",
    [
        (16, (1, 4, 7), 3, (3, 4, 5)),
        (16, (1, 6, 7), 1, (1, 6, 7)),
        (24, (1, 2, 11), 5, (5, 7, 10)),
        (24, (1, 2, 3), 11, (2, 9, 11)),
    ],
)
def test_multiply_set(n, jumps, x, expected):
    assert multiply_set(ConnectionSet(n, jumps), x).jumps == expected


def test_multiply_set_rejects_non_unit():
    with pytest.raises(ValueError):
        multiply_set(ConnectionSet(24, (1, 2, 3)), 6)


def test_multiply_preserves_cardinality():
    for n in (16, 24, 27):
        for jumps in [(1, 2), (1, 3, 5), (2, 4, 6, 7)]:
            c = ConnectionSet(n, tuple(j for j in jumps if j <= n // 2))
            for x in range(1, n):
                if gcd(x, n) != 1:
                    continue
                assert len(multiply_set(c, x).jumps) == len(c.jumps)


@pytest.mark.parametrize(
    "n, jumps, members",
    [
        (16, (1, 6, 7), [(1, 6, 7), (2, 3, 5)]),
        (24, (1, 2, 3), [(1, 2, 3), (2, 9, 11), (3, 7, 10), (5, 9, 10)]),
        (24, (1, 2, 11), [(1, 2, 11), (5, 7, 10)]),
    ],
)
def test_adam_orbit_members(n, jumps, members):
    orbit = adam_orbit(ConnectionSet(n, jumps))
    assert [m.jumps for m in orbit.members] == members


def test_adam_orbit_of_complete_graph_is_singleton():
    for n in (8, 12, 16):
        c = ConnectionSet(n, tuple(range(1, n // 2 + 1)))
        assert adam_orbit(c).members == (c,)


def test_adam_orbit_witnesses_reproduce_members():
    for n, jumps in [(16, (1, 6, 7)), (24, (1, 2, 3)), (24, (1, 4, 11))]:
        c = ConnectionSet(n, jumps)
        orbit = adam_orbit(c)
        assert c in orbit.witness
        for member, x in orbit.witness.items():
            assert multiply_set(c, x) == member


def test_adam_orbit_closed_under_units():
    for n, jumps in [(16, (1, 2, 7)), (24, (2, 3, 9)), (20, (1, 4, 5))]:
        orbit = adam_orbit(ConnectionSet(n, jumps))
        members = set(orbit.members)
        for member in members:
            for x in range(1, n):
                if gcd(x, n) != 1:
                    continue
                assert multiply_set(member, x) in members


@pytest.mark.parametrize(
    "a, b, expected",
    [
        ((1, 6, 7), (2, 3, 5), True),
        ((1, 6, 7), (3, 5, 6), False),
        ((1, 6, 7), (1, 6, 7), True),
    ],
)
def test_same_adam_orbit_examples(a, b, expected):
    assert same_adam_orbit(ConnectionSet(16, a), ConnectionSet(16, b)) is expected


def test_same_adam_orbit_rejects_order_mismatch():
    with pytest.raises(ValueError):
        same_adam_orbit(ConnectionSet(16, (1, 2)), ConnectionSet(24, (1, 2)))


def test_orbits_partition_triples_of_order_16():
    triples = [
        ConnectionSet(16, combo) for combo in itertools.combinations(range(1, 9), 3)
    ]
    seen = {}
    for c in triples:
        rep = adam_orbit(c).members[0]
        seen.setdefault(rep, set()).add(c)
    # orbits are disjoint and cover the family
    assert sum(len(v) for v in seen.values()) == len(triples)
    for rep, block in seen.items():
        assert set(adam_orbit(rep).members) == block


def test_interleaved_orbits_match_brute_force():
    # the same jumps at two orders, repeats and alternations: each call must
    # answer for its own argument even though the last orbit is memoised
    sets = [(16, (1, 2, 3)), (24, (1, 2, 3)), (24, (1, 2, 3)), (16, (1, 6, 7)),
            (24, (1, 2, 3)), (16, (1, 2, 3)), (16, (1, 6, 7)), (20, (1, 4, 5))]
    for n, jumps in sets:
        c = ConnectionSet(n, jumps)
        orbit = adam_orbit(c)
        assert {m.jumps for m in orbit.members} == brute_unit_orbit(n, jumps)
        for member, x in orbit.witness.items():
            assert multiply_set(c, x) == member
