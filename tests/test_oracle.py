import itertools
from math import gcd

import pytest

from circiso.graphs import ConnectionSet, EdgeSet, build_edges
from circiso.oracle import (
    OracleCapError,
    _adjacency_masks,
    _neighbour_lists,
    are_isomorphic,
    refine_invariants,
)
from suites import reflexive_jump


def _edges(n, jumps):
    return build_edges(ConnectionSet(n, jumps))


def _seed_colors(g):
    """Sorted seed colours (degree, triangles, neighbour degrees) of g."""
    adj = _adjacency_masks(g)
    return sorted(refine_invariants(adj, _neighbour_lists(adj)))


def test_invariants_equal_for_isomorphic_pairs():
    assert _seed_colors(_edges(16, (1, 2, 7))) == _seed_colors(_edges(16, (2, 3, 5)))
    assert _seed_colors(_edges(24, (1, 2, 3))) == _seed_colors(_edges(24, (2, 9, 11)))


def test_invariants_distinguish_degrees():
    a = _seed_colors(_edges(8, (1,)))
    b = _seed_colors(_edges(8, (1, 2)))
    assert a != b
    assert [c[0] for c in a] == [2] * 8 and [c[0] for c in b] == [4] * 8


@pytest.mark.parametrize(
    "left, right, expected",
    [
        (((16, (1, 2, 7))), ((16, (2, 3, 5))), True),
        (((8, (1,))), ((8, (2,))), False),
        (((24, (1, 2, 3))), ((24, (2, 9, 11))), True),
        (((8, (1,))), ((8, (3,))), True),
        (((16, (1, 2, 7))), ((16, (1, 2, 3))), False),
    ],
)
def test_are_isomorphic_examples(left, right, expected):
    assert are_isomorphic(_edges(*left), _edges(*right)) is expected


def test_are_isomorphic_self():
    for n, jumps in [(8, (1, 2)), (16, (1, 6, 7)), (24, (3, 4, 9))]:
        e = _edges(n, jumps)
        assert are_isomorphic(e, e)


def test_are_isomorphic_rejects_order_mismatch_and_cap():
    with pytest.raises(ValueError):
        are_isomorphic(_edges(8, (1,)), _edges(10, (1,)))
    with pytest.raises(OracleCapError):
        are_isomorphic(_edges(34, (1,)), _edges(34, (1,)))
    assert are_isomorphic(_edges(34, (1,)), _edges(34, (3,)), cap=34)


def test_relabelled_graph_still_matches():
    # multiply vertices by a unit: an isomorphism that is not a rotation
    n = 13
    base = _edges(n, (1, 3))
    relabelled = EdgeSet(
        n,
        frozenset(
            (min(5 * u % n, 5 * v % n), max(5 * u % n, 5 * v % n)) for u, v in base.edges
        ),
    )
    assert are_isomorphic(base, relabelled)


def _brute_force_isomorphic(e1: EdgeSet, e2: EdgeSet) -> bool:
    if len(e1.edges) != len(e2.edges):
        return False
    target = e2.edges
    for perm in itertools.permutations(range(e1.n)):
        if all(
            ((perm[u], perm[v]) if perm[u] < perm[v] else (perm[v], perm[u])) in target
            for u, v in e1.edges
        ):
            return True
    return False


def test_oracle_against_brute_force_all_small_circulants():
    """Exhaustive cross-check on every pair of circulant graphs of orders
    7 and 8 (every jump set), against a from-scratch permutation search."""
    for n in (7, 8):
        sets = []
        for size in range(1, n // 2 + 1):
            sets.extend(itertools.combinations(range(1, n // 2 + 1), size))
        graphs = [_edges(n, jumps) for jumps in sets]
        for (j1, g1), (j2, g2) in itertools.combinations(list(zip(sets, graphs)), 2):
            assert are_isomorphic(g1, g2) == _brute_force_isomorphic(g1, g2), (n, j1, j2)


def test_iso_implies_equal_invariants():
    samples = [
        (16, (1, 2, 7), (2, 3, 5)),
        (24, (1, 10, 11), (5, 7, 10)),
        (24, (1, 4, 11), (4, 5, 7)),
    ]
    for n, a, b in samples:
        ga, gb = _edges(n, a), _edges(n, b)
        assert are_isomorphic(ga, gb)
        assert _seed_colors(ga) == _seed_colors(gb)


def test_unit_multiples_always_isomorphic():
    for n in (15, 16):
        for jumps in [(1, 2), (1, 3, 5)]:
            c = ConnectionSet(n, tuple(j for j in jumps if j <= n // 2))
            for x in range(2, n):
                if gcd(x, n) != 1:
                    continue
                scaled = sorted({reflexive_jump(n, x * r) for r in c.jumps})
                assert are_isomorphic(_edges(n, c.jumps), _edges(n, tuple(scaled)))
