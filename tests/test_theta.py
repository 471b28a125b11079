import pytest

from circiso.graphs import ConnectionSet, build_edges
from circiso.theta import (
    ThetaMap,
    apply_to_edges,
    jump_shortcut,
    shortcut_disagreement,
    theta_image,
)


def test_theta_perm_identity_at_t_zero():
    for n, m in [(16, 2), (24, 3), (12, 4)]:
        tm = ThetaMap(n, m, 0)
        assert [tm.apply(x) for x in range(n)] == list(range(n))


def test_theta_perm_16_2_2():
    tm = ThetaMap(16, 2, 2)
    for x in range(0, 16, 2):
        assert tm.apply(x) == x
    for x in range(1, 16, 2):
        assert tm.apply(x) == (x + 4) % 16


def test_theta_perm_24_2_3_is_bijection():
    tm = ThetaMap(24, 2, 3)
    assert tm.apply(1) == 7
    assert sorted(map(tm.apply, range(24))) == list(range(24))


def test_theta_perm_fixes_zero_and_residue_class():
    for n, m in [(16, 2), (24, 2), (24, 3), (24, 4), (48, 6), (27, 3)]:
        for t in range(n // m):
            tm = ThetaMap(n, m, t)
            assert tm.apply(0) == 0
            for x in range(n):
                assert tm.apply(x) % m == x % m


@pytest.mark.parametrize(
    "n, m, t",
    [
        (16, 3, 1),  # m does not divide n
        (16, 2, 8),  # t out of range
        (16, 1, 0),  # modulus too small
        (16, 2, -1),
    ],
)
def test_theta_perm_rejects_bad_parameters(n, m, t):
    with pytest.raises(ValueError):
        ThetaMap(n, m, t)


@pytest.mark.parametrize(
    "n, jumps, m, t, expected",
    [
        (16, (1, 6, 7), 2, 2, (3, 5, 6)),
        (24, (1, 2, 11), 2, 3, (2, 5, 7)),
        (24, (1, 2, 3), 2, 1, None),
        (24, (2, 3, 9), 2, 3, (2, 3, 9)),
        (24, (1, 10, 11), 2, 3, (5, 7, 10)),
    ],
)
def test_theta_image_examples(n, jumps, m, t, expected):
    res = theta_image(ConnectionSet(n, jumps), m, t)
    if expected is None:
        assert res.image is None
    else:
        assert res.image == ConnectionSet(n, expected)


@pytest.mark.parametrize(
    "n, jumps, m, t, expected",
    [
        (24, (1, 2, 3), 2, 6, (2, 9, 11)),
        (24, (5, 9, 10), 2, 1, None),
        (16, (1, 2, 7), 2, 0, (1, 2, 7)),
    ],
)
def test_jump_shortcut_examples(n, jumps, m, t, expected):
    res = jump_shortcut(ConnectionSet(n, jumps), m, t)
    if expected is None:
        assert res.image is None
    else:
        assert res.image == ConnectionSet(n, expected)


def test_edge_count_conserved():
    for n, jumps in [(16, (1, 6, 7)), (24, (1, 2, 3)), (24, (1, 2, 11, 12))]:
        c = ConnectionSet(n, jumps)
        edges = build_edges(c)
        for m in (2, 3, 4):
            if n % m:
                continue
            for t in range(n // m):
                image = apply_to_edges(ThetaMap(n, m, t), edges)
                assert len(image.edges) == len(edges.edges)


def test_image_is_isomorphic_by_construction():
    from circiso.oracle import are_isomorphic

    for n, jumps, m, t in [
        (16, (1, 6, 7), 2, 2),
        (24, (1, 2, 11), 2, 3),
        (24, (1, 2, 3), 2, 6),
    ]:
        c = ConnectionSet(n, jumps)
        res = theta_image(c, m, t)
        assert res.image is not None
        assert are_isomorphic(build_edges(c), build_edges(res.image))


def test_shortcut_disagreement_clean_for_m2_samples():
    for jumps in [(1, 2, 3), (1, 2, 11), (2, 3, 9), (1, 4, 11)]:
        c = ConnectionSet(24, jumps)
        for t in range(1, 12):
            assert shortcut_disagreement(c, 2, t) is None
