import itertools

import pytest

from circiso.graphs import (
    ConnectionSet,
    EdgeSet,
    build_edges,
    detect_circulant,
    gcd_signature,
    is_isomorphism,
    parse_connection_sets,
)


def test_connection_set_validation():
    ConnectionSet(16, (1, 2, 8))
    with pytest.raises(ValueError):
        ConnectionSet(16, (1, 9))  # above n/2
    with pytest.raises(ValueError):
        ConnectionSet(16, (2, 1))  # not ascending
    with pytest.raises(ValueError):
        ConnectionSet(16, ())
    with pytest.raises(ValueError):
        ConnectionSet(1, (1,))


def test_connection_set_reduce_and_str():
    c = ConnectionSet.reduce(24, [2, 9, 11, 13, 15, 22])
    assert c.jumps == (2, 9, 11)
    assert str(c) == "C_24(2,9,11)"
    assert c.symmetric_jumps() == (2, 9, 11, 13, 15, 22)


@pytest.mark.parametrize(
    "n, jumps, count",
    [
        (4, (1, 2), 6),  # complete graph on 4 vertices
        (16, (1, 2, 7), 48),
        (8, (1, 4), 12),
        (24, (1, 2, 11, 12), 84),
    ],
)
def test_build_edges_count(n, jumps, count):
    e = build_edges(ConnectionSet(n, jumps))
    assert len(e.edges) == count


def test_edge_set_validation_and_neighbors():
    with pytest.raises(ValueError):
        EdgeSet(4, frozenset({(2, 1)}))  # not (min, max) normalised


def test_detect_circulant_round_trip_examples():
    c = ConnectionSet(16, (2, 3, 5))
    assert detect_circulant(16, build_edges(c)) == c


def test_detect_circulant_rejects_broken_rotation():
    e = build_edges(ConnectionSet(12, (1, 3)))
    broken = frozenset(set(e.edges) - {(0, 1)} | {(0, 2)})
    assert detect_circulant(12, EdgeSet(12, broken)) is None


def test_detect_circulant_round_trip_exhaustive_small():
    for n in range(4, 25):
        for size in (1, 2, 3, 4):
            if size > n // 2:
                continue
            for combo in itertools.combinations(range(1, n // 2 + 1), size):
                c = ConnectionSet(n, combo)
                assert detect_circulant(n, build_edges(c)) == c


@pytest.mark.parametrize(
    "n, jumps, signature",
    [
        (24, (1, 2, 11), (1, 1, 2)),
        (16, (1, 2, 7), (1, 1, 2)),
        (16, (2, 3, 5), (1, 1, 2)),
        (10, (1,), (1,)),
        (24, (3, 4, 9), (3, 3, 4)),
    ],
)
def test_gcd_signature(n, jumps, signature):
    assert gcd_signature(ConnectionSet(n, jumps)) == signature


def test_text_format_round_trip():
    text = """
    # leading comment
    16: 1, 6, 7
    24: 2,9,11,13,15,22   # trailing comment, values get reduced
    """
    sets = parse_connection_sets(text)
    assert [c.jumps for c in sets] == [(1, 6, 7), (2, 9, 11)]
    again = parse_connection_sets("16: 1,6,7\n24: 2,9,11")
    assert again == sets


def test_text_format_rejects_garbage():
    with pytest.raises(ValueError, match="line 1"):
        parse_connection_sets("sixteen: 1,2")
    with pytest.raises(ValueError):
        parse_connection_sets("16 1,2")


def test_is_isomorphism_refuses_what_is_no_bijection_or_no_match():
    a, b = ConnectionSet(8, (1, 2)), ConnectionSet(8, (2, 3))
    times_three = [3 * v % 8 for v in range(8)]
    assert is_isomorphism(a, b, times_three)  # 3 * {1, 2} = {3, 6} = +-{2, 3}
    assert not is_isomorphism(b, a, list(range(8)))
    assert not is_isomorphism(a, b, times_three[:-1])  # too short
    # maps that are no bijection, though every difference lands in +-{2}
    half = ConnectionSet(4, (2,))
    assert not is_isomorphism(half, half, [0, 0, 2, 2])
    assert not is_isomorphism(half, half, [4, 5, 6, 7])
    assert not is_isomorphism(a, ConnectionSet(8, (1, 2, 3)), times_three)  # sizes differ
    # every difference lands in +-{1}, but the jump 2 = n/2 gives C_4(2) two
    # edges against the four of C_4(1)
    assert not is_isomorphism(ConnectionSet(4, (2,)), ConnectionSet(4, (1,)), [0, 2, 1, 3])
    assert not is_isomorphism(a, ConnectionSet(10, (1, 2)), times_three)
