import pytest

from circiso.modarith import (
    DegenerateSetError,
    divisors_gt1,
    reduce_set,
    reflexive_reduce,
)


@pytest.mark.parametrize(
    "n, v, expected",
    [
        (24, 13, 11),
        (16, 8, 8),
        (24, 46, 2),
        (24, 24, 0),
        (24, -2, 2),
        (10, 5, 5),
        (10, 7, 3),
    ],
)
def test_reflexive_reduce(n, v, expected):
    assert reflexive_reduce(n, v) == expected


def test_reflexive_reduce_symmetry_and_periodicity():
    for n in range(2, 30):
        for v in range(-2 * n, 2 * n + 1):
            w = reflexive_reduce(n, v)
            assert 0 <= w <= n // 2
            assert w == reflexive_reduce(n, -v)
            assert w == reflexive_reduce(n, v + n)
            assert (w == 0) == (v % n == 0)


def test_reflexive_reduce_rejects_tiny_order():
    with pytest.raises(ValueError):
        reflexive_reduce(1, 3)


@pytest.mark.parametrize(
    "n, values, expected",
    [
        (16, [3, 6, 21], (3, 5, 6)),
        (24, [5, 10, 55], (5, 7, 10)),
        (24, [2, 9, 11, 13, 15, 22], (2, 9, 11)),
        (16, [1, 15, 17], (1,)),
    ],
)
def test_reduce_set(n, values, expected):
    assert reduce_set(n, values) == expected


def test_reduce_set_drops_zeros_but_rejects_empty():
    assert reduce_set(8, [8, 3]) == (3,)
    with pytest.raises(DegenerateSetError):
        reduce_set(8, [8, 16, 0])


def test_reduce_set_idempotent():
    for n in (9, 16, 24):
        for values in ([1, 5, 7, 20], [3, 6, 9], [n - 1, n + 1, 2 * n + 3]):
            once = reduce_set(n, values)
            assert reduce_set(n, once) == once


@pytest.mark.parametrize(
    "k, expected",
    [
        (12, [2, 3, 4, 6, 12]),
        (1, []),
        (2, [2]),
        (36, [2, 3, 4, 6, 9, 12, 18, 36]),
    ],
)
def test_divisors_gt1(k, expected):
    assert divisors_gt1(k) == expected


def test_divisors_gt1_brute_force():
    for k in range(1, 200):
        assert divisors_gt1(k) == [d for d in range(2, k + 1) if k % d == 0]
