import pytest

from circiso.classify import classify_pair, type2_partners
from circiso.families import (
    family_m2,
    family_m3,
    family_m5,
    family_m7,
    generate,
    scale_pair,
    verify_instance,
)
from circiso.graphs import ConnectionSet
from circiso.theta import theta_image


def test_family_m2_seed_instances():
    fi = family_m2(2, 1)
    assert fi.order == 16
    assert [s.jumps for s in fi.sets] == [(1, 2, 7), (2, 3, 5)]
    assert fi.expected_t == (2, 6)
    assert not fi.degenerate

    fi = family_m2(3, 1)
    assert fi.order == 24
    assert [s.jumps for s in fi.sets] == [(1, 2, 11), (2, 5, 7)]

    fi = family_m2(3, 2)
    assert fi.degenerate
    assert fi.sets[0] == fi.sets[1] == ConnectionSet(24, (2, 3, 9))


def test_family_m2_parameter_range():
    with pytest.raises(ValueError):
        family_m2(1, 1)
    with pytest.raises(ValueError):
        family_m2(2, 3)  # 2s-1 = 5 > 2n-1 = 3


def test_family_m2_degeneracy_is_exactly_n_equals_2s_minus_1():
    for n in range(2, 8):
        for s in range(1, n + 1):
            fi = family_m2(n, s)
            assert fi.degenerate == (n == 2 * s - 1)
            assert fi.degenerate == (fi.sets[0] == fi.sets[1])


def test_family_m3_small_instances():
    fi = family_m3(1)
    assert fi.order == 27
    assert [s.jumps for s in fi.sets] == [(1, 3, 8, 10), (3, 4, 5, 13), (2, 3, 7, 11)]
    assert family_m3(2).sets[0].jumps == (1, 3, 17, 19)


def test_family_m5_substitution():
    fi = family_m5(1)
    assert fi.order == 125
    assert fi.sets[0].jumps == (1, 5, 24, 26, 49, 51)
    assert fi.raw_sets[1][1] == 6  # second step distance
    assert fi.sets[1].jumps == (5, 6, 19, 31, 44, 56)


def test_family_m7_substitution():
    fi = family_m7(1)
    assert fi.order == 343
    assert fi.raw_sets[0][1] == 1
    assert fi.raw_sets[2][1] == 15
    assert fi.sets[0].jumps == (1, 7, 48, 50, 97, 99, 146, 148)


@pytest.mark.parametrize("n", range(1, 13))
def test_family_m5_m7_match_their_written_formulas(n):
    # each family's formula written out in full, d = p*n*(i-1) + 1 for i = 1..p
    m5 = [
        (5, d, 25 * n - d, 25 * n + d, 50 * n - d, 50 * n + d)
        for d in (5 * n * (i - 1) + 1 for i in range(1, 6))
    ]
    m7 = [
        (7, d, 49 * n - d, 49 * n + d, 98 * n - d, 98 * n + d, 147 * n - d, 147 * n + d)
        for d in (7 * n * (i - 1) + 1 for i in range(1, 8))
    ]
    for fi, kind, p, raw in ((family_m5(n), "m5", 5, m5), (family_m7(n), "m7", 7, m7)):
        order = p**3 * n
        assert (fi.kind, fi.order, fi.m, fi.params) == (kind, order, p, {"n": n})
        assert fi.raw_sets == tuple(raw)
        reduced = [tuple(sorted({min(v % order, -v % order) for v in r})) for r in raw]
        assert [c.jumps for c in fi.sets] == reduced
        assert fi.expected_t == (n,)


@pytest.mark.parametrize("kind, n, s", [("m2", 2, 1), ("m2", 3, 1), ("m3", 1, None), ("m5", 1, None), ("m7", 1, None)])
def test_verify_instance_passes(kind, n, s):
    fi = generate(kind, n, s=s)
    report = verify_instance(fi)
    assert report.ok, [name for name, ok in report.checks if not ok]
    assert report.oracle_checked == (fi.order <= 32)


def test_verify_instance_degenerate():
    report = verify_instance(family_m2(3, 2))
    assert report.ok
    assert not report.oracle_checked


@pytest.mark.parametrize("n", [1, 2])
def test_cycle_index_map_m3(n):
    fi = family_m3(n)
    for i in range(3):
        for j in range(3):
            walked = fi.sets[i]
            for _ in range(j):
                walked = theta_image(walked, 3, n).image
            assert walked == fi.sets[(i + j) % 3]


@pytest.mark.parametrize("n", [1, 2])
def test_shift_index_map_m5(n):
    fi = family_m5(n)
    for i in range(5):
        for j in range(5):
            image = theta_image(fi.sets[i], 5, (j * n) % (25 * n)).image
            assert image == fi.sets[(i + j) % 5]


@pytest.mark.parametrize("n", [1, 2])
def test_shift_index_map_m7(n):
    fi = family_m7(n)
    for i in range(7):
        for j in range(7):
            image = theta_image(fi.sets[i], 7, (j * n) % (49 * n)).image
            assert image == fi.sets[(i + j) % 7]


def test_pipeline_confirms_type2_for_desk_scale_instances():
    instances = [family_m2(n, s) for n in range(2, 7) for s in range(1, n + 1)]
    instances += [family_m3(n) for n in (1, 2)]
    instances += [family_m5(1), family_m7(1)]
    for fi in instances:
        if fi.degenerate or fi.order > 400:
            continue
        rec = classify_pair(fi.sets[0], fi.m, fi.expected_t[0])
        assert rec.kind == "type2", fi
        assert rec.image == fi.sets[1]


def test_scale_pair():
    left, right = scale_pair(
        ConnectionSet(16, (1, 2, 7)), ConnectionSet(16, (2, 3, 5)), 2
    )
    assert (left.n, left.jumps) == (32, (2, 4, 14))
    assert (right.n, right.jumps) == (32, (4, 6, 10))
    left, right = scale_pair(
        ConnectionSet(24, (1, 2, 11)), ConnectionSet(24, (2, 5, 7)), 3
    )
    assert left.n == right.n == 72


def test_scale_pair_preconditions():
    with pytest.raises(ValueError):
        scale_pair(ConnectionSet(16, (1,)), ConnectionSet(24, (1,)), 2)
    with pytest.raises(ValueError):
        scale_pair(ConnectionSet(16, (1,)), ConnectionSet(16, (2,)), 1)


def test_scaled_pair_is_rediscovered_as_type2():
    left, right = scale_pair(
        ConnectionSet(16, (1, 2, 7)), ConnectionSet(16, (2, 3, 5)), 2
    )
    partners = {(p.jumps, m, t) for p, m, t in type2_partners(left)}
    assert any(p == right.jumps for p, _, _ in partners)


def test_generate_dispatch_errors():
    with pytest.raises(ValueError):
        generate("m2", 2)  # missing s
    with pytest.raises(ValueError):
        generate("m4", 1)
