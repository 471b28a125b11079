"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line.  Criteria carry their stated runtime budgets; expected values are the
frozen reference lists in reference_data.

Criterion 2 passes, and keeps its disagreement with the published count in
view.  It pins the 32 published order-24 pairs as a named subset of the
census, and the 32 further pairs that the census finds by rule: the
published pairs with {3,9} added to both sides.  Those extras satisfy every
clause of the Type-2 definition as the paper's abstract states it, and each
is re-checked by code that shares nothing with the package.  The abstract
alone cannot settle whether the full paper has a further clause that
excludes them, so the test records both sets rather than choosing.
"""

import itertools
import time

from circiso.adam import adam_orbit, same_adam_orbit
from circiso.classify import ci_full_census, enumerate_type2
from circiso.cli import main as cli_main
from circiso.families import family_m2, family_m3, family_m5, family_m7, verify_instance
from circiso.graphs import ConnectionSet, build_edges
from circiso.oracle import are_isomorphic
from circiso.report import parse_census_json, theta_table_rows
from circiso.theta import theta_image

from reference_data import (
    NON_CI_TRIPLES_16,
    NON_CI_TRIPLES_24,
    PAIRS_16,
    PAIRS_24,
    THETA_TABLES_24,
)
from suites import (
    jump2_triple_necessity,
    orbit_symmetry,
    residue_kernel_agrees_with_edges,
    rooted_key_is_invariant,
    shortcut_agrees_with_edges,
    theta_group_law,
    type2_pair_violations,
    units_commute_with_theta,
    walk_counts_match_traces,
    walk_key_separates_only_non_isomorphic,
)


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    suffix = f" -- {detail}" if detail else ""
    print(f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {number} ({name}) failed{suffix}"


def test_criterion_1_census_16(capsys):
    start = time.monotonic()
    code = cli_main(["enumerate", "--n", "16", "--format", "json", "--canonical"])
    elapsed = time.monotonic() - start
    census = parse_census_json(capsys.readouterr().out)
    got = {(l.jumps, r.jumps) for l, r in census.pairs}
    ok = code == 0 and got == set(PAIRS_16) and elapsed < 10.0
    _report(1, "order-16 census", ok, f"{len(census.pairs)} pairs in {elapsed:.2f}s")


def test_criterion_2_census_24():
    """The order-24 census is the 32 published pairs plus, by rule, those 32
    with {3, 9} added to both sides.  The extras follow from the definition
    as the abstract states it: for m = 2 and t = 3 or 9 the shift adds
    t*m^2 = 12 to odd jumps, which permutes the block {3, 9, 15, 21}.  Each
    extra pair is re-checked by the package-free helpers of suites."""
    start = time.monotonic()
    census = enumerate_type2(24, 3, 12, jobs=1)
    elapsed = time.monotonic() - start
    got = {(l.jumps, r.jumps) for l, r in census.pairs}
    witnesses = {(l.jumps, r.jumps): w for (l, r), w in census.witnesses.items()}
    published = set(PAIRS_24)
    augmented = {
        (tuple(sorted(set(l) | {3, 9})), tuple(sorted(set(r) | {3, 9})))
        for l, r in PAIRS_24
    }
    all_m2 = all(2 in {m for m, _ in probes} for probes in witnesses.values())
    failures = [
        f"{name} pairs missing: {sorted(expected - got)}"
        for name, expected in (("published", published), ("{3,9}-augmented", augmented))
        if not expected <= got
    ]
    if got - published - augmented:
        failures.append(f"unexpected pairs: {sorted(got - published - augmented)}")
    for left, right in sorted(augmented & got):
        failures += [
            f"{left} ~ {right}: {v}"
            for v in type2_pair_violations(24, left, right, witnesses[(left, right)])
        ]
    ok = not failures and all_m2 and elapsed < 60.0
    detail = (
        f"{len(got)} pairs: {len(published & got)} published"
        f" + {len(got & augmented)} {{3,9}}-augmented in {elapsed:.2f}s,"
        f" every pair has an m=2 witness: {all_m2}"
    )
    if failures:
        detail += "; " + "; ".join(failures)
    _report(2, "order-24 census", ok, detail)


def test_criterion_3_theta_spot_checks():
    checks = [
        (16, (1, 6, 7), 2, 2, (3, 5, 6)),
        (24, (1, 2, 11), 2, 3, (2, 5, 7)),
        (24, (1, 10, 11), 2, 3, (5, 7, 10)),
        (24, (1, 2, 3), 2, 6, (2, 9, 11)),
        (24, (2, 3, 9), 2, 3, (2, 3, 9)),
    ]
    failures = []
    for n, jumps, m, t, expected in checks:
        res = theta_image(ConnectionSet(n, jumps), m, t)
        if res.image != ConnectionSet(n, expected):
            failures.append(f"{jumps} at (m={m}, t={t}) gave {res.image}")
    _report(3, "shift-image spot checks", not failures, "; ".join(failures))


def test_criterion_4_orbit_spot_checks():
    checks = [
        (16, (1, 6, 7), [(1, 6, 7), (2, 3, 5)]),
        (24, (1, 2, 3), [(1, 2, 3), (5, 9, 10), (3, 7, 10), (2, 9, 11)]),
        (24, (1, 2, 11), [(1, 2, 11), (5, 7, 10)]),
    ]
    failures = []
    for n, jumps, members in checks:
        orbit = adam_orbit(ConnectionSet(n, jumps))
        if set(orbit.members) != {ConnectionSet(n, m) for m in members}:
            failures.append(f"orbit of {jumps} = {[m.jumps for m in orbit.members]}")
    _report(4, "multiplier-orbit spot checks", not failures, "; ".join(failures))


def test_criterion_5_oracle_cross_verification():
    start = time.monotonic()
    failures = []
    for n, pairs in ((16, PAIRS_16), (24, PAIRS_24)):
        for left, right in pairs:
            a, b = ConnectionSet(n, left), ConnectionSet(n, right)
            if not are_isomorphic(build_edges(a), build_edges(b)):
                failures.append(f"oracle rejects {a} ~ {b}")
            if same_adam_orbit(a, b):
                failures.append(f"{a} and {b} share an orbit")
    if are_isomorphic(build_edges(ConnectionSet(8, (1,))), build_edges(ConnectionSet(8, (2,)))):
        failures.append("C_8(1) and C_8(2) reported isomorphic")
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 120.0
    _report(5, "oracle cross-verification", ok, f"{2 * 40 + 1} checks in {elapsed:.2f}s")


def test_criterion_6_table_reproduction():
    failures = []
    for jumps, expected_rows in THETA_TABLES_24.items():
        rows = theta_table_rows(ConnectionSet(24, jumps), 2)
        for row, (t, images, (verdict, unit)) in zip(rows, expected_rows):
            if (row.t, row.images, row.verdict, row.unit) != (t, images, verdict, unit):
                failures.append(f"{jumps} t={t}")
    _report(6, "published table reproduction", not failures, "; ".join(failures))


def test_criterion_7_families():
    start = time.monotonic()
    failures = []

    fi = family_m2(2, 1)
    if [s.jumps for s in fi.sets] != [(1, 2, 7), (2, 3, 5)] or fi.degenerate:
        failures.append("m2(2,1) wrong sets")
    fi = family_m2(3, 1)
    if [s.jumps for s in fi.sets] != [(1, 2, 11), (2, 5, 7)] or fi.degenerate:
        failures.append("m2(3,1) wrong sets")
    fi = family_m2(3, 2)
    if not fi.degenerate or fi.sets[0].jumps != (2, 3, 9):
        failures.append("m2(3,2) not flagged degenerate as (2,3,9)")

    for fi in (family_m2(2, 1), family_m2(3, 1), family_m3(1), family_m5(1), family_m7(1)):
        report = verify_instance(fi)
        if not report.ok:
            failed = [name for name, ok in report.checks if not ok]
            failures.append(f"{fi.kind} order {fi.order}: {failed}")
        if fi.order <= 32 and not report.oracle_checked:
            failures.append(f"{fi.kind} order {fi.order}: oracle skipped")
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 120.0
    _report(7, "parametric families", ok, f"{elapsed:.2f}s" if ok else "; ".join(failures))


def test_criterion_8_property_suites():
    start = time.monotonic()
    failures = []
    failures += theta_group_law(48)
    failures += shortcut_agrees_with_edges((16, 24), 4)
    failures += residue_kernel_agrees_with_edges(20)
    failures += units_commute_with_theta(20)
    failures += orbit_symmetry((16, 24))
    failures += jump2_triple_necessity((16, 24, 32, 40))
    failures += walk_counts_match_traces(16)
    bad, checked = walk_key_separates_only_non_isomorphic(18)
    failures += bad
    if checked != 4531:
        failures.append(f"walk-key suite checked {checked} orbit pairs, not 4,531")
    failures += rooted_key_is_invariant(16, (16, 24))
    elapsed = time.monotonic() - start
    _report(
        8,
        "property suites",
        not failures,
        f"{elapsed:.2f}s" if not failures else "; ".join(failures[:5]),
    )


def test_criterion_9_ci_census():
    start = time.monotonic()
    failures = []
    anomalies = []
    for n, non_ci in ((16, NON_CI_TRIPLES_16), (24, NON_CI_TRIPLES_24)):
        expected = {
            combo: combo not in non_ci
            for combo in itertools.combinations(range(1, n // 2 + 1), 3)
        }
        verdicts = ci_full_census(n, 3, expected_ci=expected)
        anomalies += [v.anomaly for v in verdicts if v.anomaly]
        census = enumerate_type2(n, 3, 3)
        reported_non_ci = {
            m.jumps for v in verdicts if not v.ci for m in v.orbit_members
        }
        for left, right in census.pairs:
            for member in (left, right):
                if member.jumps not in reported_non_ci:
                    failures.append(f"census member {member} not reported non-CI")
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 300.0
    detail = f"{elapsed:.2f}s, anomalies vs reference claims: {anomalies or 'none'}"
    _report(9, "CI census", ok, detail if ok else "; ".join(failures))
