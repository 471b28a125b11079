import csv
import io
import json

import pytest

from circiso.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_reduce(capsys):
    code, out, _ = run_cli(capsys, "reduce", "--n", "24", "--set", "5,10,55")
    assert code == 0 and out.strip() == "5,7,10"


def test_orbit(capsys):
    code, out, _ = run_cli(capsys, "orbit", "--n", "16", "--set", "1,6,7")
    assert code == 0
    assert "C_16(1,6,7)" in out and "C_16(2,3,5)" in out
    assert "3*(1,6,7)" in out


def test_theta(capsys):
    code, out, _ = run_cli(capsys, "theta", "--n", "24", "--m", "2", "--t", "3", "--set", "1,2,11")
    assert code == 0 and out.strip() == "circulant: 2,5,7"
    code, out, _ = run_cli(capsys, "theta", "--n", "24", "--m", "2", "--t", "1", "--set", "1,2,3")
    assert code == 0 and out.strip() == "not-circulant"


def test_theta_table(capsys):
    code, out, _ = run_cli(capsys, "theta-table", "--n", "24", "--m", "2", "--set", "1,2,3")
    assert code == 0
    assert len(out.splitlines()) == 13
    assert "Yes (Type-1, x=11)" in out


def test_classify_single_probe(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "--n", "16", "--set", "1,6,7", "--m", "2", "--t", "2"
    )
    assert code == 0 and "type2" in out and "3,5,6" in out


def test_classify_summary(capsys):
    code, out, _ = run_cli(capsys, "classify", "--n", "24", "--set", "1,2,3")
    assert code == 0
    assert out.startswith("C_24(1,2,3): ci-theta")
    assert "type1" in out


def test_classify_from_file(tmp_path, capsys):
    path = tmp_path / "sets.txt"
    path.write_text("# two graphs\n16: 1,6,7\n24: 1,2,11\n")
    code, out, _ = run_cli(capsys, "classify", "--file", str(path))
    assert code == 0
    assert "C_16(1,6,7): non-ci" in out
    assert "C_24(1,2,11): non-ci" in out


@pytest.mark.parametrize(
    "extra", [["--n", "24", "--set", "1,2,3"], ["--n", "24"], ["--set", "1,2,3"]]
)
def test_classify_refuses_file_with_set(tmp_path, capsys, extra):
    path = tmp_path / "sets.txt"
    path.write_text("16: 1,6,7\n")
    code, out, err = run_cli(capsys, "classify", "--file", str(path), *extra)
    assert code == 2 and out == ""
    assert err == "error: classify takes --file or --n/--set, not both\n"


@pytest.mark.parametrize("flag", [[], ["--allow-small-sets"]])
def test_classify_single_probe_gates_small_sets(capsys, flag):
    code, out, err = run_cli(
        capsys, "classify", "--n", "16", "--set", "1,6", "--m", "2", "--t", "1", *flag
    )
    if flag:
        assert code == 0 and err == ""
        assert out == "C_16(1,6): (m=2, t=1) not-circulant\n"
    else:
        assert code == 2 and out == ""
        assert err == (
            "error: C_16(1,6) has fewer than 3 jumps (pass allow_small to probe anyway)\n"
        )


def test_enumerate_text(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--n", "16", "--format", "text")
    assert code == 0
    assert "8" in out.splitlines()[0]
    assert "C_16(1,2,7), C_16(2,3,5)" in out


def test_enumerate_json_canonical(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "--n", "16", "--format", "json", "--canonical"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["pair_count"] == 8
    assert "generated_at" not in doc


def test_enumerate_csv_with_confirm(capsys):
    code, out, _ = run_cli(
        capsys,
        "enumerate", "--n", "16", "--max-size", "3", "--format", "csv", "--confirm",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["n", "left", "right", "m_witnesses", "t_witnesses", "oracle_confirmed"]
    assert all(row[5] == "true" for row in rows[1:])


def test_enumerate_small_sets_need_flag(capsys):
    code, _, err = run_cli(capsys, "enumerate", "--n", "8", "--min-size", "2")
    assert code == 2 and "allow_small" in err
    code, out, _ = run_cli(
        capsys,
        "enumerate", "--n", "8", "--min-size", "2", "--max-size", "2", "--allow-small-sets",
    )
    assert code == 0 and out.splitlines()[0].endswith("0")


def test_enumerate_jobs_flag_is_deterministic(capsys):
    code, serial, _ = run_cli(
        capsys, "enumerate", "--n", "16", "--format", "json", "--canonical"
    )
    assert code == 0
    code, parallel, _ = run_cli(
        capsys, "enumerate", "--n", "16", "--format", "json", "--canonical", "--jobs", "2"
    )
    assert code == 0
    assert serial == parallel


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_enumerate_refuses_jobs_below_one(capsys, monkeypatch, jobs):
    import multiprocessing

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    code, out, err = run_cli(capsys, "enumerate", "--n", "16", "--jobs", jobs)
    assert code == 2 and out == ""
    assert err == f"error: jobs must be at least 1, got {jobs}\n"


def test_ci_census(capsys):
    code, out, _ = run_cli(capsys, "ci-census", "--n", "16", "--size", "3")
    assert code == 0
    assert "18 orbits, 16 CI" in out
    assert "non-CI {C_16(1,2,7), C_16(3,5,6)} ~ C_16(1,6,7)" in out


def test_family_verify(capsys):
    code, out, _ = run_cli(capsys, "family", "--kind", "m2", "--n", "2", "--s", "1", "--verify")
    assert code == 0
    assert "C_16(1,2,7)" in out and "C_16(2,3,5)" in out
    assert "FAIL" not in out


def test_family_large_order_skips_oracle(capsys):
    code, out, _ = run_cli(capsys, "family", "--kind", "m5", "--n", "1", "--verify")
    assert code == 0
    assert "oracle skipped" in out


def test_verify_pair(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n", "16", "--left", "1,2,7", "--right", "2,3,5")
    assert code == 0
    assert "isomorphic: yes" in out
    assert "same multiplier orbit: no" in out
    code, out, _ = run_cli(capsys, "verify", "--n", "8", "--left", "1", "--right", "2")
    assert code == 0
    assert "not isomorphic" in out


def test_verify_above_recursion_limit_with_raised_cap(capsys):
    # the search maps one vertex per level, so order 1200 is 1200 levels deep
    code, out, _ = run_cli(
        capsys, "verify", "--n", "1200", "--left", "1,2", "--right", "7,14", "--oracle-cap", "2000"
    )
    assert code == 0
    assert "isomorphic: yes" in out


def test_scale(capsys):
    code, out, _ = run_cli(capsys, "scale", "--n", "16", "--left", "1,2,7", "--right", "2,3,5", "--k", "2")
    assert code == 0 and out.strip() == "C_32(2,4,14), C_32(4,6,10)"


def test_bad_set_literal_exits_nonzero(capsys):
    code, out, err = run_cli(capsys, "reduce", "--n", "16", "--set", "spam")
    assert code == 2 and out == ""
    assert err.startswith("error: bad set literal 'spam': ")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["classify", "--n", "16"], "classify needs --set or --file"),
        (["family", "--kind", "m3", "--n", "0"], "parameter n must be >= 1, got 0"),
        (
            ["verify", "--n", "40", "--left", "1,2", "--right", "1,3"],
            "order 40 exceeds the exact-search cap 32",
        ),
        (
            ["scale", "--n", "16", "--left", "1,2,7", "--right", "2,3,5", "--k", "1"],
            "scale factor must be >= 2, got 1",
        ),
    ],
)
def test_refusals_exit_two_with_one_error_line(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("probe", [["--m", "2"], ["--t", "1"]])
def test_classify_refuses_half_a_probe(capsys, probe):
    code, out, err = run_cli(capsys, "classify", "--n", "16", "--set", "1,6,7", *probe)
    assert code == 2 and out == ""
    assert err == "error: classify needs --m and --t together\n"


@pytest.mark.parametrize(
    "n, size, message",
    [
        ("1", "1", "order must be >= 2, got 1"),
        ("16", "-1", "size -1 out of range [1, 8] for order 16"),
        ("16", "0", "size 0 out of range [1, 8] for order 16"),
        ("16", "9", "size 9 out of range [1, 8] for order 16"),
    ],
)
def test_ci_census_refuses_bad_order_or_size(capsys, n, size, message):
    code, out, err = run_cli(capsys, "ci-census", "--n", n, "--size", size)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "m, jumps",
    [("0", "1,2,3"), ("-2", "1,2,3"), ("24", "1,2,3"), ("3", "1,2,4")],
)
def test_theta_table_refuses_inadmissible_m(capsys, m, jumps):
    code, out, err = run_cli(capsys, "theta-table", "--n", "24", "--m", m, "--set", jumps)
    assert code == 2 and out == ""
    assert err == f"error: m={m} does not divide gcd(24, r) for any jump of C_24({jumps})\n"


@pytest.mark.parametrize(
    "jumps, m, t, message",
    [
        ("1,2,4", "3", "1", "m=3 does not divide gcd(24, r) for any jump of C_24(1,2,4)"),
        ("1,2,3", "2", "0", "shift t=0 out of range [1, 11]"),
        ("1,2,3", "2", "12", "shift t=12 out of range [1, 11]"),
    ],
)
def test_theta_refuses_what_classify_refuses(capsys, jumps, m, t, message):
    code, out, err = run_cli(capsys, "theta", "--n", "24", "--m", m, "--t", t, "--set", jumps)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_parameter_violations_exit_code(capsys):
    code, _, err = run_cli(capsys, "theta", "--n", "24", "--m", "5", "--t", "1", "--set", "1,2,3")
    assert code == 2
    assert "error" in err


def test_unknown_subcommand_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
