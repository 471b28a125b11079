import csv
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest

from circiso import cli, emit_census, enumerate_type2
from circiso.cli import main
from circiso.oracle import are_isomorphic
from reference_data import CLI_STDOUT_SHA256


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
    # the CLI streams the document; the bytes are those of emit_census
    assert out == emit_census(enumerate_type2(16), format="json", canonical=True)


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


def test_enumerate_has_no_jobs_flag(capsys):
    # the census runs in one process; an unknown flag is argparse's usage
    # error, exit 2 with nothing on stdout
    with pytest.raises(SystemExit) as refused:
        main(["enumerate", "--n", "16", "--jobs", "2"])
    out, err = capsys.readouterr()
    assert refused.value.code == 2 and out == ""
    assert "unrecognized arguments: --jobs 2" in err


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


def test_verify_above_recursion_limit_with_raised_cap(capsys, monkeypatch):
    # 7 is a unit of Z_1200, so a checked unit map answers and the oracle,
    # which would search 1200 levels deep, is never called
    decided = []
    monkeypatch.setattr(cli, "are_isomorphic", lambda *a, **k: decided.append(a))
    code, out, _ = run_cli(
        capsys, "verify", "--n", "1200", "--left", "1,2", "--right", "7,14", "--oracle-cap", "2000"
    )
    assert code == 0 and decided == []
    assert "isomorphic: yes" in out and "verdict: Type-1 isomorphic" in out


@pytest.mark.parametrize(
    "n, left, right, answer",
    [
        # isomorphic by no unit and no residue shift: the oracle says yes
        ("25", "1,4,5,6,9,11", "1,4,6,9,10,11", "yes"),
        # equal closed-walk counts at every length, yet not isomorphic
        ("24", "1,3,9", "1,5,7", "no"),
    ],
)
def test_verify_asks_the_oracle_when_no_move_joins(capsys, monkeypatch, n, left, right, answer):
    decided = []

    def recorder(*args, **kwargs):
        decided.append(are_isomorphic(*args, **kwargs))
        return decided[-1]

    monkeypatch.setattr(cli, "are_isomorphic", recorder)
    code, out, _ = run_cli(capsys, "verify", "--n", n, "--left", left, "--right", right)
    assert code == 0 and decided == [answer == "yes"]
    assert out.startswith(f"isomorphic: {answer}\n")


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
        # a unit map (x = 3) joins this pair, but the cap is refused first
        (
            ["verify", "--n", "40", "--left", "1,2", "--right", "3,6"],
            "order 40 exceeds the exact-search cap 32",
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
        ("1,2,4", "3", "0", "m=3 does not divide gcd(24, r) for any jump of C_24(1,2,4)"),
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


def test_one_parser_serves_every_command_of_a_process(capsys):
    good = ("theta-table", "--n", "108", "--m", "3", "--set", "1,3,35,37")
    before = cli._parser.cache_info()
    code, first, _ = run_cli(capsys, *good)
    assert code == 0 and first
    with pytest.raises(SystemExit) as refused:
        main(["frobnicate"])
    assert refused.value.code == 2
    capsys.readouterr()
    code, out, err = run_cli(capsys, "theta", "--n", "24", "--m", "5", "--t", "1", "--set", "1,2,3")
    assert code == 2 and out == "" and err.startswith("error: ")
    with pytest.raises(SystemExit) as helped:
        main(["--help"])
    assert helped.value.code == 0
    capsys.readouterr()
    code, again, _ = run_cli(capsys, *good)
    assert code == 0 and again.encode() == first.encode()
    after = cli._parser.cache_info()
    assert after.hits + after.misses - before.hits - before.misses == 5
    assert after.currsize == 1


def test_main_reuses_one_parser_and_build_parser_stays_fresh():
    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli.build_parser()


def test_importing_the_cli_leaves_logging_unimported():
    # a fresh interpreter, so no module the test runner imported is counted
    code = "import sys, circiso.cli; assert 'logging' not in sys.modules, 'logging imported'"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, b"")


def test_closed_stdout_exits_1_without_a_traceback():
    # about 0.8 MB of output, far above a pipe buffer, so the write fails
    # even if the interpreter starts writing before the read end is closed
    argv = [sys.executable, "-m", "circiso.cli", "enumerate", "--n", "32", "--format", "json",
            "--canonical"]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        proc.stdout.close()
        _, stderr = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert b"Traceback" not in stderr, stderr.decode()


@pytest.mark.parametrize("argv", list(CLI_STDOUT_SHA256), ids=" ".join)
def test_per_set_commands_print_pinned_bytes(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == CLI_STDOUT_SHA256[argv]


def test_every_large_order_query_gives_its_golden_output(capsys):
    # the whole pool of the benchmark's large_order_queries workload, of
    # which one seeded pass draws 102 commands; the 97 `verify` commands
    # go through certify_isomorphism
    goldens = os.path.join(os.path.dirname(__file__), "..", "perfbench", "goldens.json")
    with open(goldens) as handle:
        slots = json.load(handle)["large_order_queries"]["slots"]
    commands = [command for slot in slots for command in slot["choices"]]
    mismatched = []
    for command in commands:
        code, out, _ = run_cli(capsys, *command["argv"])
        digest = hashlib.sha256(out.encode()).hexdigest()
        if (code, digest) != (command["code"], command["stdout_sha256"]):
            mismatched.append(command["argv"])
    assert len(commands) == 585 and mismatched == []
