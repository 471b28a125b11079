"""Record the benchmark's goldens and its pool of CLI commands.

    python3 perfbench/record.py

Runs every census and every command the workloads can draw, with the
circiso sources of this checkout, and writes `perfbench/goldens.json`.
Re-record only when the program's output is meant to change.

The `large_order_queries` pool is a list of slots.  A slot holds
alternatives of similar cost (sets of one family instance, neighbouring
family parameters or scale factors), so a seed changes which commands run
but hardly how much work a pass does.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import load_circiso, source_info  # noqa: E402
from workloads import (  # noqa: E402
    CI_CENSUSES,
    TYPE2_ORDER,
    TYPE2_SIZES,
    census_digest,
    run_command,
    sha256,
    verdict_digest,
)

# family kind -> parameter groups; one classify and one theta-table slot per group
FAMILY_GROUPS = {
    "m3": ((4, 5), (8, 9), (12, 13), (16, 17), (20, 21), (24, 25)),
    "m5": ((1,), (2,), (3,)),
    "m7": ((1,),),
}
# scale-factor bands for Type-2 pairs of order 16; orders 112..688
SCALE_BANDS = ((7, 11), (13, 17), (19, 23), (29, 31), (37, 41, 43))
VERIFY_PICKS = 30


def _jumps(c) -> str:
    return ",".join(str(j) for j in c.jumps)


def _classify(n: int, c) -> list[str]:
    return ["classify", "--n", str(n), "--set", _jumps(c)]


def _table(n: int, m: int, c) -> list[str]:
    return ["theta-table", "--n", str(n), "--m", str(m), "--set", _jumps(c)]


def _command(cli, argv: list[str], sets: int) -> dict:
    code, stdout = run_command(cli, argv)
    return {"argv": argv, "sets": sets, "code": code, "stdout_sha256": sha256(stdout)}


def record_type2(circiso) -> dict:
    census = circiso.enumerate_type2(TYPE2_ORDER, *TYPE2_SIZES)
    doc = json.loads(circiso.emit_census(census, format="json", canonical=True))
    return {
        "pair_count": doc["pair_count"],
        "counts_by_size": doc["counts_by_size"],
        "digest": census_digest(doc),
    }


def record_ci(circiso) -> dict:
    out = {}
    for n, size in CI_CENSUSES:
        verdicts = circiso.ci_full_census(n, size)
        out[f"{n}/{size}"] = {
            "orbits": len(verdicts),
            "ci": sum(1 for v in verdicts if v.ci),
            "digest": verdict_digest(verdicts),
        }
    return out


def record_queries(circiso) -> dict:
    cli, families = circiso.cli, circiso.families
    slots = []

    def slot(name: str, picks: int, choices: list[dict]) -> None:
        slots.append({"name": name, "picks": picks, "choices": choices})

    for kind, groups in FAMILY_GROUPS.items():
        for group in groups:
            instances = [families.generate(kind, p) for p in group]
            sets = [(fi.order, fi.m, c) for fi in instances for c in fi.sets]
            label = f"{kind}:{','.join(map(str, group))}"
            slot(
                f"classify {label}",
                1,
                [_command(cli, _classify(n, c), 1) for n, _, c in sets],
            )
            slot(
                f"theta-table {label}",
                2,
                [_command(cli, _table(n, m, c), 1) for n, m, c in sets],
            )

    base16 = circiso.enumerate_type2(16).pairs
    for band in SCALE_BANDS:
        scaled = [
            (k, c)
            for k in band
            for left, right in base16
            for c in families.scale_pair(left, right, k)
        ]
        label = f"k={','.join(map(str, band))}"
        slot(
            f"classify scaled {label}",
            2,
            [_command(cli, _classify(c.n, c), 1) for _, c in scaled],
        )
        slot(
            f"theta-table scaled {label}",
            4,
            [_command(cli, _table(c.n, k, c), 1) for k, c in scaled],
        )

    def family_cmd(kind: str, n: int, s: int | None = None) -> dict:
        second = [] if s is None else ["--s", str(s)]
        argv = ["family", "--kind", kind, "--n", str(n), *second, "--verify"]
        return _command(cli, argv, len(families.generate(kind, n, s).sets))

    slot("family m2", 6, [family_cmd("m2", n, s) for n in (2, 3, 4) for s in range(1, n + 1)])
    slot("family m3", 4, [family_cmd("m3", p) for p in range(1, 9)])
    slot("family m5", 1, [family_cmd("m5", p) for p in (1, 2)])
    slot("family m7", 1, [family_cmd("m7", 1)])

    # Pairs of order <= 32: Type-2 pairs (isomorphic) and, for each, the
    # left set against the next pair's left set of the same size.
    pairs = list(base16) + list(circiso.enumerate_type2(24).pairs)
    m2 = [families.family_m2(n, s) for n in (2, 3, 4) for s in range(1, n + 1)]
    pairs += [fi.sets for fi in m2 if not fi.degenerate]
    m3 = families.family_m3(1).sets
    pairs += [(m3[i], m3[(i + 1) % 3]) for i in range(3)]
    crossed = [
        (a[0], b[0])
        for a, b in zip(pairs, pairs[1:] + pairs[:1])
        if a[0].n == b[0].n and len(a[0].jumps) == len(b[0].jumps) and a[0] != b[0]
    ]
    slot(
        "verify",
        VERIFY_PICKS,
        [
            _command(cli, ["verify", "--n", str(a.n), "--left", _jumps(a), "--right", _jumps(b)], 2)
            for a, b in pairs + crossed
        ],
    )
    return {"slots": slots}


def main() -> int:
    circiso = load_circiso()
    goldens = {
        "source": source_info(),
        "type2_census": record_type2(circiso),
        "ci_census": record_ci(circiso),
        "large_order_queries": record_queries(circiso),
    }
    path = HERE / "goldens.json"
    path.write_text(json.dumps(goldens, indent=1) + "\n")
    slots = goldens["large_order_queries"]["slots"]
    print(f"wrote {path}: {sum(len(s['choices']) for s in slots)} commands in {len(slots)} slots")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
