"""Command-line interface.

Subcommands: reduce, orbit, theta, theta-table, classify, enumerate,
ci-census, family, verify, scale.  Jump sets are given as comma-separated
literals (`--set 1,2,7`) with the order supplied by `--n`; files use the
shared `n: r1,r2,...` line format.  All output is deterministic; census
output ordering is independent of `--jobs`.  Every refusal is a
`ValueError`, which `main` prints as `error: ...` with exit status 2.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from pathlib import Path

from . import classify as classify_mod
from . import families, report
from .adam import adam_orbit, same_adam_orbit
from .graphs import ConnectionSet, build_edges, parse_connection_sets
from .oracle import DEFAULT_CAP, are_isomorphic


def _parse_set(n: int, literal: str) -> ConnectionSet:
    try:
        values = [int(v.strip()) for v in literal.split(",") if v.strip()]
        return ConnectionSet.reduce(n, values)
    except ValueError as exc:
        raise ValueError(f"bad set literal {literal!r}: {exc}") from exc


def _cmd_reduce(args) -> int:
    c = _parse_set(args.n, args.set)
    print(",".join(str(j) for j in c.jumps))
    return 0


def _cmd_orbit(args) -> int:
    c = _parse_set(args.n, args.set)
    orbit = adam_orbit(c)
    for member in orbit.members:
        print(f"{member} = C_{c.n}({orbit.witness[member]}*({','.join(map(str, c.jumps))}))")
    return 0


def _cmd_theta(args) -> int:
    rec = classify_mod.classify_pair(_parse_set(args.n, args.set), args.m, args.t)
    if rec.image is None:
        print("not-circulant")
    else:
        print(f"circulant: {','.join(str(j) for j in rec.image.jumps)}")
    return 0


def _cmd_theta_table(args) -> int:
    c = _parse_set(args.n, args.set)
    print(report.render_theta_table(c, args.m), end="")
    return 0


def _describe(rec: classify_mod.ClassificationRecord) -> str:
    if rec.kind == "not-circulant":
        return f"(m={rec.m}, t={rec.t}) not-circulant"
    if rec.kind == "self":
        return f"(m={rec.m}, t={rec.t}) self: {rec.image}"
    if rec.kind == "type1":
        return f"(m={rec.m}, t={rec.t}) type1: {rec.image} = {rec.unit}*R"
    return f"(m={rec.m}, t={rec.t}) type2: {rec.image}"


def _classify_one(c: ConnectionSet, args) -> None:
    if args.m is not None:
        classify_mod.require_three_jumps(c, allow_small=args.allow_small_sets)
        rec = classify_mod.classify_pair(c, args.m, args.t)
        print(f"{c}: {_describe(rec)}")
        return
    records = classify_mod.probe_records(c, allow_small=args.allow_small_sets)
    status = classify_mod.ci_status_of_records(c, records)
    print(f"{c}: {status.verdict}")
    for rec in records:
        if rec.kind != "not-circulant":
            print(f"  {_describe(rec)}")


def _cmd_classify(args) -> int:
    if (args.m is None) != (args.t is None):
        raise ValueError("classify needs --m and --t together")
    if args.file:
        if args.n is not None or args.set:
            raise ValueError("classify takes --file or --n/--set, not both")
        text = Path(args.file).read_text()
        for c in parse_connection_sets(text):
            _classify_one(c, args)
        return 0
    if not args.set:
        raise ValueError("classify needs --set or --file")
    if args.n is None:
        raise ValueError("--set needs --n")
    _classify_one(_parse_set(args.n, args.set), args)
    return 0


def _cmd_enumerate(args) -> int:
    size_max = args.max_size if args.max_size is not None else args.n // 2
    census = classify_mod.enumerate_type2(
        args.n,
        size_min=args.min_size,
        size_max=size_max,
        allow_small=args.allow_small_sets,
        jobs=args.jobs,
    )
    if args.confirm:
        classify_mod.confirm_with_oracle(census, cap=args.oracle_cap)
    print(report.emit_census(census, format=args.format, canonical=args.canonical), end="")
    return 0


def _cmd_ci_census(args) -> int:
    verdicts = classify_mod.ci_full_census(args.n, args.size, oracle_cap=args.oracle_cap)
    ci_count = sum(1 for v in verdicts if v.ci)
    print(f"order {args.n}, size {args.size}: {len(verdicts)} orbits, {ci_count} CI")
    for v in verdicts:
        members = ", ".join(str(m) for m in v.orbit_members)
        if v.ci:
            print(f"CI     {{{members}}}")
        else:
            partners = ", ".join(str(p) for p in v.isomorphic_to)
            print(f"non-CI {{{members}}} ~ {partners}")
    return 0


def _cmd_family(args) -> int:
    fi = families.generate(args.kind, args.n, s=args.s)
    print(f"{args.kind} family at order {fi.order} (m={fi.m}), shifts t={list(fi.expected_t)}")
    for raw, cs in zip(fi.raw_sets, fi.sets):
        print(f"  {cs}  (from {','.join(map(str, raw))})")
    if fi.degenerate:
        print("  degenerate: the formulas name a single graph")
    if args.verify:
        rep = families.verify_instance(fi, oracle_cap=args.oracle_cap)
        for name, ok in rep.checks:
            print(f"  [{'ok' if ok else 'FAIL'}] {name}")
        if not rep.oracle_checked and not fi.degenerate:
            print(f"  (oracle skipped: order {fi.order} above cap {args.oracle_cap})")
        if not rep.ok:
            return 1
    return 0


def _cmd_verify(args) -> int:
    left = _parse_set(args.n, args.left)
    right = _parse_set(args.n, args.right)
    iso = are_isomorphic(build_edges(left), build_edges(right), cap=args.oracle_cap)
    adam = same_adam_orbit(left, right)
    print(f"isomorphic: {'yes' if iso else 'no'}")
    print(f"same multiplier orbit: {'yes' if adam else 'no'}")
    if iso and not adam:
        print("verdict: isomorphic but not by a unit multiplier (Type-2 candidate)")
    elif iso:
        print("verdict: Type-1 isomorphic")
    else:
        print("verdict: not isomorphic")
    return 0


def _cmd_scale(args) -> int:
    left = _parse_set(args.n, args.left)
    right = _parse_set(args.n, args.right)
    new_left, new_right = families.scale_pair(left, right, args.k)
    print(f"{new_left}, {new_right}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser for the `circiso` command line; `main` builds one per process."""
    parser = argparse.ArgumentParser(
        prog="circiso",
        description="Classify circulant-graph isomorphisms and enumerate Type-2 pairs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_set_args(p):
        p.add_argument("--n", type=int, required=True, help="graph order")
        p.add_argument("--set", required=True, help="jump set literal, e.g. 1,2,7")

    p = sub.add_parser("reduce", help="reflexively reduce a jump set")
    add_set_args(p)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("orbit", help="multiplier (Type-1) orbit with unit witnesses")
    add_set_args(p)
    p.set_defaults(func=_cmd_orbit)

    p = sub.add_parser("theta", help="apply one residue-shift probe")
    add_set_args(p)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.set_defaults(func=_cmd_theta)

    p = sub.add_parser("theta-table", help="shift table for all t in [1, n/m - 1]")
    add_set_args(p)
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=_cmd_theta_table)

    p = sub.add_parser("classify", help="classify probes of a set (or sets from a file)")
    p.add_argument("--n", type=int)
    p.add_argument("--set")
    p.add_argument("--file", help="file of `n: r1,r2,...` lines")
    p.add_argument("--m", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--allow-small-sets", action="store_true")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("enumerate", help="exhaustive Type-2 census for one order")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--min-size", type=int, default=3)
    p.add_argument("--max-size", type=int, default=None)
    p.add_argument("--format", choices=["json", "csv", "text"], default="text")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--allow-small-sets", action="store_true")
    p.add_argument("--canonical", action="store_true", help="omit timestamps")
    p.add_argument("--confirm", action="store_true", help="oracle-check every pair")
    p.add_argument("--oracle-cap", type=int, default=DEFAULT_CAP)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("ci-census", help="oracle-backed CI census of one size class")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--oracle-cap", type=int, default=DEFAULT_CAP)
    p.set_defaults(func=_cmd_ci_census)

    p = sub.add_parser("family", help="generate (and verify) a parametric family instance")
    p.add_argument("--kind", choices=["m2", "m3", "m5", "m7"], required=True)
    p.add_argument("--n", type=int, required=True, help="family parameter")
    p.add_argument("--s", type=int, default=None, help="second parameter (m2 only)")
    p.add_argument("--verify", action="store_true")
    p.add_argument("--oracle-cap", type=int, default=DEFAULT_CAP)
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("verify", help="oracle + orbit check for one pair")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--oracle-cap", type=int, default=DEFAULT_CAP)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("scale", help="scale a pair by an integer factor k")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_scale)

    return parser


_parser = cache(build_parser)


def main(argv=None) -> int:
    """Run one command and return its exit status.

    Every call parses with one parser per process, built on the first call;
    the subcommand handlers are bound once, when that parser is built.
    """
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
