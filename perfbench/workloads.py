"""The three benchmark workloads: inputs from a seed, one pass, golden checks.

Every workload runs serially (`jobs=1`) in one process, as a closed loop
with one caller: the next query starts when the previous one returns.  A
query is the unit a user waits for: one census call chain in the census
workloads, one CLI command in `large_order_queries`.  Each query is
checked against the goldens recorded by `record.py`; a mismatch, a
nonzero exit code or an exception marks it failed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from math import comb
from time import perf_counter, process_time

TYPE2_ORDER, TYPE2_SIZES = 24, (3, 12)
CI_CENSUSES = ((24, 3), (24, 4), (24, 5), (32, 3))
# Census fields that carry results; schema bookkeeping is left out of the digest.
CENSUS_CONTENT_KEYS = ("n", "size_min", "size_max", "pair_count", "counts_by_size", "pairs")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def census_digest(doc: dict) -> str:
    return sha256(json.dumps({k: doc[k] for k in CENSUS_CONTENT_KEYS}, sort_keys=True))


def verdict_digest(verdicts) -> str:
    rows = [
        [[m.jumps for m in v.orbit_members], v.ci, [p.jumps for p in v.isomorphic_to], v.anomaly]
        for v in verdicts
    ]
    return sha256(json.dumps(rows))


def run_command(cli, argv: list[str]) -> tuple[int, str]:
    """Run one CLI command in-process; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue()


@dataclass
class PassResult:
    wall: float
    cpu: float
    latencies: list[float] = field(default_factory=list)  # seconds, one per query
    failures: list[str] = field(default_factory=list)


class Workload:
    """One named workload; subclasses fill `queries` and `sets` in `__init__`."""

    name = ""
    seed_used = False
    idle: tuple[str, ...] = ()  # per-layer counters that must read zero
    queries = 0  # queries per pass
    sets = 0  # jump sets covered per pass

    def run_pass(self, circiso) -> PassResult:
        raise NotImplementedError


class Type2Census(Workload):
    name = "type2_census"
    idle = ("oracle.decisions",)

    def __init__(self, golden: dict, seed: int) -> None:
        self.golden = golden
        self.queries = 1
        low, high = TYPE2_SIZES
        self.sets = sum(comb(TYPE2_ORDER // 2, k) for k in range(low, high + 1))

    def _query(self, circiso) -> str | None:
        census = circiso.enumerate_type2(TYPE2_ORDER, *TYPE2_SIZES)
        text = circiso.emit_census(census, format="json", canonical=True)
        back = circiso.parse_census_json(text)
        doc = json.loads(text)
        if doc["pair_count"] != self.golden["pair_count"]:
            return f"{doc['pair_count']} pairs, golden {self.golden['pair_count']}"
        if doc["counts_by_size"] != self.golden["counts_by_size"]:
            return f"counts_by_size {doc['counts_by_size']}, golden {self.golden['counts_by_size']}"
        if census_digest(doc) != self.golden["digest"]:
            return "canonical census differs from the golden"
        parsed = (back.pairs, back.witnesses, back.counts)
        if parsed != (census.pairs, census.witnesses, census.counts):
            return "parse_census_json does not round-trip the census"
        return None

    def run_pass(self, circiso) -> PassResult:
        return _timed_pass([lambda: self._query(circiso)])


class CICensus(Workload):
    name = "ci_census"
    idle = ("theta.shortcut.calls", "theta.edge_image.calls")

    def __init__(self, golden: dict, seed: int) -> None:
        self.golden = golden
        self.queries = len(CI_CENSUSES)
        self.sets = sum(comb(n // 2, size) for n, size in CI_CENSUSES)

    def _query(self, circiso, n: int, size: int) -> str | None:
        verdicts = circiso.ci_full_census(n, size)
        want = self.golden[f"{n}/{size}"]
        got = {
            "orbits": len(verdicts),
            "ci": sum(1 for v in verdicts if v.ci),
            "digest": verdict_digest(verdicts),
        }
        if got != want:
            return f"ci_full_census({n}, {size}) gave {got}, golden {want}"
        return None

    def run_pass(self, circiso) -> PassResult:
        return _timed_pass(
            [lambda n=n, size=size: self._query(circiso, n, size) for n, size in CI_CENSUSES]
        )


class LargeOrderQueries(Workload):
    """A seeded stream of CLI commands; the seed picks one alternative per slot
    (family parameters, set within a family, scale factor) and the order."""

    name = "large_order_queries"
    seed_used = True

    def __init__(self, golden: dict, seed: int) -> None:
        rng = random.Random(seed)
        commands = []
        for slot in golden["slots"]:
            commands.extend(rng.sample(slot["choices"], slot["picks"]))
        rng.shuffle(commands)
        self.commands = commands
        self.queries = len(commands)
        self.sets = sum(c["sets"] for c in commands)

    def run_pass(self, circiso) -> PassResult:
        cli = circiso.cli

        def query(command):
            code, stdout = run_command(cli, command["argv"])
            if code != command["code"]:
                return f"`{' '.join(command['argv'])}` exited {code}, golden {command['code']}"
            if sha256(stdout) != command["stdout_sha256"]:
                return f"`{' '.join(command['argv'])}` printed other output than the golden"
            return None

        return _timed_pass([lambda c=c: query(c) for c in self.commands])


def _timed_pass(queries) -> PassResult:
    result = PassResult(wall=0.0, cpu=0.0)
    cpu0, wall0 = process_time(), perf_counter()
    for query in queries:
        start = perf_counter()
        try:
            failure = query()
        except Exception as exc:  # a crash is a failed query, not a failed run
            failure = f"{type(exc).__name__}: {exc}"
        result.latencies.append(perf_counter() - start)
        if failure:
            result.failures.append(failure)
    result.wall, result.cpu = perf_counter() - wall0, process_time() - cpu0
    return result


WORKLOADS = {w.name: w for w in (Type2Census, CICensus, LargeOrderQueries)}
