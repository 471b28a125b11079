"""The circiso benchmark.

    python3 perfbench/run.py --workload type2_census --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --trace 1

Runs one workload (or `all` of them in turn) against the circiso sources in
`src/` of this checkout, for about `--seconds` seconds of whole passes, and
checks every output against `goldens.json`.  The last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`.  `--trace 0` reports the end-to-end metrics; `--trace 1`
alternates untraced and traced passes and reports the per-layer metrics
(see `spans.py`) plus `trace.overhead`, the traced pass time over the
untraced one.  Metadata and the full result go to the line before and to
`perfbench/out/`.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 15  # set-up is timed this often per run; the median is reported
END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("sets_per_s", "1/s"),
    ("queries_per_s", "1/s"),
    ("query_ms_p50", "ms"),
    ("query_ms_p90", "ms"),
)


def load_circiso():
    """Import circiso (and its CLI module) from this checkout's `src/`."""
    if not (SRC / "circiso" / "__init__.py").is_file():
        raise SystemExit(f"error: no circiso sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "circiso" or m.startswith("circiso.")]:
        del sys.modules[name]
    circiso = importlib.import_module("circiso")
    importlib.import_module("circiso.cli")
    return circiso


def source_info() -> dict:
    """The commit when the checkout is a git repository, else None, plus a
    digest of the circiso sources that identifies the code either way."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "circiso").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},  # stay in the checkout
            capture_output=True,
            text=True,
            timeout=10,
        )
        commit = proc.stdout.strip() if proc.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def set_up(workload_cls, seed: int):
    """Import circiso, load the goldens and generate the inputs, timed
    SETUP_REPEATS times; returns (median seconds, circiso, workload)."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        circiso = load_circiso()
        goldens = json.loads((HERE / "goldens.json").read_text())
        workload = workload_cls(goldens[workload_cls.name], seed)
        times.append(perf_counter() - start)
    return statistics.median(times), circiso, workload


@dataclass
class Measurement:
    plain: list = field(default_factory=list)  # untraced PassResults
    traced: list = field(default_factory=list)  # traced PassResults
    layers: list = field(default_factory=list)  # per-layer metrics of each traced pass
    absent: list = field(default_factory=list)  # traced functions the program lacks
    functions: dict = field(default_factory=dict)  # per-function spans of the last traced pass


def measure(workload, circiso, seconds: float, trace: bool) -> Measurement:
    """Run whole passes until the next one would end after `seconds`.

    Untraced runs time every pass.  Traced runs alternate an untraced and a
    traced pass, so both see the same machine state."""
    m = Measurement()
    start = perf_counter()
    while True:
        round_start = perf_counter()
        m.plain.append(workload.run_pass(circiso))
        if trace:
            with spans.Tracer() as tracer:
                m.traced.append(workload.run_pass(circiso))
            m.layers.append(tracer.metrics())
            m.absent = tracer.absent
            m.functions = tracer.function_stats()
        if perf_counter() - start + (perf_counter() - round_start) > seconds:
            return m


def end_to_end(workload, m: Measurement, setup_s: float) -> dict:
    wall = statistics.median(p.wall for p in m.plain)
    values = {
        "wall_s": wall,
        "cpu_s": statistics.median(p.cpu for p in m.plain),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "sets_per_s": workload.sets / wall,
        "queries_per_s": workload.queries / wall,
        # each pass runs the same queries: take the quantile within a pass,
        # then the median over passes, so one slow burst moves one sample
        "query_ms_p50": statistics.median(spans.quantile(p.latencies, 0.5) for p in m.plain) * 1e3,
        "query_ms_p90": statistics.median(spans.quantile(p.latencies, 0.9) for p in m.plain) * 1e3,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(m: Measurement) -> dict:
    """Median per-layer metrics over the traced passes."""
    values = {}
    for name, _ in spans.METRICS:
        if name == "trace.overhead":
            plain = statistics.median(p.wall for p in m.plain)
            values[name] = statistics.median(p.wall for p in m.traced) / plain
        else:
            values[name] = statistics.median(layer[name] for layer in m.layers)
    return {name: {"value": values[name], "unit": unit} for name, unit in spans.METRICS}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload_cls = WORKLOADS[name]
    setup_s, circiso, workload = set_up(workload_cls, seed)
    m = measure(workload, circiso, seconds, trace)
    passes = m.plain + m.traced
    failures = [f for p in passes for f in p.failures]
    attempted = sum(len(p.latencies) for p in passes)
    if trace:
        for layer in m.layers:
            failures += spans.self_checks(layer, workload.idle)
        attempted += len(m.layers)
        metrics = per_layer(m)
    else:
        metrics = end_to_end(workload, m, setup_s)
    return {
        "meta": {
            "workload": name,
            "seed": seed,
            "seed_used": workload.seed_used,
            "seconds": seconds,
            "trace": int(trace),
            "queries_per_pass": workload.queries,
            "sets_per_pass": workload.sets,
            "pass_wall_s": [p.wall for p in m.plain],
            "traced_pass_wall_s": [p.wall for p in m.traced],
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            **source_info(),
            "error_rate": len(failures) / attempted,
            "failures": sorted(set(failures))[:20],
            "absent": m.absent,
            "functions": m.functions,
        },
        "result": {
            "correct": not failures,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": metrics,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (HERE / "goldens.json").is_file():
        raise SystemExit("error: perfbench/goldens.json is missing; run perfbench/record.py")
    load_circiso()  # fail before measuring when the sources are absent

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    outdir = HERE / "out"
    outdir.mkdir(exist_ok=True)
    results = {}
    for name in names:
        res = run_workload(name, args.seed, args.seconds, bool(args.trace))
        stem = f"{name}-seed{args.seed}-trace{args.trace}"
        (outdir / f"{stem}.json").write_text(json.dumps(res, indent=1) + "\n")
        results[name] = res
        for metric, m in res["result"]["metrics"].items():
            print(f"{name:20s} {metric:34s} {m['value']:14.6g} {m['unit']}")
        print(f"{name:20s} {'error_rate':34s} {res['meta']['error_rate']:14.6g} ratio")

    if len(names) == 1:
        res = results[names[0]]
        print(json.dumps({"meta": res["meta"]}))
        print(json.dumps(res["result"]))
    else:
        for name in names:
            print(json.dumps({"meta": results[name]["meta"]}))
        combined = {
            "correct": all(r["result"]["correct"] for r in results.values()),
            "attempted": sum(r["result"]["attempted"] for r in results.values()),
            "failed": sum(r["result"]["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": m
                for name, r in results.items()
                for metric, m in r["result"]["metrics"].items()
            },
        }
        print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
