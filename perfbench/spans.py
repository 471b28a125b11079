"""Per-layer spans for the circiso benchmark, recorded from outside the program.

A traced pass replaces each traced function at every binding that a loaded
circiso module holds for it: `classify.theta_image` as well as
`theta.theta_image`, because `classify` imports it by name and calls it
through its own namespace.  The source under `src/` is never edited.

Spans nest through a stack.  A span's self time is its duration minus the
durations of the spans it directly caused, and a layer's self time is the
sum over its functions.  Counted functions (the `modarith` helpers, called
hundreds of thousands of times per pass) get a call counter only; their
time stays in the caller's self time.

A target that a later version of the program deletes or renames is listed
in `Tracer.absent` and its metrics read zero, so the run does not crash.
"""

from __future__ import annotations

import statistics
import sys
from time import perf_counter

# layer -> public functions of that layer recorded as spans
SPANS = {
    "graphs": ("build_edges", "gcd_signature", "detect_circulant", "parse_connection_sets"),
    "adam": ("adam_orbit", "same_adam_orbit"),
    "theta": ("jump_shortcut", "theta_image", "shortcut_disagreement", "apply_to_edges"),
    "classify": (
        "classify_pair",
        "admissible_m",
        "type2_partners",
        "ci_theta_status",
        "enumerate_type2",
        "confirm_with_oracle",
        "ci_full_census",
    ),
    "oracle": ("are_isomorphic", "refine_invariants"),
    "families": (
        "verify_instance",
        "generate",
        "family_m2",
        "family_m3",
        "family_m5",
        "family_m7",
        "scale_pair",
    ),
    "report": (
        "emit_census",
        "parse_census_json",
        "census_document",
        "theta_table_rows",
        "render_theta_table",
    ),
    "cli": ("main",),
}
# layer -> functions that only get a call counter
COUNTED = {"modarith": ("reduce_set", "divisors_gt1")}
LAYERS = ("modarith", "graphs", "adam", "theta", "classify", "oracle", "families", "report", "cli")

# (per_layer metric name, unit) in the order BENCHMARK.json lists them
METRICS = (
    ("modarith.reduce_set.calls", "count"),
    ("modarith.divisors_gt1.calls", "count"),
    ("graphs.build_edges.calls", "count"),
    ("graphs.build_edges.us", "us"),
    ("graphs.gcd_signature.calls", "count"),
    ("graphs.self_s", "s"),
    ("adam.orbit.calls", "count"),
    ("adam.orbit.us", "us"),
    ("adam.orbit.repeat_ratio", "ratio"),
    ("adam.self_s", "s"),
    ("theta.shortcut.calls", "count"),
    ("theta.shortcut.us", "us"),
    ("theta.edge_image.calls", "count"),
    ("theta.edge_image.us", "us"),
    ("theta.edge_image.circulant_ratio", "ratio"),
    ("theta.self_s", "s"),
    ("classify.probes", "count"),
    ("classify.probe.us", "us"),
    ("classify.probe.repeat_ratio", "ratio"),
    ("classify.admissible_m.per_probe", "ratio"),
    ("classify.outcome.not_circulant", "count"),
    ("classify.outcome.self", "count"),
    ("classify.outcome.type1", "count"),
    ("classify.outcome.type2", "count"),
    ("classify.self_s", "s"),
    ("oracle.decisions", "count"),
    ("oracle.verdict.iso", "count"),
    ("oracle.verdict.non_iso", "count"),
    ("oracle.iso_ratio", "ratio"),
    ("oracle.decision_ms_p50", "ms"),
    ("oracle.decision_ms_p90", "ms"),
    ("oracle.refine_invariants.us", "us"),
    ("oracle.self_s", "s"),
    ("families.verify.calls", "count"),
    ("families.verify.ms", "ms"),
    ("families.self_s", "s"),
    ("report.emit.ms", "ms"),
    ("report.emit.bytes", "bytes"),
    ("report.theta_table.ms", "ms"),
    ("report.self_s", "s"),
    ("cli.commands", "count"),
    ("cli.self_s", "s"),
    ("trace.overhead", "ratio"),
)


class Stat:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Aggregated spans of one traced pass, installed as a context manager."""

    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        self.absent: list[str] = []
        self._stack: list[float] = []  # child time accumulated per open span
        self._restore: list[tuple[object, str, object]] = []
        self.probe_keys: set = set()
        self.outcomes: dict[str, int] = {}
        self.orbit_sets: set = set()
        self.circulant_images = 0
        self.oracle_ms: list[float] = []
        self.oracle_verdicts = {True: 0, False: 0}
        self.emit_bytes = 0
        self._hooks = {
            "classify.classify_pair": self._on_probe,
            "adam.adam_orbit": self._on_orbit,
            "theta.theta_image": self._on_edge_image,
            "oracle.are_isomorphic": self._on_decision,
            "report.emit_census": self._on_emit,
        }

    # -- hooks: counts taken where the work happens --------------------------

    def _on_probe(self, args, kwargs, result, dur) -> None:
        self.probe_keys.add(_call_key(args, kwargs))
        self.outcomes[result.kind] = self.outcomes.get(result.kind, 0) + 1

    def _on_orbit(self, args, kwargs, result, dur) -> None:
        self.orbit_sets.add(_call_key(args, kwargs))

    def _on_edge_image(self, args, kwargs, result, dur) -> None:
        self.circulant_images += result.image is not None

    def _on_decision(self, args, kwargs, result, dur) -> None:
        self.oracle_ms.append(dur * 1e3)
        self.oracle_verdicts[bool(result)] += 1

    def _on_emit(self, args, kwargs, result, dur) -> None:
        self.emit_bytes += len(result.encode())

    # -- installation ---------------------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "circiso" or name.startswith("circiso."))
        ]
        for layer in LAYERS:
            home = sys.modules.get(f"circiso.{layer}")
            for counted, names in ((False, SPANS.get(layer, ())), (True, COUNTED.get(layer, ()))):
                for name in names:
                    key = f"{layer}.{name}"
                    original = getattr(home, name, None)
                    if not callable(original):
                        self.absent.append(key)
                        continue
                    wrapper = self._wrap(key, original, counted)
                    for mod in modules:
                        for attr, value in list(vars(mod).items()):
                            if value is original:
                                self._restore.append((mod, attr, value))
                                setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()

    def _wrap(self, key: str, fn, counted: bool):
        stat = self.stats.setdefault(key, Stat())
        if counted:

            def count(*args, **kwargs):
                stat.calls += 1
                return fn(*args, **kwargs)

            return count

        stack = self._stack
        hook = self._hooks.get(key)

        def span(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                stat.calls += 1
                stat.total += dur
                stat.self_time += dur - child
            if hook is not None:
                hook(args, kwargs, result, dur)
            return result

        return span

    # -- per-layer metrics -----------------------------------------------------

    def _stat(self, key: str) -> Stat:
        return self.stats.get(key) or Stat()

    def _mean(self, key: str, scale: float) -> float:
        stat = self._stat(key)
        return stat.total / stat.calls * scale if stat.calls else 0.0

    def layer_self(self, layer: str) -> float:
        return sum(s.self_time for k, s in self.stats.items() if k.split(".", 1)[0] == layer)

    def function_stats(self) -> dict[str, dict]:
        """Calls, total and self seconds of every traced function."""
        return {
            key: {"calls": s.calls, "total_s": s.total, "self_s": s.self_time}
            for key, s in sorted(self.stats.items())
        }

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of this pass, without `trace.overhead`."""
        probes = self._stat("classify.classify_pair").calls
        orbits = self._stat("adam.adam_orbit").calls
        edge_images = self._stat("theta.theta_image").calls
        decisions = self._stat("oracle.are_isomorphic").calls
        emits = self._stat("report.emit_census").calls
        out = {
            "modarith.reduce_set.calls": self._stat("modarith.reduce_set").calls,
            "modarith.divisors_gt1.calls": self._stat("modarith.divisors_gt1").calls,
            "graphs.build_edges.calls": self._stat("graphs.build_edges").calls,
            "graphs.build_edges.us": self._mean("graphs.build_edges", 1e6),
            "graphs.gcd_signature.calls": self._stat("graphs.gcd_signature").calls,
            "adam.orbit.calls": orbits,
            "adam.orbit.us": self._mean("adam.adam_orbit", 1e6),
            "adam.orbit.repeat_ratio": _ratio(orbits, len(self.orbit_sets)),
            "theta.shortcut.calls": self._stat("theta.jump_shortcut").calls,
            "theta.shortcut.us": self._mean("theta.jump_shortcut", 1e6),
            "theta.edge_image.calls": edge_images,
            "theta.edge_image.us": self._mean("theta.theta_image", 1e6),
            "theta.edge_image.circulant_ratio": _ratio(self.circulant_images, edge_images),
            "classify.probes": probes,
            "classify.probe.us": self._mean("classify.classify_pair", 1e6),
            "classify.probe.repeat_ratio": _ratio(probes, len(self.probe_keys)),
            "classify.admissible_m.per_probe": _ratio(
                self._stat("classify.admissible_m").calls, probes
            ),
            "classify.outcome.not_circulant": self.outcomes.get("not-circulant", 0),
            "classify.outcome.self": self.outcomes.get("self", 0),
            "classify.outcome.type1": self.outcomes.get("type1", 0),
            "classify.outcome.type2": self.outcomes.get("type2", 0),
            "oracle.decisions": decisions,
            "oracle.verdict.iso": self.oracle_verdicts[True],
            "oracle.verdict.non_iso": self.oracle_verdicts[False],
            "oracle.iso_ratio": _ratio(self.oracle_verdicts[True], decisions),
            "oracle.decision_ms_p50": quantile(self.oracle_ms, 0.5),
            "oracle.decision_ms_p90": quantile(self.oracle_ms, 0.9),
            "oracle.refine_invariants.us": self._mean("oracle.refine_invariants", 1e6),
            "families.verify.calls": self._stat("families.verify_instance").calls,
            "families.verify.ms": self._mean("families.verify_instance", 1e3),
            "report.emit.ms": self._mean("report.emit_census", 1e3),
            "report.emit.bytes": _ratio(self.emit_bytes, emits),
            "report.theta_table.ms": self._mean("report.theta_table_rows", 1e3),
            "cli.commands": self._stat("cli.main").calls,
        }
        for layer in LAYERS[1:]:
            out[f"{layer}.self_s"] = self.layer_self(layer)
        return out


def _call_key(args, kwargs) -> tuple:
    return args + tuple(sorted(kwargs.items()))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def quantile(values: list[float], q: float) -> float:
    """Inclusive quantile (linear interpolation); 0.0 for no samples."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def self_checks(metrics: dict[str, float], idle: tuple[str, ...]) -> list[str]:
    """Consistency of the counters; returns one message per failed check."""
    failures = []
    outcomes = sum(
        metrics[f"classify.outcome.{k}"] for k in ("not_circulant", "self", "type1", "type2")
    )
    if outcomes != metrics["classify.probes"]:
        failures.append(f"probe outcomes sum to {outcomes}, not {metrics['classify.probes']}")
    verdicts = metrics["oracle.verdict.iso"] + metrics["oracle.verdict.non_iso"]
    if verdicts != metrics["oracle.decisions"]:
        failures.append(f"oracle verdicts sum to {verdicts}, not {metrics['oracle.decisions']}")
    for name in idle:
        if metrics[name] != 0:
            failures.append(f"{name} is {metrics[name]} on a workload that must leave it idle")
    return failures
