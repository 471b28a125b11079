"""Guards on the public surface: the names `circiso` exports and the
functions the benchmark under `perfbench/` traces by name.  A traced name
that goes missing would otherwise show up only in perfbench's own tests."""

import importlib
import importlib.util
from pathlib import Path

import circiso

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_exported_name_resolves():
    assert [name for name in circiso.__all__ if not hasattr(circiso, name)] == []


def test_every_benchmark_target_is_a_callable_of_its_layer():
    spans = _load_spans()
    missing = [
        f"{layer}.{name}"
        for table in (spans.SPANS, spans.COUNTED)
        for layer, names in table.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"circiso.{layer}"), name, None))
    ]
    assert missing == []
