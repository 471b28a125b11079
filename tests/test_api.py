"""Guards on the public surface: the names `circiso` exports and the
functions the benchmark under `perfbench/` traces by name.  perfbench's own
tests run here too, so a pin they hold (such as `classify.theta_image`)
cannot break unseen."""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import circiso

ROOT = Path(__file__).resolve().parents[1]
SPANS_PATH = ROOT / "perfbench" / "spans.py"


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


def test_benchmark_unit_tests_pass():
    done = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s", "perfbench"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
