"""Every span hook of the benchmark's tracer still resolves to a library function.

A hook whose target is renamed or removed makes the traced benchmark run
report its metrics as absent; this test fails first.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_benchmark_hook_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.Tracer().missing == set()
