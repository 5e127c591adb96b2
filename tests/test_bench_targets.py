"""The benchmark's span targets name functions that exist in emlab, so no
per-layer metric reads ``missing`` after a function is renamed or removed."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_trace_target_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    resolved = tracing.resolve_targets()
    assert len(resolved) == len(tracing.TARGETS)
    assert [span for span, fn in resolved.items() if not callable(fn)] == []
