"""The benchmark's span targets name functions that exist in emlab, so no
per-layer metric reads ``missing`` after a function is renamed or removed."""

import importlib.util
from collections import Counter
from pathlib import Path

from emlab.pipeline import EXIT_OK, parse_config, run_pipeline

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_trace_target_resolves():
    tracing = _load_tracing()
    resolved = tracing.resolve_targets()
    assert len(resolved) == len(tracing.TARGETS)
    assert [span for span, fn in resolved.items() if not callable(fn)] == []


def test_each_analysis_target_runs_once_per_solve():
    # a target called twice doubles its per-layer time; one never called
    # reads 0 instead of its cost
    tracing = _load_tracing()
    analysis = [span for span, module, _ in tracing.TARGETS
                if module in ("tensor_field", "pfunction", "identities")]
    tracer = tracing.Tracer()
    try:
        with tracer.installed():
            report = run_pipeline(parse_config({
                "model": {"name": "dirichlet_affine", "parameters": [0.5, 1.0]},
                "shape": {"kind": "disc", "parameters": [1.0]},
                "spacing": 1.0 / 16}))
    finally:
        tracer.close()
    assert report.exit_code == EXIT_OK
    calls = Counter(span[0] for span in tracer.spans)
    assert len(analysis) == 8
    assert {span: calls[span] for span in analysis} == dict.fromkeys(analysis, 1)
