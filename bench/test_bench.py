"""Self-tests of the benchmark harness (not part of the emlab suite).

    python3 -m pytest bench/test_bench.py -q

They use coarse grids, so they check the harness's arithmetic, failure
counting and output format, not emlab's speed.
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def span(name, start, end, parent):
    return [name, start, end, parent, 0, 0, 0]


def test_self_time_subtracts_direct_children_only():
    spans = [span("cli.main", 0.0, 10.0, -1),
             span("pipeline.run_pipeline", 1.0, 9.0, 0),
             span("solver.lu", 2.0, 5.0, 1),
             span("lagrangian.eval_jet", 3.0, 4.0, 2),
             span("lagrangian.eval_jet", 6.0, 6.5, 1)]
    assert tracing.self_times(spans) == pytest.approx([2.0, 4.5, 2.0, 1.0, 0.5])
    values = tracing.layer_metrics(spans, tracing.self_times(spans), {})
    assert values["cli.main.self_s"] == pytest.approx(2.0)
    assert values["pipeline.run_pipeline.self_s"] == pytest.approx(4.5)
    assert values["solver.lu.count"] == 1
    assert values["solver.lu.s"] == pytest.approx(3.0)
    assert values["lagrangian.eval_jet.calls"] == 2
    assert values["lagrangian.eval_jet.s"] == pytest.approx(1.5)
    assert values["solver.solve_radial.calls"] == 0


def test_vanished_function_is_reported_missing_not_zero():
    values = tracing.layer_metrics([], [], {}, missing=["solver.lu"])
    assert values["solver.lu.count"] == tracing.MISSING
    assert values["solver.lu.s"] == tracing.MISSING
    assert values["solver.el_residual.calls"] == 0
    medians = tracing.median_metrics([values, values])
    assert medians["solver.lu.count"] == tracing.MISSING


def test_tracer_wraps_every_namespace_and_restores_it():
    run.import_emlab()
    import emlab.lagrangian
    import emlab.solver
    original = emlab.lagrangian.eval_jet
    tracer = tracing.Tracer()
    with tracer.installed():
        assert emlab.solver.eval_jet is emlab.lagrangian.eval_jet
        assert emlab.solver.eval_jet is not original
        tracer.op = 0
        model = emlab.lagrangian.make_model("dirichlet_affine", [0.5, 1.0])
        emlab.solver.divergence_coefficients(model, [0.1, 0.2, 0.3], [0.0, 0.0, 0.0])
    tracer.close()
    assert emlab.solver.eval_jet is original
    values = tracer.op_metrics(0)
    assert values["lagrangian.divergence_coefficients.calls"] == 1
    assert values["lagrangian.eval_jet.calls"] == 2
    assert values["lagrangian.eval_jet.points"] == 6


@pytest.fixture
def coarse(monkeypatch, tmp_path):
    """Benchmark workloads on 1/32 grids, one setup, writing under tmp_path.

    Tests run seed 3: at 1/32 most centre offsets put a node on the boundary
    up to rounding and ``build_domain`` then misses a crossing (exit 4)."""
    monkeypatch.setattr(run, "RUNS", tmp_path)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)

    def use(name, base=(), **fields):
        wl = workloads.WORKLOADS[name]
        cfg = {**wl.base, "spacing": 1.0 / 32, **dict(base)}
        monkeypatch.setitem(workloads.WORKLOADS, name,
                            dataclasses.replace(wl, base=cfg, **fields))
    return use


def last_json(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("changes, code", [
    ({"model": {"name": "no_such_model", "parameters": []}}, 4),
    # stopping Picard early leaves u 0.037 from the radial oracle: exit 3
    ({"model": {"name": "dirichlet_exponential", "parameters": [1.0, 1.0]},
      "solver": {"residual_tol": 0.5}}, 3),
])
def test_failing_ops_are_counted_not_fatal(coarse, capsys, changes, code):
    coarse("disc_torsion_h256", base=changes, closed_form=None)
    assert run.main(["--workload", "disc_torsion_h256", "--seed", "3",
                     "--seconds", "0", "--trace", "0"]) == 0
    out = last_json(capsys)
    assert out["attempted"] == run.MIN_OPS
    assert out["failed"] == out["attempted"]
    assert out["correct"] is False
    record = json.loads(next(run.RUNS.glob("results/*.json")).read_text())
    assert [op["exit_code"] for op in record["ops"]] == [code] * run.MIN_OPS


def test_raising_op_is_counted(coarse, capsys, monkeypatch):
    coarse("ellipse_minsurf_h128")
    import emlab.cli

    def boom(argv):
        raise RuntimeError("simulated crash")
    monkeypatch.setattr(emlab.cli, "main", boom)
    run.main(["--workload", "ellipse_minsurf_h128", "--seed", "3",
              "--seconds", "0", "--trace", "0"])
    out = last_json(capsys)
    assert out["failed"] == out["attempted"] == run.MIN_OPS


@pytest.mark.parametrize("name, trace, section", [
    ("disc_torsion_h256", 0, "end_to_end"),
    ("annulus_verify_h128", 0, "end_to_end"),
    ("annulus_verify_h128", 1, "per_layer"),
    ("ellipse_minsurf_h128", 1, "per_layer"),
])
def test_every_benchmark_metric_is_printed_with_its_unit(coarse, capsys, name,
                                                         trace, section):
    coarse(name)
    run.main(["--workload", name, "--seed", "3", "--seconds", "0",
              "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    out = json.loads(lines[-1])
    assert out["correct"] is True and out["failed"] == 0
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    for metric, unit in expected.items():
        assert any(line.startswith(f"{metric} = ") and line.endswith(f" {unit}")
                   for line in lines[:-1]), metric
    assert all(isinstance(v["value"], (int, float)) for v in out["metrics"].values())
    if name == "ellipse_minsurf_h128":
        values = {k: v["value"] for k, v in out["metrics"].items()}
        assert values["solver.lu.count"] == values["solver.iterations"] + 1
        assert values["solver.solve_radial.calls"] == 0
    if name == "annulus_verify_h128" and trace:
        assert out["metrics"]["solver.lu.count"]["value"] == 0


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == [
        (m[0], m[1]) for m in tracing.METRICS]


def test_seed_moves_the_centre_within_one_cell():
    wl = workloads.WORKLOADS["disc_torsion_h256"]
    a, b = wl.config(1), wl.config(2)
    assert a == wl.config(1) and a != b
    for cfg in (a, b):
        assert all(0.0 <= c < wl.spacing for c in cfg["shape"]["center"])
