"""Config validation, pipeline exit codes, exports, determinism, CLI."""

import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import re
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import types
from functools import reduce

import jsonschema
import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from jsonschema import ValidationError
from jsonschema.exceptions import best_match

import emlab
from emlab import pipeline
from emlab.cli import main
from emlab.errors import ConfigError
from emlab.lagrangian import MAX_EXPRESSION_DEPTH, PILOT_BOX, check_hypotheses
from emlab.pipeline import (BOUNDARY_COLUMNS, CSV_BLOCK_ROWS, CSV_FORK_MIN_ROWS,
                            EXIT_CONFIG, EXIT_HYPOTHESIS, EXIT_INVARIANT, EXIT_OK,
                            EXIT_SOLVER, FIELD_COLUMNS, REPORT_SCHEMA, TENSOR_COLUMNS,
                            RunReport, _sanitize, _write_csvs, analyze_into,
                            export_fields, load_run, parse_config, run_pipeline,
                            validate_report)

CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "configs")

TORSION_CONFIG = {
    "model": {"name": "dirichlet_affine", "parameters": [0.5, 1.0]},
    "shape": {"kind": "disc", "parameters": [1.0]},
    "spacing": 1.0 / 16,
}

#: convex but for a narrow bump of F_pp = -2 centred on a Halton sample of
#: ``PILOT_BOX`` beyond the 256th
BUMP_MODEL = {"expression": "0.5*p*p + 0.0012902798174415976*exp(-((p-0.986328125)**2"
                            " + (q-0.08916324)**2)/0.0008601865449610651) + q",
              "smooth_at_origin": True}


def write_config(tmp_path, data, name="config.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data))
    return str(path)


def test_public_api_surface():
    # the package exports only its version; each entry point lives in its module
    for module, names in (
            ("solver", ("solve_euler_lagrange", "solve_radial")),
            ("geometry", ("build_domain", "make_shape")),
            ("lagrangian", ("make_model", "eval_jet")),
            ("tensor_field", ("assemble_field", "classify_definiteness")),
            ("pfunction", ("locate_max",)),
            ("identities", ("run_identity_suite",)),
            ("pipeline", ("run_pipeline", "export_fields", "load_run"))):
        mod = importlib.import_module(f"emlab.{module}")
        for name in names:
            assert callable(getattr(mod, name)), name
    assert not [n for n, v in vars(emlab).items()
                if not n.startswith("_") and not isinstance(v, types.ModuleType)]


class TestConfigParsing:
    def test_minimal_valid(self):
        cfg = parse_config(TORSION_CONFIG)
        assert cfg.model.name == "dirichlet_affine"
        assert cfg.shape.kind == "disc"
        assert cfg.solver.max_iterations == 200

    def test_unknown_top_level_key(self):
        bad = dict(TORSION_CONFIG, extra=1)
        with pytest.raises(ConfigError):
            parse_config(bad)

    def test_unknown_solver_key(self):
        bad = dict(TORSION_CONFIG, solver={"tol": 1e-8})
        with pytest.raises(ConfigError):
            parse_config(bad)

    def test_negative_radius(self):
        bad = dict(TORSION_CONFIG, shape={"kind": "disc", "parameters": [-1.0]})
        with pytest.raises(ConfigError):
            parse_config(bad)

    @pytest.mark.parametrize("change", [
        {"model": {"name": "dirichlet_affine", "parameters": [float("nan"), 1.0]}},
        {"shape": {"kind": "disc", "parameters": [1.0], "center": [0.0, float("inf")]}},
        {"spacing": float("inf")},
        {"x0": [float("nan"), 0.0]},
        {"solver": {"residual_tol": float("nan")}},
        {"solver": {"max_iterations": float("inf")}},
    ])
    def test_non_finite_numbers_rejected(self, change):
        with pytest.raises(ConfigError):
            parse_config(dict(TORSION_CONFIG, **change))

    def test_missing_model(self):
        with pytest.raises(ConfigError):
            parse_config({"shape": TORSION_CONFIG["shape"], "spacing": 0.1})

    def test_expression_model(self):
        cfg = parse_config(dict(TORSION_CONFIG, model={
            "expression": "0.5*p**2 + q + 0.5", "smooth_at_origin": True}))
        assert cfg.model.name == "expression"

    def test_x0_override(self):
        cfg = parse_config(dict(TORSION_CONFIG, x0=[0.25, 0.0]))
        assert cfg.x0 == (0.25, 0.0)

    @pytest.mark.parametrize("change", [
        {"model": {"expression": "0.5*p**2 + q + 0.5", "smooth_at_origin": "false"}},
        {"model": {"expression": "0.5*p**2 + q + 0.5", "smooth_at_origin": 1}},
    ])
    def test_boolean_keys_must_be_booleans(self, change, tmp_path, capsys):
        # bool("false") is True: a string toggle would switch the claim on
        with pytest.raises(ConfigError, match="must be true or false"):
            parse_config(dict(TORSION_CONFIG, **change))
        cfg_path = write_config(tmp_path, dict(TORSION_CONFIG, **change))
        assert main(["check", "--config", cfg_path]) == EXIT_CONFIG
        assert "must be true or false" in capsys.readouterr().err

    @pytest.mark.parametrize("change", [
        {"x0": {"a": 1}},
        {"x0": "12"},
        {"x0": [0.1, 0.2, 0.3]},
        {"model": {"name": "dirichlet_affine", "parameters": "51"}},
        {"model": {"name": "dirichlet_affine", "parameters": [True, 1.0]}},
        {"shape": {"kind": "disc", "parameters": [1.0], "center": "12"}},
        {"shape": {"kind": "disc", "parameters": {"r": 1.0}}},
        {"spacing": True},
        {"spacing": "0.0625"},
        {"solver": {"max_iterations": 2.5}},
        {"solver": {"residual_tol": False}},
    ], ids=["x0_mapping", "x0_string", "x0_three", "parameters_string",
            "parameters_bool", "center_string", "shape_parameters_mapping",
            "spacing_bool", "spacing_string", "max_iterations_float", "tol_bool"])
    def test_numbers_must_be_yaml_numbers(self, change, tmp_path, capsys):
        # strings were read character by character, lists cut to two
        # values and booleans read as 0 and 1
        with pytest.raises(ConfigError):
            parse_config(dict(TORSION_CONFIG, **change))
        cfg_path = write_config(tmp_path, dict(TORSION_CONFIG, **change))
        assert main(["solve", "--config", cfg_path, "--out",
                     str(tmp_path / "o")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_unknown_keys_of_mixed_types(self):
        with pytest.raises(ConfigError, match="unknown top-level keys"):
            parse_config({**TORSION_CONFIG, "extra": 1, 1: 2})

    def test_unparseable_yaml_is_one_line(self, tmp_path, capsys):
        path = tmp_path / "config.yaml"
        path.write_text("spacing: 0.0625\n{1: 2}: 3\n")
        assert main(["solve", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "cannot parse config" in err and err.count("\n") == 1


@pytest.fixture(scope="module")
def torsion_report():
    return run_pipeline(parse_config(TORSION_CONFIG))


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory, torsion_report):
    out = tmp_path_factory.mktemp("run")
    export_fields(torsion_report, str(out))
    return str(out), torsion_report


#: the oracle of the plain schema check
DRAFT7 = jsonschema.Draft7Validator(REPORT_SCHEMA)

#: values an edited report takes: each JSON type, integral and fractional
#: floats, bools where integers go, out-of-range exit codes and non-finite floats
_ODD_VALUES = [True, False, 0, 2, -1, 4, 5, 2.0, 2.5, -1.0, math.nan, math.inf, -math.inf,
               None, "", "x", [], [1.5], ["a"], [True], {}, {"a": 1}]
_JSON = st.recursive(st.none() | st.booleans() | st.integers(-2, 6) | st.floats()
                     | st.text(max_size=3),
                     lambda inner: st.lists(inner, max_size=3)
                     | st.dictionaries(st.text(max_size=3), inner, max_size=3),
                     max_leaves=6)


def _locations(node, path=(), depth=3):
    """The paths of ``node`` and of its members down to ``depth`` levels."""
    yield path
    if depth:
        members = node.items() if isinstance(node, dict) else (
            enumerate(node) if isinstance(node, list) else ())
        for key, value in members:
            yield from _locations(value, path + (key,), depth - 1)


def _described(node, schema=REPORT_SCHEMA, path=()):
    """The paths of ``node`` and of its members that ``schema`` describes,
    with only the first and last item of each array."""
    yield path
    if isinstance(node, dict):
        for key, sub in schema.get("properties", {}).items():
            if key in node:
                yield from _described(node[key], sub, path + (key,))
    elif isinstance(node, list) and "items" in schema:
        for i in sorted({0, len(node) - 1} if node else ()):
            yield from _described(node[i], schema["items"], path + (i,))


def _edited(doc, path, edit, value=None):
    """``doc`` after one edit of its member at ``path``: ``set`` it to
    ``value``, ``drop`` it (not the document itself), or ``add`` the key
    ``value``, with the value 1, to it where it is an object."""
    holder = [doc]
    parent, key = holder, 0
    for step in path:
        parent, key = parent[key], step
    if edit == "set":
        parent[key] = value
    elif edit == "drop" and path:
        del parent[key]
    elif edit == "add" and isinstance(parent[key], dict):
        parent[key][value] = 1
    return holder[0]


def _single_edits(base):
    """Every document one edit away from the JSON text ``base`` at a member
    the schema describes: each of ``_ODD_VALUES`` in its place, a number as
    its float or shifted by -1 or 5, the member dropped, and an object with
    a key added."""
    for path in _described(json.loads(base)):
        node = reduce(lambda n, key: n[key], path, json.loads(base))
        values = list(_ODD_VALUES)
        if type(node) in (int, float):
            values += [float(node), node - 1, node + 5]
        for value in values:
            yield _edited(json.loads(base), path, "set", value)
        yield _edited(json.loads(base), path, "drop")
        yield _edited(json.loads(base), path, "add", "extra")


class TestPipeline:
    def test_full_run_exit_zero(self, torsion_report):
        assert torsion_report.exit_code == EXIT_OK
        assert torsion_report.solver["converged"]
        assert all(c["passed"] for c in torsion_report.checks if c["gate"])

    def test_report_schema_round_trip(self, torsion_report):
        doc = torsion_report.as_dict()
        validate_report(doc)
        again = json.loads(json.dumps(doc))
        validate_report(again)

    def test_schema_rejects_corrupt_report(self, torsion_report):
        doc = torsion_report.as_dict()
        doc["status"]["exit_code"] = 99
        with pytest.raises(ValidationError):
            validate_report(doc)

    def test_report_schema_passes_check_schema(self):
        jsonschema.validators.validator_for(REPORT_SCHEMA).check_schema(REPORT_SCHEMA)

    @pytest.mark.parametrize("corrupt", [
        lambda doc: [], lambda doc: {"status": 3},
        lambda doc: dict(doc, solver="x"),
        lambda doc: doc["solver"].update(iterations="abc", converged=1) or doc,
        lambda doc: doc["checks"].append({"name": 1}) or doc])
    def test_errors_are_those_of_jsonschema_validate(self, torsion_report, corrupt):
        doc = corrupt(torsion_report.as_dict())
        with pytest.raises(ValidationError) as ours:
            validate_report(doc)
        with pytest.raises(ValidationError) as ref:
            jsonschema.validate(doc, REPORT_SCHEMA)
        assert ours.value.message == ref.value.message

    def test_plain_check_agrees_with_jsonschema_on_every_single_edit(self, torsion_report):
        verdicts = []
        for doc in _single_edits(json.dumps(torsion_report.as_dict())):
            verdicts.append(DRAFT7.is_valid(doc))
            assert pipeline._conforms(doc, REPORT_SCHEMA) == verdicts[-1], doc
        assert 200 < verdicts.count(False) < len(verdicts) - 100

    @settings(max_examples=150, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_plain_check_agrees_with_jsonschema_on_mutated_reports(self, torsion_report,
                                                                   data):
        # two to four drawn edits anywhere in the report, with generated values
        doc = json.loads(json.dumps(torsion_report.as_dict()))
        for _ in range(data.draw(st.integers(2, 4))):
            path = data.draw(st.sampled_from(list(_locations(doc))))
            edit = data.draw(st.sampled_from(["set", "drop", "add"]))
            value = data.draw(st.sampled_from(["extra", "name", "solver"]) if edit == "add"
                              else st.sampled_from(_ODD_VALUES) | _JSON)
            doc = _edited(doc, path, edit, value)
        valid = DRAFT7.is_valid(doc)
        assert pipeline._conforms(doc, REPORT_SCHEMA) == valid
        if valid:
            validate_report(doc)
        else:
            # the message of jsonschema.validate, without its schema check
            with pytest.raises(ValidationError, match=re.escape(
                    best_match(DRAFT7.iter_errors(doc)).message)):
                validate_report(doc)

    def test_plain_check_reads_every_schema_keyword(self):
        # _conforms reads these keywords alone: a schema that gains another
        # would be checked more loosely than jsonschema checks it
        read = {"$schema", "type", "required", "additionalProperties", "properties",
                "items", "minimum", "maximum"}
        pending = [REPORT_SCHEMA]
        while pending:
            schema = pending.pop()
            assert set(schema) <= read
            assert schema.get("additionalProperties", False) is False
            pending += schema.get("properties", {}).values()
            if "items" in schema:
                assert isinstance(schema["items"], dict)
                pending.append(schema["items"])

    def test_max_principle_conditions_read_the_hypothesis_sample(self, torsion_report):
        doc = json.loads(json.dumps(torsion_report.as_dict()))
        mpc, hyp = doc["pfunction"]["max_principle_conditions"], doc["hypotheses"]
        assert mpc["box"] == hyp["sample_box"]
        assert mpc["min_F_pp"] == hyp["min_F_pp"]
        assert mpc["identity_residual_max"] == hyp["identity_residual_max"]

    def test_every_check_has_tolerance_tag(self, torsion_report):
        for check in torsion_report.checks:
            assert {"name", "value", "tolerance", "passed", "gate"} <= set(check)

    def test_strict_mode_nonconvex_exits_two(self):
        cfg = parse_config(dict(TORSION_CONFIG, model={
            "expression": "q - 0.5*p**2", "smooth_at_origin": True}))
        report = run_pipeline(cfg, strict=True)
        assert report.exit_code == EXIT_HYPOTHESIS
        assert "hypotheses_pilot" in report.timings

    def test_strict_exit_after_solve_keeps_timings(self):
        # convex on the pilot box, not on the solution's range
        cfg = parse_config(dict(TORSION_CONFIG, model={
            "expression": "0.5*p**2 - 0.02*q**4*p**4 + 4.4*q", "smooth_at_origin": True}))
        report = run_pipeline(cfg, strict=True)
        assert report.solver["converged"]
        assert report.exit_code == EXIT_HYPOTHESIS
        assert report.violations == ["hypothesis_convexity"]
        assert {"solve", "hypotheses"} <= set(report.timings)

    def test_degenerate_model_exits_one(self):
        cfg = parse_config(dict(TORSION_CONFIG, model={
            "name": "power_dirichlet", "parameters": [4.0, 0.0, 1.0]}))
        report = run_pipeline(cfg)
        assert report.exit_code == EXIT_SOLVER
        assert report.solver["failure"] is not None

    def test_pilot_refusal_text_and_witness(self):
        cfg = parse_config(dict(TORSION_CONFIG, model={
            "expression": "q - 0.5*p**2", "smooth_at_origin": True}))
        report = run_pipeline(cfg)
        assert report.exit_code == EXIT_SOLVER
        assert report.solver["failure"] == (
            "ellipticity breakdown: model fails strict convexity on the pilot box")
        pilot = check_hypotheses(cfg.model, box=PILOT_BOX)
        assert report.solver["witness"] == {
            "pilot_box": PILOT_BOX, "witness": pilot.violation_witnesses["convexity"]}
        assert report.hypotheses == pilot.as_dict()
        assert "domain" not in report.timings

    def test_degenerate_model_strict_exits_two_before_solving(self):
        cfg = parse_config(dict(TORSION_CONFIG, model={
            "name": "power_dirichlet", "parameters": [4.0, 0.0, 1.0]}))
        report = run_pipeline(cfg, strict=True)
        assert report.exit_code == EXIT_HYPOTHESIS
        assert report.solver is None


class TestSharedEvaluation:
    def test_one_jet_sweep_per_evaluation(self, tmp_path, monkeypatch,
                                          disc64, torsion_result):
        """After the residual recheck, the analyses and the export evaluate
        the jet once at (p, u), once at (0, u) and once on the boundary."""
        import emlab.lagrangian
        import emlab.pipeline
        original = emlab.lagrangian.eval_jet
        sweeps = []

        def counting(model, p, q):
            p_arr = np.asarray(p, dtype=float)
            size = np.broadcast(p_arr, np.asarray(q)).size
            sweeps.append((size, not np.any(p_arr)))
            return original(model, p, q)

        for name, mod in list(sys.modules.items()):
            if name.startswith("emlab") and getattr(mod, "eval_jet", None) is original:
                monkeypatch.setattr(mod, "eval_jet", counting)
        recheck = emlab.pipeline.el_residual

        def recheck_then_count(*args):
            out = recheck(*args)
            sweeps.clear()
            return out
        monkeypatch.setattr(emlab.pipeline, "el_residual", recheck_then_count)

        config = parse_config(dict(TORSION_CONFIG, spacing=disc64.h))
        solver = {"converged": True, "iterations": torsion_result.iterations,
                  "final_residual": torsion_result.final_residual}
        report = analyze_into(RunReport(config=config.raw, solver=solver), config,
                              disc64, torsion_result)
        export_fields(report, str(tmp_path))
        assert report.exit_code == EXIT_OK
        n, nb = disc64.n_interior, disc64.n_boundary
        field_sized = [s for s in sweeps if s[0] in (n, nb)]
        assert sorted(field_sized) == sorted([(n, False), (n, True), (nb, False)])


_HYPOTHESIS_CHECKS = [("hypothesis_convexity", False), ("origin_smoothness_claim", True),
                      ("solver_residual_recheck", True)]
_TENSOR_CHECKS = [("tensor_symmetry", True), ("tensor_eigenvector_residual", True),
                  ("tensor_spectrum_crosscheck", True), ("tensor_trace_consistency", True),
                  ("tensor_det_consistency", True), ("det_convention_flip", True)]


class TestCheckList:
    """The ordered (name, gate) list of the checks of three coarse runs."""

    def test_torsion_disc(self):
        report = run_pipeline(parse_config(TORSION_CONFIG))
        assert [(c["name"], c["gate"]) for c in report.checks] == [
            *_HYPOTHESIS_CHECKS, ("radial_oracle_agreement", True),
            ("maximum_principle_nonpositive", True), *_TENSOR_CHECKS,
            ("lambda1_location_class", True), ("lambda1_two_branch_bound", True),
            ("lambda1_critical_branch_equality", True),
            ("lambda1_matches_tensor_eigenvalue", True), ("gradient_bound_margin", True),
            ("compatibility_identity_residual", True), ("rellich_identity_residual", True),
            ("rellich_source_residual", True), ("pohozaev_identity_residual", True),
            ("vanishing_boundary_term", True)]

    def test_torsion_annulus(self):
        # concave inner boundary: no critical-branch equality, the gradient
        # bound is reported ungated
        report = run_pipeline(parse_config(dict(
            TORSION_CONFIG, shape={"kind": "annulus", "parameters": [0.3, 1.0]})))
        assert [(c["name"], c["gate"]) for c in report.checks] == [
            *_HYPOTHESIS_CHECKS, ("radial_oracle_agreement", True),
            ("maximum_principle_nonpositive", True), *_TENSOR_CHECKS,
            ("lambda1_location_class", True), ("lambda1_two_branch_bound", True),
            ("lambda1_matches_tensor_eigenvalue", True), ("gradient_bound_margin", False),
            ("compatibility_identity_residual", True), ("rellich_identity_residual", True),
            ("rellich_source_residual", True), ("pohozaev_identity_residual", True),
            ("vanishing_boundary_term", True)]

    def test_ellipse_outside_the_quadratic_family(self):
        # no radial oracle on an ellipse, no Pohozaev identity for this model
        report = run_pipeline(parse_config(dict(
            TORSION_CONFIG, model={"name": "minimal_surface", "parameters": [2.0, 1.0]},
            shape={"kind": "ellipse", "parameters": [1.0, 0.6]})))
        assert [(c["name"], c["gate"]) for c in report.checks] == [
            *_HYPOTHESIS_CHECKS, ("maximum_principle_nonpositive", True), *_TENSOR_CHECKS,
            ("lambda1_location_class", True), ("lambda1_two_branch_bound", True),
            ("lambda1_critical_branch_equality", True),
            ("lambda1_matches_tensor_eigenvalue", True), ("gradient_bound_margin", True),
            ("compatibility_identity_residual", True), ("rellich_identity_residual", True),
            ("rellich_source_residual", True), ("vanishing_boundary_term", True)]


class TestResidualRecheck:
    def test_fresh_solve_reuses_solver_residual(self, monkeypatch):
        import emlab.pipeline
        import emlab.solver
        calls = []
        real = emlab.solver.el_residual

        def counting(*args):
            calls.append(1)
            return real(*args)
        monkeypatch.setattr(emlab.solver, "el_residual", counting)
        monkeypatch.setattr(emlab.pipeline, "el_residual", counting)
        report = run_pipeline(parse_config(TORSION_CONFIG))
        assert report.exit_code == EXIT_OK
        assert len(calls) == 1  # the solver's own, at the warm start
        check, = [c for c in report.checks if c["name"] == "solver_residual_recheck"]
        assert check["value"] == report.solver["final_residual"]


class TestExportAndReload:
    def test_file_set(self, run_dir):
        out, _ = run_dir
        for name in ("config.yaml", "fields.csv", "tensor.csv", "boundary.csv",
                     "report.json", "solver_log.json", "timings.json"):
            assert os.path.exists(os.path.join(out, name))
        with open(os.path.join(out, "timings.json")) as fh:
            assert "export" in json.load(fh)

    def test_stages_record_peak_memory(self, run_dir):
        out, report = run_dir
        peaks = report.timings["max_rss_mb"]
        stages = set(report.timings) - {"max_rss_mb", "export_values", "export_child",
                                        "solve_parts"}
        assert set(peaks) == stages >= {"hypotheses_pilot", "domain", "solve", "export"}
        recorded = list(peaks.values())  # in the order the stages ended
        assert 0.0 < recorded[0] and recorded == sorted(recorded)
        with open(os.path.join(out, "timings.json")) as fh:
            assert json.load(fh)["max_rss_mb"] == peaks

    def test_solve_parts_in_timings_alone(self, run_dir):
        out, report = run_dir
        parts = report.timings["solve_parts"]
        assert set(parts) == {"multigrid_setup_s", "coarse_inverse_s", "v_cycles", "gmres_s"}
        assert 0.0 <= parts["coarse_inverse_s"] <= parts["multigrid_setup_s"]
        assert parts["gmres_s"] > 0.0
        # a linear model stops at the warm start, one restart cycle: a V-cycle
        # per iteration and one for the update of x
        assert report.result.iterations == 0
        assert parts["v_cycles"] == report.result.log[0]["linear_iterations"] + 1
        with open(os.path.join(out, "timings.json")) as fh:
            assert json.load(fh)["solve_parts"] == parts
        for name in ("report.json", "solver_log.json"):
            with open(os.path.join(out, name)) as fh:
                assert "v_cycles" not in fh.read()

    def test_tensor_csv_columns(self, run_dir):
        out, report = run_dir
        with open(os.path.join(out, "tensor.csv")) as fh:
            header = fh.readline().strip().split(",")
            rows = fh.read().strip().splitlines()
        # only the tensor entries, row-aligned with fields.csv
        assert header == ["T11", "T12", "T22"]
        assert len(rows) == report.domain.n_interior
        fld = report.spectral_field
        for i in (0, len(rows) // 2, len(rows) - 1):
            assert rows[i] == "%.17g,%.17g,%.17g" % (fld.T[0, 0, i], fld.T[0, 1, i],
                                                     fld.T[1, 1, i])

    def test_evaluated_columns_are_filled(self, run_dir):
        fields, boundary = _evaluated_columns(run_dir[0])
        assert not np.isnan(fields).any() and not np.isnan(boundary).any()

    def test_fields_row_count(self, run_dir):
        out, report = run_dir
        with open(os.path.join(out, "fields.csv")) as fh:
            rows = fh.read().strip().splitlines()
        assert len(rows) - 1 == report.domain.n_interior

    def test_reload_reproduces_solution(self, run_dir):
        out, report = run_dir
        _, _, result, doc = load_run(out)
        assert np.array_equal(result.u, report.result.u)
        assert doc["status"]["exit_code"] == EXIT_OK

    def test_persisted_report_validates(self, run_dir):
        out, _ = run_dir
        with open(os.path.join(out, "report.json")) as fh:
            validate_report(json.load(fh))


def _evaluated_columns(run_dir):
    """The columns of fields.csv from lambda1 on, and the two identity
    densities of boundary.csv, as arrays."""
    fields = np.loadtxt(os.path.join(run_dir, "fields.csv"), delimiter=",", skiprows=1,
                        usecols=range(FIELD_COLUMNS.index("lambda1"), len(FIELD_COLUMNS)))
    densities = [BOUNDARY_COLUMNS.index(c) for c in ("rellich_density", "pohozaev_density")]
    boundary = np.loadtxt(os.path.join(run_dir, "boundary.csv"), delimiter=",",
                          skiprows=1, usecols=densities)
    return fields, boundary


def _load_u_loop(path):
    """Reference: the per-line float() parse of the u column that load_run
    replaced."""
    u = []
    with open(path) as fh:
        iu = fh.readline().strip().split(",").index("u")
        for line in fh:
            u.append(float(line.split(",")[iu]))
    return np.asarray(u)


def _rewrite_u(path, cells):
    """Replace the u column of a fields.csv by the given strings."""
    with open(path) as fh:
        header, *rows = fh.read().splitlines()
    iu = header.split(",").index("u")
    out = []
    for row, cell in zip(rows, cells):
        parts = row.split(",")
        parts[iu] = cell
        out.append(",".join(parts))
    with open(path, "w") as fh:
        fh.write("\n".join([header] + out) + "\n")


class TestReloadParse:
    def test_u_column_equals_line_loop(self, run_dir, tmp_path):
        out = str(tmp_path / "run")
        shutil.copytree(run_dir[0], out)
        fields = os.path.join(out, "fields.csv")
        _, domain, result, _ = load_run(out)
        assert np.array_equal(result.u.view(np.uint64),
                              _load_u_loop(fields).view(np.uint64))
        # every magnitude, in the export's %.17g and in shorter spellings
        n = domain.n_interior
        rng = np.random.default_rng(5)
        values = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 100, n)
        fmts = ["%.17g", "%r", "%.3e", "%.20f"]
        cells = [fmts[k % 4] % float(v) for k, v in enumerate(values)]
        cells[:8] = ["-0", "5e-324", "2.2250738585072011e-308", "1.7976931348623157e308",
                     "0.1", "1e-320", "-.5", "3"]
        _rewrite_u(fields, cells)
        with np.errstate(over="ignore", invalid="ignore"):
            _, _, result, _ = load_run(out)
        assert np.array_equal(result.u.view(np.uint64),
                              _load_u_loop(fields).view(np.uint64))

    @pytest.mark.parametrize("mangle", ["text", "nan", "inf", "short_row", "missing_rows",
                                        "no_u"])
    def test_malformed_fields_exit_four(self, run_dir, tmp_path, capsys, mangle):
        out = str(tmp_path / "run")
        shutil.copytree(run_dir[0], out)
        fields = os.path.join(out, "fields.csv")
        with open(fields) as fh:
            header, *rows = fh.read().splitlines()
        if mangle in ("text", "nan", "inf"):
            cells = rows[3].split(",")
            cells[FIELD_COLUMNS.index("u")] = "abc" if mangle == "text" else mangle
            rows[3] = ",".join(cells)
        elif mangle == "short_row":
            rows[-1] = ",".join(rows[-1].split(",")[:2])
        elif mangle == "missing_rows":
            rows = rows[:-10]
        else:
            header = header.replace(",u,", ",v,")
        with open(fields, "w") as fh:
            fh.write("\n".join([header] + rows) + "\n")
        with pytest.raises(ConfigError):
            load_run(out)
        assert main(["verify", "--in", out]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error:")
        assert "Traceback" not in err
        # refused as a reload fault on one line, not blamed on the model
        assert len(err.splitlines()) == 1 and "model evaluation" not in err


class TestBreadth:
    def test_ellipse_exponential_offset_pivot_strict(self):
        # non-circular cuts, genuine nonlinearity, off-center identity pivot
        report = run_pipeline(parse_config({
            "model": {"name": "dirichlet_exponential", "parameters": [1.0, 1.0]},
            "shape": {"kind": "ellipse", "parameters": [1.5, 0.8]},
            "spacing": 1.0 / 32,
            "x0": [0.2, -0.1],
        }), strict=True)
        assert report.exit_code == EXIT_OK
        assert all(c["passed"] for c in report.checks if c["gate"])
        assert report.identities["x0"] == [0.2, -0.1]
        assert report.pfunction["location_class"] == "critical_set"
        assert report.spectral["definiteness_class"] == "negative_definite"


def _write_csv_loop(path, header, cols):
    """Reference: a row-by-row f-string writer, the serial bytes that
    _write_csvs must reproduce on every path."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in zip(*cols):
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def _csv_columns(n, ncols):
    """``ncols`` columns of ``n`` rows: special values (nan, +-inf, -0.0,
    subnormal, max double), random magnitudes and the row index."""
    rng = np.random.default_rng(11)
    special = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308,
                        0.1, 1.0 / 3.0, 2.0 ** 60, -1e-17])
    cols = [np.resize(special, n), rng.standard_normal(n) * 10.0 ** rng.integers(-20, 20, n),
            np.arange(n, dtype=float)]
    return cols[:ncols]


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def two_cpus(monkeypatch):
    """Count 2 usable CPUs, so that the CSV writer forks on any machine."""
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)


def test_csv_writer_equals_row_loop(tmp_path, two_cpus):
    # from CSV_FORK_MIN_ROWS rows on, a forked child formats the first half
    for n in (CSV_FORK_MIN_ROWS - 1, CSV_FORK_MIN_ROWS, CSV_FORK_MIN_ROWS + 3,
              CSV_FORK_MIN_ROWS + 3 * CSV_BLOCK_ROWS + 7):
        for ncols in (1, 3):
            header = ["a", "b", "c"][:ncols]
            cols = _csv_columns(n, ncols)
            entries = _write_csvs([(tmp_path / "a.csv", header, cols)])
            assert entries["export_values"]["written"] == n * ncols
            child = entries.get("export_child")
            assert (child is not None) == (n >= CSV_FORK_MIN_ROWS)
            assert child is None or not child["fallback"]
            _assert_no_child()
            _write_csv_loop(tmp_path / "b.csv", header, cols)
            assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert _write_csvs([(tmp_path / "e.csv", ["a"], [np.empty(0)])]) == {
        "export_values": {"written": 0, "formatted_by_percent": 0}}
    assert (tmp_path / "e.csv").read_text() == "a\n"


class TestForkedCsvFailures:
    """Whatever goes wrong with the child, the files hold the serial bytes
    and no child outlives the writer."""

    N = CSV_FORK_MIN_ROWS + 3

    def _tables(self, tmp_path):
        return [(tmp_path / "t.csv", ["a"], _csv_columns(self.N, 1)),
                (tmp_path / "f.csv", ["a", "b", "c"], _csv_columns(self.N, 3))]

    def _assert_serial_bytes(self, tmp_path):
        for name, header, cols in self._tables(tmp_path):
            _write_csv_loop(tmp_path / "ref.csv", header, cols)
            assert name.read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def _in_child(self, monkeypatch, heads):
        """Make the child call ``heads(parts, write)`` in place of
        ``write(parts)``, ``write`` being the real ``_write_heads`` with the
        child's tally."""
        parent, write = os.getpid(), pipeline._write_heads

        def patched(parts, tally):
            if os.getpid() == parent:
                return write(parts, tally)
            return heads(parts, lambda p: write(p, tally))
        monkeypatch.setattr(pipeline, "_write_heads", patched)

    def test_child_raises(self, tmp_path, two_cpus, monkeypatch):
        def fail(parts, write):
            raise RuntimeError("child body failed")
        self._in_child(monkeypatch, fail)
        child = _write_csvs(self._tables(tmp_path))["export_child"]
        assert child["fallback"]
        _assert_no_child()
        self._assert_serial_bytes(tmp_path)

    @pytest.mark.parametrize("sent", [0.5, 1.0], ids=["half_stream", "full_stream"])
    def test_child_exits_nonzero(self, tmp_path, two_cpus, monkeypatch, sent):
        # a non-zero exit is a failure even after every child row is written
        def write_part_and_exit(parts, write):
            write([(path, head, data, int(split * sent))
                   for path, head, data, split in parts])
            os._exit(3)
        self._in_child(monkeypatch, write_part_and_exit)
        entries = _write_csvs(self._tables(tmp_path))
        assert entries["export_child"]["fallback"]
        # the failed child's count is dropped with its rows
        assert entries["export_values"]["written"] == 4 * self.N
        _assert_no_child()
        self._assert_serial_bytes(tmp_path)

    def test_slow_child(self, tmp_path, two_cpus, monkeypatch):
        # this process appends only after the child, which truncates, exits
        def sleep_and_write(parts, write):
            time.sleep(0.5)
            write(parts)
        self._in_child(monkeypatch, sleep_and_write)
        child = _write_csvs(self._tables(tmp_path))["export_child"]
        assert not child["fallback"]
        _assert_no_child()
        self._assert_serial_bytes(tmp_path)

    def test_parent_write_error_propagates(self, tmp_path, two_cpus, monkeypatch):
        parent, blocks = os.getpid(), pipeline._csv_blocks

        def parent_fails(data, start, stop, tally):
            if os.getpid() == parent:
                raise OSError(28, "No space left on device")
            return blocks(data, start, stop, tally)
        monkeypatch.setattr(pipeline, "_csv_blocks", parent_fails)
        with pytest.raises(OSError, match="No space left"):
            _write_csvs(self._tables(tmp_path))
        _assert_no_child()

    def test_fork_refused(self, tmp_path, two_cpus, monkeypatch):
        def refuse():
            raise BlockingIOError(11, "Resource temporarily unavailable")
        monkeypatch.setattr(os, "fork", refuse)
        assert "export_child" not in _write_csvs(self._tables(tmp_path))
        self._assert_serial_bytes(tmp_path)


def test_export_bytes_do_not_depend_on_the_fork(tmp_path, monkeypatch):
    # h = 1/32 has about 3200 rows: a low threshold makes the child run
    report = run_pipeline(parse_config(dict(TORSION_CONFIG, spacing=1.0 / 32)))
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 1)
    export_fields(report, str(tmp_path / "serial"))
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(pipeline, "CSV_BLOCK_ROWS", 256)
    monkeypatch.setattr(pipeline, "CSV_FORK_MIN_ROWS", 512)
    export_fields(report, str(tmp_path / "forked"))
    _assert_no_child()
    for name in ("report.json", "fields.csv", "tensor.csv", "boundary.csv",
                 "solver_log.json"):
        assert ((tmp_path / "serial" / name).read_bytes()
                == (tmp_path / "forked" / name).read_bytes()), name
    serial, forked = (json.loads((tmp_path / side / "timings.json").read_text())
                      for side in ("serial", "forked"))
    # every value of the three CSVs, none of which needs %
    values = ((len(FIELD_COLUMNS) + len(TENSOR_COLUMNS)) * report.domain.n_interior
              + len(BOUNDARY_COLUMNS) * report.domain.n_boundary)
    assert serial["export_values"] == forked["export_values"] == {
        "written": values, "formatted_by_percent": 0}
    assert "export_child" not in serial
    assert not forked["export_child"]["fallback"]
    assert forked["export_child"]["seconds"] > 0
    assert forked["export_child"]["max_rss_mb"] > 0


class TestSerialCsvPath:
    """One usable CPU means no fork: the writer never calls ``os.fork``."""

    @pytest.fixture(autouse=True)
    def no_fork(self, monkeypatch):
        def fork():
            pytest.fail("os.fork called on the serial path")
        monkeypatch.setattr(os, "fork", fork)
        # the torsion disc config has about 12.9k rows
        monkeypatch.setattr(pipeline, "CSV_BLOCK_ROWS", 1024)
        monkeypatch.setattr(pipeline, "CSV_FORK_MIN_ROWS", 2048)

    def _solve(self, tmp_path):
        out = tmp_path / "out"
        assert main(["solve", "--config", os.path.join(CONFIGS, "torsion_disc.yaml"),
                     "--out", str(out)]) == EXIT_OK
        assert "export_child" not in json.loads((out / "timings.json").read_text())

    def test_one_cpu_affinity(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        self._solve(tmp_path)


def test_sanitize_gives_strict_json():
    doc = _sanitize({"a": np.bool_(True), "b": np.float64("nan"), "c": float("nan"),
                     "d": np.int64(3), 4: (np.float32(0.25), np.array([1.0, np.inf]))})
    assert doc == {"a": True, "b": "nan", "c": "nan", "d": 3, "4": [0.25, [1.0, "inf"]]}
    assert type(doc["a"]) is bool and type(doc["d"]) is int
    assert json.loads(json.dumps(doc, allow_nan=False)) == doc


class TestDeterminism:
    def test_identical_runs_identical_bytes(self, tmp_path):
        digests = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            report = run_pipeline(parse_config(dict(
                TORSION_CONFIG, spacing=1.0 / 32)))
            export_fields(report, str(out))
            entry = {}
            for name in ("report.json", "fields.csv", "tensor.csv", "boundary.csv"):
                entry[name] = hashlib.sha256(
                    (out / name).read_bytes()).hexdigest()
            digests.append(entry)
        assert digests[0] == digests[1]


BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _python(args, threads=1, env=None, preexec_fn=None, **kwargs):
    """Run ``python *args`` on this checkout's package, with the BLAS thread
    variables set to ``threads`` and the child pinned to the first
    ``threads`` CPUs of this process's affinity; ``threads=None`` sets
    neither.  ``env`` adds variables; ``preexec_fn`` runs in the child
    after the pinning."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(emlab.__file__)))
    child_env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    child_env.update(env or {}, PYTHONPATH=os.pathsep.join(
        filter(None, [src, child_env.get("PYTHONPATH")])))
    cpus = None
    if threads is not None:
        child_env.update({var: str(threads) for var in BLAS_THREAD_VARS})
        cpus = sorted(os.sched_getaffinity(0))[:threads]

    def setup():
        if cpus:
            os.sched_setaffinity(0, cpus)
        if preexec_fn:
            preexec_fn()
    return subprocess.run([sys.executable, *args], env=child_env, capture_output=True,
                          text=True, timeout=120, preexec_fn=setup, **kwargs)


def _cap_address_space():
    """Cap the address space of the calling process at 4 GiB."""
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    cap = 4 << 30 if hard == resource.RLIM_INFINITY else min(4 << 30, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))


class TestCli:
    def test_solve_and_friends(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, TORSION_CONFIG)
        out = str(tmp_path / "out")
        assert main(["solve", "--config", cfg_path, "--out", out]) == EXIT_OK
        assert main(["verify", "--in", out]) == EXIT_OK
        assert main(["analyze", "--in", out]) == EXIT_OK
        assert main(["report", "--in", out]) == EXIT_OK
        assert main(["check", "--config", cfg_path]) == EXIT_OK
        text = capsys.readouterr().out
        assert "PASS" in text

    def test_runs_load_no_scipy_spatial_special_integrate_or_optimize(self, tmp_path):
        """Each of these packages costs import time that no run needs: a
        solve, check, report and verify, on a disc and on a non-radial
        ellipse, load none of them, in a fresh process; ``jsonschema`` words
        the error of a malformed report alone.  The tables of the CSV kernel
        are built at the first export, not on import.  Importing the CLI
        leaves the BLAS thread variables unset, ``EMLAB_THREADS`` set or not."""
        ellipse = {"model": {"expression": "sqrt(1 + p**2) + q", "smooth_at_origin": True},
                   "shape": {"kind": "ellipse", "parameters": [1.0, 0.6]},
                   "spacing": 1.0 / 32}
        runs = []
        for name, data in (("disc", dict(TORSION_CONFIG, spacing=1.0 / 32)),
                           ("ellipse", ellipse)):
            out = str(tmp_path / name)
            cfg_path = write_config(tmp_path, data, f"{name}.yaml")
            runs += [["solve", "--config", cfg_path, "--out", out],
                     ["check", "--config", cfg_path], ["report", "--in", out],
                     ["verify", "--in", out]]
        unwanted = ["scipy.spatial", "scipy.special", "scipy.integrate", "scipy.optimize",
                    "scipy.linalg", "scipy.sparse.linalg", "jsonschema"]
        proc = _python(["-c", (
            "import json, os, sys\n"
            "from emlab.cli import main\n"
            "from emlab import csvtext\n"
            f"blas_env = [os.environ.get(v) for v in {BLAS_THREAD_VARS}]\n"
            "tables = (csvtext._pow10, csvtext._digit_words, csvtext._layout)\n"
            "def built():\n"
            "    return [t.cache_info().currsize for t in tables]\n"
            "on_import = built()\n"
            "args, unwanted = json.loads(sys.argv[1])\n"
            "codes = [main(a) for a in args]\n"
            "print(json.dumps([codes, [m for m in unwanted if m in sys.modules],\n"
            "                  on_import, built(), blas_env]))"),
            json.dumps([runs, unwanted])], threads=None, env={"EMLAB_THREADS": "1"})
        assert proc.returncode == 0, proc.stderr
        codes, loaded, on_import, after_runs, blas_env = json.loads(
            proc.stdout.splitlines()[-1])
        assert blas_env == [None] * 3
        assert codes == [EXIT_OK] * 8
        assert loaded == []
        assert on_import == [0, 0, 0]
        assert after_runs == [1, 1, 1]

    def test_bad_config_exits_four(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, dict(
            TORSION_CONFIG, shape={"kind": "disc", "parameters": [-1.0]}))
        assert main(["solve", "--config", cfg_path, "--out",
                     str(tmp_path / "o")]) == EXIT_CONFIG

    @pytest.mark.parametrize("spacing,radius,message", [
        ("1e-2", "1.0", "spacing must be a number; YAML reads '1e-2' as a string, "
                        "write 1.0e-2"),
        ("0.0625", "1.0e300", "each entry of shape.parameters must be a number; YAML "
                              "reads '1.0e300' as a string, write 1.0e+300")])
    def test_yaml_1_1_exponent_exits_four_with_its_spelling(self, tmp_path, capsys,
                                                            spacing, radius, message):
        # PyYAML reads a float as a float only with a dot and a signed exponent
        path = tmp_path / "config.yaml"
        path.write_text("model: {name: dirichlet_affine, parameters: [0.5, 1.0]}\n"
                        f"shape: {{kind: disc, parameters: [{radius}]}}\n"
                        f"spacing: {spacing}\n")
        assert main(["solve", "--config", str(path), "--out",
                     str(tmp_path / "o")]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"configuration error: {message}\n"

    def test_unwritable_run_directory_exits_four(self):
        proc = _python(["-m", "emlab.cli", "solve", "--config",
                        os.path.join(CONFIGS, "torsion_disc.yaml"),
                        "--out", os.path.join(os.devnull, "run")])
        assert proc.returncode == EXIT_CONFIG
        assert proc.stderr.startswith("configuration error: cannot write run to ")
        assert "Traceback" not in proc.stderr

    def test_unwritable_csv_of_a_forked_export_exits_four(self, tmp_path, monkeypatch,
                                                          capsys):
        # the child cannot open fields.csv and exits 1, and the run's own
        # write of every file whole then fails too; the torsion disc config
        # has about 12.9k rows
        monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(pipeline, "CSV_BLOCK_ROWS", 1024)
        monkeypatch.setattr(pipeline, "CSV_FORK_MIN_ROWS", 2048)
        out = tmp_path / "out"
        (out / "fields.csv").mkdir(parents=True)
        assert main(["solve", "--config", os.path.join(CONFIGS, "torsion_disc.yaml"),
                     "--out", str(out)]) == EXIT_CONFIG
        _assert_no_child()
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: cannot write run to {out}: ")
        assert "Is a directory" in err and "Traceback" not in err

    def test_missing_config_exits_four(self, tmp_path):
        assert main(["solve", "--config", str(tmp_path / "nope.yaml"),
                     "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_strict_check_nonconvex_exits_two(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, dict(TORSION_CONFIG, model={
            "expression": "q - 0.5*p**2", "smooth_at_origin": True}))
        assert main(["check", "--config", cfg_path, "--strict"]) == EXIT_HYPOTHESIS
        assert main(["check", "--config", cfg_path]) == EXIT_OK

    def test_pilot_and_check_draw_the_same_sample(self, tmp_path, capsys):
        # convex on the first 256 Halton samples of the pilot box; F_pp
        # reads -2 at a later one, the bump's centre
        cfg_path = write_config(tmp_path, dict(TORSION_CONFIG, model=BUMP_MODEL))
        assert main(["check", "--config", cfg_path, "--strict"]) == EXIT_HYPOTHESIS
        checked = json.loads(capsys.readouterr().out)
        assert main(["solve", "--config", cfg_path, "--strict",
                     "--out", str(tmp_path / "strict")]) == EXIT_HYPOTHESIS
        out = tmp_path / "plain"
        assert main(["solve", "--config", cfg_path, "--out", str(out)]) == EXIT_SOLVER
        doc = json.loads((out / "report.json").read_text())
        assert doc["solver"]["failure"] == (
            "ellipticity breakdown: model fails strict convexity on the pilot box")
        witness = checked["violation_witnesses"]["convexity"]
        assert doc["solver"]["witness"] == {"pilot_box": [list(b) for b in PILOT_BOX],
                                            "witness": witness}
        assert doc["hypotheses"] == checked
        assert witness[2] == pytest.approx(-2.0)

    @pytest.mark.parametrize("terms", [
        MAX_EXPRESSION_DEPTH - 4,   # depth 200, compiled and solved
        MAX_EXPRESSION_DEPTH - 3,   # depth 201, refused
        987,                        # deep enough to overflow the evaluator
        1000,                       # deep enough to overflow the compiler
        3000])                      # deep enough to overflow the parser
    def test_long_expression_exits_zero_or_four(self, tmp_path, capsys, terms):
        model = {"expression": "0.5*p*p + q" + " + 0*p" * terms, "smooth_at_origin": True}
        cfg_path = write_config(tmp_path, dict(TORSION_CONFIG, model=model))
        out = str(tmp_path / "out")
        expected = EXIT_OK if terms + 4 <= MAX_EXPRESSION_DEPTH else EXIT_CONFIG
        assert main(["check", "--config", cfg_path]) == expected
        assert main(["solve", "--config", cfg_path, "--out", out]) == expected
        err = capsys.readouterr().err
        if expected == EXIT_OK:
            assert err == ""
            # the same run with a config that nests one level deeper
            assert main(["verify", "--in", out]) == EXIT_OK
            model["expression"] += " + 0*p"
            write_config(tmp_path, dict(TORSION_CONFIG, model=model), "out/config.yaml")
            assert main(["verify", "--in", out]) == EXIT_CONFIG
            err = capsys.readouterr().err
        assert err.count("\n") == err.count("configuration error: bad model: ") == (
            1 if expected == EXIT_OK else 2)
        assert "nests" in err and "Traceback" not in err

    def test_report_strict_escalates_hypothesis_violation(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, TORSION_CONFIG)
        out = str(tmp_path / "out")
        assert main(["solve", "--config", cfg_path, "--out", out]) == EXIT_OK
        # a persisted convexity violation only escalates under --strict
        path = os.path.join(out, "report.json")
        with open(path) as fh:
            doc = json.load(fh)
        doc["hypotheses"]["convexity_ok"] = False
        with open(path, "w") as fh:
            json.dump(doc, fh)
        assert main(["report", "--in", out]) == EXIT_OK
        assert main(["report", "--in", out, "--strict"]) == EXIT_HYPOTHESIS

    def test_tiny_g0_ends_in_a_written_refusal(self, tmp_path, capsys):
        # g(0, 0) = 2e-320 passes the positivity check, but its operator's
        # diagonal has no finite reciprocal: the coarsest level is refused
        cfg_path = write_config(tmp_path, dict(TORSION_CONFIG, model={
            "expression": "1e-320*p*p + q", "smooth_at_origin": True}))
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg_path, "--out", str(out)]) == EXIT_SOLVER
        assert "Traceback" not in capsys.readouterr().err
        doc = json.loads((out / "report.json").read_text())
        validate_report(doc)
        assert doc["status"]["exit_code"] == EXIT_SOLVER
        assert "coarsest multigrid operator" in doc["solver"]["failure"]
        assert doc["solver"]["witness"] == {"p": 0.0, "q": 0.0, "g": 2e-320}

    @pytest.mark.parametrize("coef", ["1e-300", "1e-310"])
    def test_tiny_g0_overflowing_warm_start_ends_in_a_written_refusal(self, tmp_path,
                                                                       capsys, coef):
        # g(0, 0) = 2 coef has a coarsest level that inverts, but the warm
        # start scales as h(0, 0)/g(0, 0): at 2e-300 its |grad u|^2
        # overflows, at 2e-310 the V-cycle's own products do
        cfg_path = write_config(tmp_path, dict(TORSION_CONFIG, model={
            "expression": f"{coef}*p*p + q", "smooth_at_origin": True}))
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg_path, "--out", str(out)]) == EXIT_SOLVER
        assert capsys.readouterr().err == ""
        doc = json.loads((out / "report.json").read_text())
        validate_report(doc)
        assert doc["status"]["exit_code"] == EXIT_SOLVER
        assert "warm start" in doc["solver"]["failure"]
        assert doc["solver"]["witness"] == {"p": 0.0, "q": 0.0, "g": 2 * float(coef)}

    @pytest.mark.parametrize("model", [
        {"name": "dirichlet_affine", "parameters": [0.5, 1.0e153]},
        {"expression": "0.5*p*p + 1e160*q", "smooth_at_origin": True}])
    def test_large_source_ends_in_a_written_refusal(self, tmp_path, capsys, model):
        # g(0, 0) = 1, but the 2-norm of the warm start's right-hand side
        # -h(0, 0) overflows, which would leave GMRES a zero basis vector
        cfg_path = write_config(tmp_path, dict(TORSION_CONFIG, model=model))
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg_path, "--out", str(out)]) == EXIT_SOLVER
        assert capsys.readouterr().err == ""
        doc = json.loads((out / "report.json").read_text())
        validate_report(doc)
        assert doc["status"]["exit_code"] == EXIT_SOLVER
        assert "2-norm overflows" in doc["solver"]["failure"]
        assert doc["solver"]["witness"] == {"p": 0.0, "q": 0.0, "g": 1.0}

    def test_overflowing_quotients_leave_stderr_empty(self, tmp_path):
        """``(p F_pp - F_p)/(2 p^3)`` with a p^3 past the float range reads 0
        with no warning, in the identity residual of the hypotheses (a tiny
        g(0, 0)) and in the Newton Jacobian (a large source)."""
        for expression, code in (("1e-150*p*p + q", EXIT_INVARIANT),
                                 ("0.5*p*p + 1e150*q", EXIT_SOLVER)):
            cfg_path = write_config(tmp_path, dict(TORSION_CONFIG, model={
                "expression": expression, "smooth_at_origin": True}))
            proc = _python(["-m", "emlab.cli", "solve", "--config", cfg_path,
                            "--out", str(tmp_path / f"run{code}")])
            assert (proc.returncode, proc.stderr) == (code, "")

    def test_closed_stdout_keeps_the_exit_code(self, tmp_path):
        """A reader that closes stdout at once (``emlab solve ... | head -0``)
        leaves the run whole: it exits with its own code, here 2 for a strict
        refusal and 0 for a verify, with nothing on stderr."""
        solved = tmp_path / "solved"
        assert main(["solve", "--config", write_config(tmp_path, TORSION_CONFIG),
                     "--out", str(solved)]) == EXIT_OK
        cfg_path = write_config(tmp_path, dict(TORSION_CONFIG, model={
            "name": "power_dirichlet", "parameters": [3.0, 0.0, 1.0]}), "strict.yaml")
        src = os.path.dirname(os.path.dirname(os.path.abspath(emlab.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        for args, code in (
                (["solve", "--strict", "--config", cfg_path, "--out", str(tmp_path / "o")],
                 EXIT_HYPOTHESIS),
                (["verify", "--in", str(solved)], EXIT_OK)):
            with subprocess.Popen([sys.executable, "-m", "emlab.cli", *args], env=env,
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
                proc.stdout.close()
                err = proc.stderr.read().decode()
                assert (proc.wait(timeout=120), err) == (code, "")

    def test_ellipticity_refusal_writes_report(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, dict(TORSION_CONFIG, model={
            "name": "power_dirichlet", "parameters": [3.0, 0.0, 1.0]}))
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg_path, "--out", str(out)]) == EXIT_SOLVER
        doc = json.loads((out / "report.json").read_text())
        validate_report(doc)
        assert doc["solver"]["final_residual"] is None
        assert doc["solver"]["witness"]["witness"] is not None
        timings = json.loads((out / "timings.json").read_text())
        # the pilot box refuses the model before the domain is built
        assert {"hypotheses_pilot", "export"} <= set(timings)
        assert not {"domain", "solve"} & set(timings)

    def test_unconverged_run_exits_one(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, dict(
            TORSION_CONFIG,
            model={"name": "dirichlet_exponential", "parameters": [1.0, 1.0]},
            solver={"max_iterations": 1}))
        out = str(tmp_path / "out")
        assert main(["solve", "--config", cfg_path, "--out", out]) == EXIT_SOLVER
        capsys.readouterr()
        assert main(["verify", "--in", out]) == EXIT_SOLVER
        text = capsys.readouterr().out
        assert "[FAIL] solver_convergence" in text
        passed, total = map(int, re.search(r"(\d+)/(\d+) checks passed", text).groups())
        assert passed < total
        assert main(["analyze", "--in", out]) == EXIT_SOLVER
        # no evaluation ran, so every evaluated column is nan and no tensor.csv
        fields, boundary = _evaluated_columns(out)
        assert np.isnan(fields).all() and np.isnan(boundary).all()
        assert not os.path.exists(os.path.join(out, "tensor.csv"))
        # the nan columns print from the kernel's own rows, none through %
        timings = json.loads((tmp_path / "out" / "timings.json").read_text())
        assert timings["export_values"]["formatted_by_percent"] == 0

    def test_no_solution_exits_one(self, tmp_path, capsys):
        # mean curvature 3 exceeds 2/R on the unit disc: no solution exists
        cfg_path = write_config(tmp_path, dict(TORSION_CONFIG, model={
            "name": "minimal_surface", "parameters": [0.0, 3.0]}))
        out = str(tmp_path / "out")
        assert main(["solve", "--config", cfg_path, "--out", out]) == EXIT_SOLVER
        log = json.loads((tmp_path / "out" / "solver_log.json").read_text())
        assert 1 < len(log) <= 20
        capsys.readouterr()
        assert main(["verify", "--in", out]) == EXIT_SOLVER
        assert "[FAIL] solver_convergence" in capsys.readouterr().out

    def test_failed_radial_oracle_is_a_failed_check(self, tmp_path, capsys):
        # mean curvature 3 on the annulus [0.3, 1]: 3 |area| exceeds the
        # perimeter, so the grid solve converges to a discrete artefact for
        # which the radial oracle has no profile
        cfg_path = write_config(tmp_path, dict(
            TORSION_CONFIG, spacing=1.0 / 32,
            model={"name": "minimal_surface", "parameters": [0.0, 3.0]},
            shape={"kind": "annulus", "parameters": [0.3, 1.0]}))
        out = str(tmp_path / "out")
        assert main(["solve", "--config", cfg_path, "--out", out]) == EXIT_INVARIANT
        text = capsys.readouterr().out
        assert "[FAIL] radial_oracle_agreement: value=failed: " in text
        doc = json.loads((tmp_path / "out" / "report.json").read_text())
        assert "failure" in doc["solver"]["radial_oracle"]
        assert "radial_oracle_agreement" in doc["status"]["violations"]
        assert main(["verify", "--in", out]) == EXIT_INVARIANT
        assert "[FAIL] radial_oracle_agreement: value=failed: " in capsys.readouterr().out

    def test_reused_directory_keeps_no_stale_files(self, tmp_path, capsys):
        out = tmp_path / "d"
        assert main(["solve", "--config", write_config(tmp_path, TORSION_CONFIG),
                     "--out", str(out)]) == EXIT_OK
        # an unconverged run is never evaluated, so it writes no tensor.csv
        unconverged = write_config(tmp_path, dict(
            TORSION_CONFIG, model={"name": "dirichlet_exponential", "parameters": [1.0, 1.0]},
            solver={"max_iterations": 1}), "unconverged.yaml")
        assert main(["solve", "--config", unconverged, "--out", str(out)]) == EXIT_SOLVER
        assert sorted(os.listdir(out)) == ["boundary.csv", "config.yaml", "fields.csv",
                                           "report.json", "solver_log.json", "timings.json"]
        # g = 2 + q turns negative where u < -2: the solver refuses the model
        refused = write_config(tmp_path, dict(TORSION_CONFIG, model={
            "expression": "0.5*(2 + q)*p**2 + 20*q", "smooth_at_origin": True}), "refused.yaml")
        assert main(["solve", "--config", refused, "--out", str(out)]) == EXIT_SOLVER
        assert sorted(os.listdir(out)) == ["config.yaml", "report.json", "timings.json"]
        report = (out / "report.json").read_bytes()
        capsys.readouterr()
        assert main(["verify", "--in", str(out)]) == EXIT_SOLVER
        assert "0/0 checks passed" in capsys.readouterr().out
        assert main(["analyze", "--in", str(out)]) == EXIT_SOLVER
        assert (out / "report.json").read_bytes() == report

    def test_deeply_nested_input_exits_four(self, tmp_path, capsys):
        deep = "[" * 200000 + "]" * 200000
        (tmp_path / "report.json").write_text(deep)
        (tmp_path / "config.yaml").write_text("model: " + deep)
        assert main(["report", "--in", str(tmp_path)]) == EXIT_CONFIG
        assert main(["check", "--config", str(tmp_path / "config.yaml")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("configuration error:") == 2
        assert err.count("\n") == 2 and "Traceback" not in err

    def test_unallocatable_lattice_exits_four(self, tmp_path):
        # spacing 1e-6 asks for 2000005^2 lattice doubles (29.1 TiB), which
        # numpy refuses at once; the address-space cap of the child keeps it
        # that way on a host that would overcommit
        cfg_path = write_config(tmp_path, dict(TORSION_CONFIG, spacing=1e-6))
        proc = _python(["-m", "emlab.cli", "solve", "--config", cfg_path,
                        "--out", str(tmp_path / "o")], preexec_fn=_cap_address_space)
        assert proc.returncode == EXIT_CONFIG
        assert proc.stderr.startswith("configuration error: domain build failed: ")
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("shape,spacing", [
        ({"kind": "disc", "parameters": [1.0]}, 1e-300),
        ({"kind": "disc", "parameters": [1e300]}, 1e-300),
        ({"kind": "disc", "parameters": [1.0], "center": [1e14, 0.0]}, 0.1),
    ], ids=["index_range", "overflow", "unresolved_center"])
    def test_unbuildable_lattice_exits_four(self, tmp_path, capsys, shape, spacing):
        # each is refused before the lattice is allocated
        cfg_path = write_config(tmp_path, dict(TORSION_CONFIG, shape=shape, spacing=spacing))
        assert main(["solve", "--config", cfg_path, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error: domain build failed: ")
        assert err.count("\n") == 1

    def test_report_bytes_do_not_depend_on_thread_count(self, tmp_path):
        # the identity quadratures must not leave their summation order to
        # the BLAS, which splits a dot product across its threads
        cfg_path = write_config(tmp_path, dict(TORSION_CONFIG, spacing=1.0 / 64))
        reports = []
        for threads in (1, 2):
            out = tmp_path / f"threads{threads}"
            proc = _python(["-m", "emlab.cli", "solve", "--config", cfg_path,
                            "--out", str(out)], threads=threads)
            assert proc.returncode == EXIT_OK, proc.stderr
            reports.append((out / "report.json").read_bytes())
        assert reports[0] == reports[1]

    def test_newton_solve_bytes_do_not_depend_on_thread_count(self, tmp_path):
        """The seed-1 ellipse of the benchmark: at h = 1/128 the vectors are
        long enough for the BLAS to split a sum across threads, which the
        Newton-GMRES solve must not leave to it.  Its export has about 31k
        rows, so with 2 BLAS threads on 2 CPUs a forked child formats half
        of each large CSV, and with 1 on 1 no child runs: this also compares
        the forked export with the serial one end to end."""
        cfg_path = write_config(tmp_path, {
            "model": {"expression": "sqrt(1 + p**2) + q", "smooth_at_origin": True},
            "shape": {"kind": "ellipse", "parameters": [1.0, 0.6],
                      "center": [0.0010497206571281345, 0.00662057606982213]},
            "spacing": 1.0 / 128})
        runs = []
        for threads in (1, 2):
            out = tmp_path / f"threads{threads}"
            proc = _python(["-m", "emlab.cli", "solve", "--config", cfg_path,
                            "--out", str(out)], threads=threads)
            assert proc.returncode == EXIT_OK, proc.stderr
            runs.append({name: (out / name).read_bytes() for name in (
                "report.json", "fields.csv", "tensor.csv", "boundary.csv",
                "solver_log.json")})
        assert len(json.loads(runs[0]["solver_log.json"])) > 2  # Newton steps ran
        assert runs[0] == runs[1]
        forked = ["export_child" in json.loads((tmp_path / f"threads{k}" / "timings.json")
                                               .read_text()) for k in (1, 2)]
        assert forked == [False, len(os.sched_getaffinity(0)) >= 2]

    def test_reload_domain_error_exits_four(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, TORSION_CONFIG)
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg_path, "--out", str(out)]) == EXIT_OK
        echo = yaml.safe_load((out / "config.yaml").read_text())
        echo["spacing"] = 0.9  # too coarse for the unit disc
        (out / "config.yaml").write_text(yaml.safe_dump(echo))
        capsys.readouterr()
        assert main(["verify", "--in", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "domain build failed" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("case", ["list", "solver_string", "iterations_string",
                                      "bare_status"])
    def test_malformed_report_exits_four(self, run_dir, tmp_path, capsys, case):
        out = tmp_path / "run"
        shutil.copytree(run_dir[0], out)
        doc = json.loads((out / "report.json").read_text())
        if case == "list":
            doc = []
        elif case == "solver_string":
            doc["solver"] = "x"
        elif case == "iterations_string":
            doc["solver"]["iterations"] = "abc"
        else:
            doc = {"status": 3}
            (out / "fields.csv").unlink()
        (out / "report.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", "--in", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "malformed" in err
        assert err.count("\n") == 1 and "Traceback" not in err
        if case == "list":
            assert main(["report", "--in", str(out)]) == EXIT_CONFIG
            assert "malformed" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("damping", 0.7), ("newton_polish", True),
        # the analysis echo of older run directories, and a toggle turned off
        pytest.param("analysis", dict.fromkeys(
            ["hypotheses", "identities", "pfunction", "radial_oracle", "tensor"], True),
            id="analysis-echo"),
        pytest.param("analysis", {"tensor": False}, id="analysis-tensor-off"),
    ])
    def test_removed_solver_keys_exit_four(self, tmp_path, capsys, key, value):
        # analysis was a top-level key, the others solver keys
        def with_key(data):
            data = dict(data)
            if key == "analysis":
                data[key] = value
            else:
                data["solver"] = dict(data.get("solver", {}), **{key: value})
            return data
        message = (f"unknown {'top-level' if key == 'analysis' else 'solver'} "
                   f"keys: ['{key}']")
        cfg_path = write_config(tmp_path, with_key(TORSION_CONFIG))
        assert main(["solve", "--config", cfg_path, "--out",
                     str(tmp_path / "o")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == f"configuration error: {message}\n"
        # the config echo of a run directory written with the key set
        out = tmp_path / "out"
        assert main(["solve", "--config", write_config(tmp_path, TORSION_CONFIG, "t.yaml"),
                     "--out", str(out)]) == EXIT_OK
        echo = with_key(yaml.safe_load((out / "config.yaml").read_text()))
        (out / "config.yaml").write_text(yaml.safe_dump(echo))
        capsys.readouterr()
        assert main(["verify", "--in", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    def test_verify_catches_tampered_fields(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, TORSION_CONFIG)
        out = str(tmp_path / "out")
        assert main(["solve", "--config", cfg_path, "--out", out]) == EXIT_OK
        fields = os.path.join(out, "fields.csv")
        with open(fields) as fh:
            header, *rows = fh.read().splitlines()
        iu = header.split(",").index("u")
        doctored = []
        for k, row in enumerate(rows):
            cells = row.split(",")
            if k % 7 == 0:
                cells[iu] = f"{float(cells[iu]) + 1e-2:.17g}"
            doctored.append(",".join(cells))
        with open(fields, "w") as fh:
            fh.write("\n".join([header] + doctored) + "\n")
        assert main(["verify", "--in", out]) == EXIT_INVARIANT
        assert "FAIL" in capsys.readouterr().out

    def test_absurd_u_fails_the_residual_recheck(self, tmp_path, capsys):
        # u = 1e300 at one node overflows the model on the solution's (p, u)
        # box; the field is no solution, so it fails the residual recheck
        # rather than blaming the model
        out = tmp_path / "out"
        assert main(["solve", "--config", write_config(tmp_path, TORSION_CONFIG),
                     "--out", str(out)]) == EXIT_OK
        fields = out / "fields.csv"
        header, first, *rows = fields.read_text().splitlines()
        cells = first.split(",")
        cells[header.split(",").index("u")] = "1e300"
        fields.write_text("\n".join([header, ",".join(cells), *rows]) + "\n")
        capsys.readouterr()
        assert main(["verify", "--in", str(out)]) == EXIT_INVARIANT
        captured = capsys.readouterr()
        assert "[FAIL] solver_residual_recheck" in captured.out
        assert captured.err == ""
        assert main(["analyze", "--in", str(out)]) == EXIT_INVARIANT
        doc = json.loads((out / "report.json").read_text())
        validate_report(doc)
        assert doc["status"] == {"exit_code": EXIT_INVARIANT,
                                 "violations": ["solver_residual_recheck"]}

    @pytest.mark.parametrize("model,shape,spacing,strict,code", [
        (TORSION_CONFIG["model"], TORSION_CONFIG["shape"], 1.0 / 32, False, EXIT_OK),
        (TORSION_CONFIG["model"], {"kind": "annulus", "parameters": [0.3, 1.0]},
         1.0 / 32, False, EXIT_OK),
        ({"name": "minimal_surface", "parameters": [1.0, 0.5]},
         {"kind": "ellipse", "parameters": [1.0, 0.5]}, 1.0 / 32, False, EXIT_OK),
        ({"name": "dirichlet_exponential", "parameters": [1.0, 1.0]},
         {"kind": "rectangle", "parameters": [1.0, 0.7]}, 1.0 / 32, False, EXIT_OK),
        # F_p < 1 bounds the radial flux: a convex problem the radial oracle
        # must solve without probing fluxes of 1 or more
        ({"name": "minimal_surface", "parameters": [1.0, 0.5]},
         {"kind": "annulus", "parameters": [0.3, 1.0]}, 1.0 / 32, False, EXIT_OK),
        # F odd in p: the radial profile has a kink in a higher derivative,
        # at r = 0 of the disc and where u' changes sign in the annulus
        ({"expression": "0.5*p**2 + p**3 + q", "smooth_at_origin": True},
         TORSION_CONFIG["shape"], 1.0 / 32, False, EXIT_OK),
        ({"expression": "0.5*p**2 + p**3 + q", "smooth_at_origin": True},
         {"kind": "annulus", "parameters": [0.3, 1.0]}, 1.0 / 32, False, EXIT_OK),
        # convexity fails on the solution's range only: the solve runs, then
        # the strict hypothesis check stops the analyses
        ({"expression": "0.5*p**2 - 0.02*q**4*p**4 + 4.4*q", "smooth_at_origin": True},
         TORSION_CONFIG["shape"], 1.0 / 16, True, EXIT_HYPOTHESIS),
    ], ids=["torsion_disc", "torsion_annulus", "minsurf_ellipse", "exp_rectangle",
            "minsurf_annulus", "cubic_disc", "cubic_annulus", "strict_after_solve"])
    def test_round_trip_keeps_files_and_exit_code(self, tmp_path, capsys, model, shape,
                                                   spacing, strict, code):
        cfg_path = write_config(tmp_path, {"model": model, "shape": shape,
                                           "spacing": spacing})
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg_path, "--out", str(out)]
                    + ["--strict"] * strict) == code

        def persisted():
            return {p.name: p.read_bytes() for p in out.iterdir()
                    if p.name != "timings.json"}

        before = persisted()
        assert main(["analyze", "--in", str(out)]) == code
        assert persisted() == before
        assert main(["verify", "--in", str(out)]) == code
        assert main(["report", "--in", str(out)]) == code

    def test_refused_run_verifies_with_its_exit_code(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, dict(TORSION_CONFIG, model={
            "name": "power_dirichlet", "parameters": [3.0, 0.0, 1.0]}))
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg_path, "--out", str(out)]) == EXIT_SOLVER
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        assert main(["verify", "--in", str(out)]) == EXIT_SOLVER
        captured = capsys.readouterr()
        assert "ellipticity breakdown" in captured.out
        assert "0/0 checks passed" in captured.out
        assert "configuration error" not in captured.err
        assert main(["analyze", "--in", str(out)]) == EXIT_SOLVER
        assert "configuration error" not in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize("change,message", [
        ({"spacing": float("nan")}, "spacing must be a positive finite number"),
        ({"shape": {"kind": "disc", "parameters": [float("inf")]}},
         "shape parameters and center must be finite"),
        ({"model": {"expression": "0.5*p**2 + log(q)"}}, "model evaluation failed"),
        ({"model": {"expression": "p + 0.5*p**2 + q"}}, "not smooth at the origin"),
        ({"model": {"expression": "0.5*p**2 + q + 1/0"}}, "model evaluation failed"),
        # the parser runs out of its own stack (MemoryError in CPython 3.11)
        ({"model": {"expression": "-" * 10000 + "p"}}, "it nests too deeply"),
    ])
    def test_bad_numbers_exit_four_without_traceback(self, tmp_path, capsys,
                                                     change, message):
        cfg_path = write_config(tmp_path, dict(TORSION_CONFIG, **change))
        assert main(["solve", "--config", cfg_path, "--out",
                     str(tmp_path / "o")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert message in err
        assert err.count("\n") == 1 and "Traceback" not in err


# ---------------------------------------------------------------------------
# random configurations through the command line
# ---------------------------------------------------------------------------

#: values of the wrong type, length or range for any key
_JUNK = st.sampled_from([
    "12", "", "disc", True, False, None, float("nan"), float("inf"), -1.0, 0.0, 1.0, 2.5,
    10 ** 400, {"a": 1}, {0: 0.5}, [], [True, 1.0], [0.5], [0.1, 0.2, 0.3], [[0.5]],
]) | st.lists(st.floats(-2.0, 2.0), max_size=3)

_PAIR = st.lists(st.floats(-0.2, 0.2), min_size=2, max_size=2)
_MODELS = st.sampled_from([
    {"name": "dirichlet_affine", "parameters": [0.5, 1.0]},
    {"name": "dirichlet_exponential", "parameters": [1.0, 1.0]},
    {"name": "minimal_surface", "parameters": [1.0, 0.5]},
    # refused for ellipticity, exit 1
    {"name": "power_dirichlet", "parameters": [3.0, 0.0, 1.0]},
    # convexity fails on the solution's range: exit 2 when strict
    {"expression": "0.5*p**2 - 0.02*q**4*p**4 + 4.4*q", "smooth_at_origin": True},
    # convexity fails on the pilot box: exit 2 when strict, else 1
    BUMP_MODEL,
    # nests deeper than the compiler takes: exit 4
    {"expression": "0.5*p*p + q" + " + 0*p" * 1000, "smooth_at_origin": True},
])
_SHAPES = st.one_of(
    st.tuples(st.just("disc"), st.floats(0.4, 1.2)),
    st.tuples(st.just("annulus"), st.floats(0.2, 0.4), st.floats(0.8, 1.2)),
    st.tuples(st.just("ellipse"), st.floats(0.5, 1.2), st.floats(0.5, 1.2)),
    st.tuples(st.just("rectangle"), st.floats(0.8, 2.0), st.floats(0.8, 2.0)))
#: where a junk value may replace the valid one
_PATHS = [("model",), ("model", "parameters"), ("shape",), ("shape", "kind"),
          ("shape", "parameters"), ("shape", "center"), ("spacing",), ("x0",),
          ("solver",), ("solver", "max_iterations"), ("solver", "residual_tol")]


@st.composite
def _configs(draw):
    """A small valid configuration (h >= 1/16), then up to two of its
    values replaced by junk."""
    kind, *params = draw(_SHAPES)
    config = {"model": dict(draw(_MODELS)), "shape": {"kind": kind, "parameters": params},
              "spacing": draw(st.sampled_from([1.0 / 16, 1.0 / 8])),
              "solver": {"max_iterations": draw(st.integers(1, 30))}}
    if draw(st.booleans()):
        config["shape"]["center"] = draw(_PAIR)
    if draw(st.booleans()):
        config["x0"] = draw(_PAIR)
    for path in draw(st.lists(st.sampled_from(_PATHS), max_size=2)):
        node = config
        for key in path[:-1]:
            node = node[key] if isinstance(node.get(key), dict) else {}
        node[path[-1]] = draw(_JUNK)
    return config


def _cli(*argv):
    """Exit code and stderr of one in-process ``emlab`` command."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, err.getvalue()


def _assert_exit_and_stderr(code, err):
    assert code in (EXIT_OK, EXIT_SOLVER, EXIT_HYPOTHESIS, EXIT_INVARIANT, EXIT_CONFIG)
    assert "Traceback" not in err
    if code == EXIT_CONFIG:
        assert err.count("\n") == 1


class TestConfigFuzz:
    """Every configuration ends in an exit code from 0 to 4 with no
    traceback, any report it writes is schema-valid, ``report`` and
    ``verify`` on its run directory return the exit code of ``solve``, and
    ``check`` exits 0, 2 or 4, with 2 under ``--strict`` only where
    ``solve --strict`` exits 2 too."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(config=_configs(), strict=st.booleans())
    def test_exit_codes_survive_the_round_trip(self, config, strict):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "config.yaml")
            with open(path, "w") as fh:
                fh.write(yaml.safe_dump(config))
            out = os.path.join(tmp, "out")
            flag = ["--strict"] * strict
            code, err = _cli("solve", "--config", path, "--out", out, *flag)
            _assert_exit_and_stderr(code, err)
            for check_flag in ([], ["--strict"]):
                check_code, check_err = _cli("check", "--config", path, *check_flag)
                _assert_exit_and_stderr(check_code, check_err)
                assert check_code in (EXIT_OK, EXIT_HYPOTHESIS, EXIT_CONFIG)
                if check_code == EXIT_HYPOTHESIS:
                    # the solve's pilot draws the sample that check draws
                    assert check_flag
                    assert code == (EXIT_HYPOTHESIS if strict else EXIT_SOLVER)
            report_path = os.path.join(out, "report.json")
            if os.path.exists(report_path):
                with open(report_path) as fh:
                    validate_report(json.load(fh))
            assert _cli("report", "--in", out, *flag)[0] == code
            assert _cli("verify", "--in", out)[0] == code
