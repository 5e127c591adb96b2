"""Acceptance suite: one test per criterion, one printed verdict line each.

All tolerances are pinned here, not computed.  The torsion benchmark is the
quadratic closed form u = (r^2 - 1)/4, which the conservative cut-distance
scheme reproduces to rounding; convergence-factor criteria therefore carry
an explicit rounding-floor provision (norms below 1e-10 pass outright, the
scheme exceeding the required order), with the genuine decay demonstrated
on the non-polynomial annular closed form.
"""

import hashlib
import math
import time

import numpy as np
import pytest

from emlab.geometry import build_domain, make_shape
from emlab.lagrangian import (eval_jet, halton_samples, make_model,
                              pfunction_identity_residual)
from emlab.identities import run_identity_suite
from emlab.pfunction import gradient_bound_check, locate_max
from emlab.pipeline import export_fields, parse_config, run_pipeline
from emlab.solver import solve_euler_lagrange, solve_radial
from emlab.tensor_field import assemble_field, consistency_report, divergence_residual
from conftest import ANN_LOG_COEF, ANN_CONST, annulus_exact_u, lambda1_radial

FLOOR = 1e-10


def verdict(num, ok, text):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num}: {text}"


@pytest.fixture(scope="module")
def torsion128(torsion_model):
    dom = build_domain(make_shape("disc", [1.0]), 1.0 / 128)
    return dom, solve_euler_lagrange(torsion_model, dom)


def test_criterion_1_torsion_benchmark(torsion_model):
    t0 = time.perf_counter()
    report = run_pipeline(parse_config({
        "model": {"name": "dirichlet_affine", "parameters": [0.5, 1.0]},
        "shape": {"kind": "disc", "parameters": [1.0]},
        "spacing": 1.0 / 64,
    }))
    elapsed = time.perf_counter() - t0
    dom, res = report.domain, report.result
    r2 = dom.xy[:, 0] ** 2 + dom.xy[:, 1] ** 2
    err = float(np.max(np.abs(res.u - (r2 - 1.0) / 4.0)))
    fld = report.spectral_field
    prep = locate_max(fld)
    ok = (err <= 2e-3
          and abs(prep["sup_value"] - (-0.25)) <= 5e-3
          and math.hypot(*prep["argmax"]) <= 2.0 * dom.h
          and prep["location_class"] == "critical_set"
          and fld.definiteness_class == "negative_definite"
          and abs(fld.uniform_constant_C - 0.25) <= 5e-3
          and elapsed <= 10.0)
    verdict(1, ok, f"solver err {err:.2e} <= 2e-3; lambda1 max "
                   f"{prep['sup_value']:.6f} = -0.25 +/- 5e-3 at {prep['argmax']} "
                   f"({prep['location_class']}); C = {fld.uniform_constant_C:.6f}; "
                   f"runtime {elapsed:.1f}s <= 10s")


def test_criterion_2_shifted_torsion(shifted_model, shifted_result, disc64):
    fld = assemble_field(shifted_model, shifted_result, disc64)
    prep = locate_max(fld)
    ok = (fld.definiteness_class == "positive_definite"
          and abs(prep["sup_value"] - 0.45) <= 5e-3
          and math.hypot(*prep["argmax"]) <= 2.0 * disc64.h)
    verdict(2, ok, f"T {fld.definiteness_class}; lambda1 max {prep['sup_value']:.6f} "
                   f"= 0.45 +/- 5e-3 at {prep['argmax']}")


def test_criterion_3_identity_suite(torsion_model, torsion_result, disc64, torsion128):
    target = -3.0 * math.pi / 4.0
    rep64, _ = run_identity_suite(assemble_field(torsion_model, torsion_result, disc64))
    dom128, res128 = torsion128
    rep128, _ = run_identity_suite(assemble_field(torsion_model, res128, dom128))
    pairs = ("rellich", "rellich_source", "pohozaev")
    sides = [rep64[k][side] for k in pairs for side in ("volume", "boundary")]
    residuals64 = [rep64[k]["residual"] for k in pairs]
    residuals128 = [rep128[k]["residual"] for k in pairs]
    factors = [a / b for a, b in zip(residuals64, residuals128)]
    ok = (all(abs(s - target) <= 2e-2 for s in sides)
          and all(r <= 2e-2 for r in residuals64)
          and all(f >= 1.8 for f in factors))
    verdict(3, ok, f"all six sides = {target:.5f} +/- 2e-2; residuals "
                   f"{[f'{r:.1e}' for r in residuals64]} <= 2e-2; halving "
                   f"factors {[f'{f:.2f}' for f in factors]} >= 1.8")


def test_criterion_4_divergence_residual(torsion_model, torsion_result, disc64,
                                         torsion128):
    norms = []
    dom32 = build_domain(make_shape("disc", [1.0]), 1.0 / 32)
    res32 = solve_euler_lagrange(torsion_model, dom32)
    for model, res, dom in [(torsion_model, res32, dom32),
                            (torsion_model, torsion_result, disc64),
                            (torsion_model, *reversed(torsion128))]:
        norms.append(assemble_field(model, res, dom).div_T_sup_norm_core)
    at_floor = all(n <= FLOOR for n in norms)
    factors_ok = at_floor or all(norms[i] / norms[i + 1] >= 1.8 for i in range(2))

    # exact-field injection: the annular tensor is non-polynomial, so its
    # discrete divergence is pure truncation error and must decay
    inj = []
    for h in (1.0 / 32, 1.0 / 64, 1.0 / 128):
        dom = build_domain(make_shape("annulus", [0.3, 1.0]), h)
        x, y = dom.xy[:, 0], dom.xy[:, 1]
        r2 = x * x + y * y
        coef = 0.5 + ANN_LOG_COEF / r2
        ux, uy = x * coef, y * coef
        F = 0.5 * (ux**2 + uy**2) + (r2 / 4.0 + ANN_LOG_COEF * np.log(np.sqrt(r2))
                                     + ANN_CONST) + 0.5
        _, norm = divergence_residual(
            dom, np.array([[ux * ux - F, ux * uy], [ux * uy, uy * uy - F]]))
        inj.append(norm)
    inj_factors = [inj[i] / inj[i + 1] for i in range(2)]
    ok = factors_ok and all(f >= 1.8 for f in inj_factors)
    verdict(4, ok, f"solved-torsion norms {[f'{n:.1e}' for n in norms]} "
                   f"{'at rounding floor (scheme exact on quadratic T)' if at_floor else 'decay >= 1.8x'}; "
                   f"injected exact-field factors {[f'{f:.2f}' for f in inj_factors]} >= 1.8")


def test_criterion_5_compatibility_cancellation():
    models = [make_model("dirichlet_affine", [0.5, 1.0]),
              make_model("dirichlet_exponential", [1.0, 1.0]),
              make_model("dirichlet_power", [0.5, 3]),
              make_model("power_dirichlet", [4.0, 0.0, 1.0]),
              make_model("minimal_surface", [2.0, 1.0])]
    pts = halton_samples(1000, ((1e-3, 2.0), (-2.0, 2.0)))
    worst = {}
    for model in models:
        res = pfunction_identity_residual(pts[:, 0], eval_jet(model, pts[:, 0], pts[:, 1]))
        worst[model.name] = float(np.max(res))
    ok = all(v < 1e-11 for v in worst.values())
    verdict(5, ok, "max compatibility residual over 1000 samples per model: "
                   + ", ".join(f"{k}={v:.1e}" for k, v in worst.items()) + " < 1e-11")


def test_criterion_6_spectral_crosscheck(torsion_model, torsion_result,
                                         shifted_model, shifted_result,
                                         exp_model, exp_result, disc64,
                                         annulus_result, annulus64):
    runs = [("torsion", torsion_model, torsion_result, disc64),
            ("shifted", shifted_model, shifted_result, disc64),
            ("exponential", exp_model, exp_result, disc64),
            ("annulus", torsion_model, annulus_result, annulus64)]
    worst = {"spectrum": 0.0, "symmetry": 0.0, "trace": 0.0, "det": 0.0}
    for name, model, res, dom in runs:
        rep = consistency_report(assemble_field(model, res, dom))
        worst["spectrum"] = max(worst["spectrum"], rep["spectrum_crosscheck_max"])
        worst["symmetry"] = max(worst["symmetry"], rep["symmetry_max"])
        worst["trace"] = max(worst["trace"], rep["trace_consistency_max"])
        worst["det"] = max(worst["det"], rep["det_consistency_max_rel"])
    ok = (worst["spectrum"] <= 1e-10 and worst["symmetry"] == 0.0
          and worst["trace"] <= 1e-10 and worst["det"] <= 1e-10)
    verdict(6, ok, f"every node of {len(runs)} catalog runs: spectrum dev "
                   f"{worst['spectrum']:.1e} <= 1e-10, symmetry {worst['symmetry']:.1f} "
                   f"(exact), trace/det consistency {worst['trace']:.1e}/"
                   f"{worst['det']:.1e} <= 1e-10")


def test_criterion_7_annulus_counter_case(torsion_model, annulus_result, annulus64):
    prep = locate_max(assemble_field(torsion_model, annulus_result, annulus64))
    r = np.hypot(annulus64.xy[:, 0], annulus64.xy[:, 1])
    err = float(np.max(np.abs(annulus_result.u - annulus_exact_u(r))))
    ok = (prep["H_min"] < 0.0
          and prep["location_class"] in ("critical_set", "boundary")
          and err <= 5e-3)
    verdict(7, ok, f"H_min = {prep['H_min']:.3f} < 0; location class "
                   f"{prep['location_class']}; closed-form err {err:.1e} <= 5e-3")


def test_criterion_8_two_branch_formula(torsion_model, torsion_result, disc64,
                                        shifted_model, shifted_result,
                                        exp_model, exp_result,
                                        annulus_result, annulus64):
    runs = [("torsion", torsion_model, torsion_result, disc64),
            ("shifted", shifted_model, shifted_result, disc64),
            ("exponential", exp_model, exp_result, disc64),
            ("annulus", torsion_model, annulus_result, annulus64)]
    lines, ok = [], True
    for name, model, res, dom in runs:
        prep = locate_max(assemble_field(model, res, dom))
        excess = prep["sup_value"] - max(v for v in (prep["boundary_formula_value"],
                                                     prep["critical_formula_value"])
                                         if v is not None)
        ok = ok and excess <= 5e-3
        if prep["H_min"] >= 0.0:
            dev = abs(prep["sup_value"] - prep["critical_formula_value"])
            ok = ok and dev <= 5e-3
            lines.append(f"{name}: excess {excess:.1e}, critical-branch dev {dev:.1e}")
        else:
            lines.append(f"{name}: excess {excess:.1e} (H_min < 0)")
    verdict(8, ok, "; ".join(lines))


def test_criterion_9_gradient_bound(torsion_model, torsion_result, disc64):
    fld = assemble_field(torsion_model, torsion_result, disc64)
    gb = gradient_bound_check(fld, locate_max(fld))
    prof = solve_radial(torsion_model, (0.0, 1.0), n=1)
    spread = float(np.ptp(lambda1_radial(torsion_model, prof, (0.0, 1.0), n=1)))
    ok = (gb["applicable"] and gb["worst_margin"] >= -1e-6
          and gb["family_margin"] >= -1e-6 and spread <= 1e-6)
    verdict(9, ok, f"nodewise margins {gb['worst_margin']:.1e}/"
                   f"{gb['family_margin']:.1e} >= -1e-6; interval lambda1 "
                   f"spread {spread:.1e} <= 1e-6")


def test_criterion_10_determinism(tmp_path):
    config = {
        "model": {"name": "dirichlet_affine", "parameters": [0.5, 1.0]},
        "shape": {"kind": "disc", "parameters": [1.0]},
        "spacing": 1.0 / 32,
    }
    digests = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        export_fields(run_pipeline(parse_config(config)), str(out))
        digests.append({
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("report.json", "fields.csv")})
    ok = digests[0] == digests[1]
    verdict(10, ok, f"two identical runs: report.json {digests[0]['report.json'][:12]}..., "
                    f"fields.csv {digests[0]['fields.csv'][:12]}... byte-identical")
