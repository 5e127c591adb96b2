"""Principal-eigenvalue field, maximum location and gradient bounds."""

import dataclasses
import math

import numpy as np
import pytest

from emlab.errors import UnconvergedError
from emlab.lagrangian import check_hypotheses, eval_jet, make_expression_model
from emlab.pfunction import (check_max_principle_conditions, gradient_bound_check,
                             locate_max, pfunction_report)
from emlab.solver import solve_radial
from emlab.tensor_field import assemble_field
from conftest import annulus_exact_du, annulus_exact_u, lambda1_radial


def two_branch_bound(section):
    """max of the admissible branches of the sup formula in a ``locate_max``
    section."""
    return max(v for v in (section["boundary_formula_value"],
                           section["critical_formula_value"]) if v is not None)


def solution_hypotheses(model, result):
    """``check_hypotheses`` on the solution's (p, u) range, padded as the
    pipeline pads it."""
    m, M = result.solution_range
    pad = 0.1 * max(M - m, 1e-6)
    return check_hypotheses(model, box=((0.0, 1.1 * max(result.gradient_range[1], 1e-6)),
                                        (m - pad, M + pad)))


def bound_check(model, result, domain):
    fld = assemble_field(model, result, domain)
    return gradient_bound_check(fld, locate_max(fld))


class TestLambda1Field:
    def test_quadratic_family_formula(self, torsion_model, torsion_result, disc64):
        # lambda1 = |grad u|^2/2 - Phi(u) for F = p^2/2 + Phi
        lam = assemble_field(torsion_model, torsion_result, disc64).lambda1
        expected = 0.5 * torsion_result.p**2 - (torsion_result.u + 0.5)
        assert np.max(np.abs(lam - expected)) < 1e-14

    def test_torsion_closed_form(self, torsion_model, torsion_result, disc64):
        lam = assemble_field(torsion_model, torsion_result, disc64).lambda1
        r2 = disc64.xy[:, 0] ** 2 + disc64.xy[:, 1] ** 2
        assert np.max(np.abs(lam - (-r2 / 8.0 - 0.25))) <= 2e-3

    def test_zero_solution_constant(self, laplace_model, laplace_result, disc64):
        fld = assemble_field(laplace_model, laplace_result, disc64)
        lam, blam = fld.lambda1, fld.boundary_lambda1
        assert np.max(np.abs(lam + 1.0)) <= 1e-10  # -F(0,0) = -1
        assert np.max(np.abs(blam + 1.0)) <= 1e-10

    def test_matches_tensor_eigenvalue(self, torsion_model, torsion_result, disc64):
        # p F_p - F from its own jet evaluation against the tensor's lambda1
        p = torsion_result.p
        jet = eval_jet(torsion_model, p, torsion_result.u)
        lam = p * jet.F_p - jet.F
        fld = assemble_field(torsion_model, torsion_result, disc64)
        assert np.max(np.abs(lam - fld.lambda1)) <= 1e-12

    def test_refuses_unconverged(self, torsion_model, torsion_result, disc64):
        broken = dataclasses.replace(torsion_result, converged=False)
        with pytest.raises(UnconvergedError):
            assemble_field(torsion_model, broken, disc64)


class TestLocateMax:
    def test_torsion_disc(self, torsion_model, torsion_result, disc64):
        rep = locate_max(assemble_field(torsion_model, torsion_result, disc64))
        assert rep["location_class"] == "critical_set"
        assert rep["sup_value"] == pytest.approx(-0.25, abs=5e-3)
        assert math.hypot(*rep["argmax"]) <= 2.0 * disc64.h
        assert rep["critical_formula_value"] == pytest.approx(-0.25, abs=5e-3)
        assert rep["H_min"] == pytest.approx(1.0)
        # convex boundary: sup equals the critical branch
        assert abs(rep["sup_value"] - rep["critical_formula_value"]) <= 5e-3

    def test_shifted_disc(self, shifted_model, shifted_result, disc64):
        rep = locate_max(assemble_field(shifted_model, shifted_result, disc64))
        assert rep["location_class"] == "critical_set"
        assert rep["sup_value"] == pytest.approx(0.45, abs=5e-3)

    def test_annulus(self, torsion_model, annulus_result, annulus64):
        rep = locate_max(assemble_field(torsion_model, annulus_result, annulus64))
        assert rep["H_min"] == pytest.approx(-1.0 / 0.3, rel=1e-12)
        assert rep["location_class"] in ("critical_set", "boundary")
        assert rep["location_class"] != "interior_noncritical"
        # brute-force the closed-form profile: lambda1 = du^2/2 - (u + 1/2)
        r = np.linspace(0.3, 1.0, 20001)
        lam_exact = 0.5 * annulus_exact_du(r) ** 2 - (annulus_exact_u(r) + 0.5)
        sup_exact = float(np.max(lam_exact))
        assert rep["sup_value"] == pytest.approx(sup_exact, abs=5e-3)
        # the true maximum sits on the inner circle for this geometry
        assert rep["location_class"] == "boundary"
        assert math.hypot(*rep["argmax"]) == pytest.approx(0.3, abs=2.0 * annulus64.h)
        assert rep["sup_value"] <= two_branch_bound(rep) + 5e-3

    def test_zero_solution_every_node_critical(self, laplace_model, laplace_result, disc64):
        rep = locate_max(assemble_field(laplace_model, laplace_result, disc64))
        assert rep["critical_set_size"] == disc64.n_interior
        assert rep["sup_value"] == pytest.approx(-1.0, abs=1e-10)

    def test_two_branch_bound_all_runs(self, torsion_model, torsion_result, disc64,
                                       shifted_model, shifted_result,
                                       exp_model, exp_result,
                                       annulus_result, annulus64):
        for model, result, dom in [(torsion_model, torsion_result, disc64),
                                   (shifted_model, shifted_result, disc64),
                                   (exp_model, exp_result, disc64),
                                   (torsion_model, annulus_result, annulus64)]:
            rep = locate_max(assemble_field(model, result, dom))
            assert rep["sup_value"] <= two_branch_bound(rep) + 5e-3
            assert rep["location_class"] != "interior_noncritical"


class TestGradientBound:
    def test_torsion_margins(self, torsion_model, torsion_result, disc64):
        gb = bound_check(torsion_model, torsion_result, disc64)
        assert gb["applicable"]
        assert gb["ok"]
        assert gb["worst_margin"] >= -1e-6
        assert gb["family_margin"] >= -1e-6

    def test_family_bound_closed_form(self, torsion_model, torsion_result, disc64):
        # p^2/2 = r^2/8 <= Phi(u) - Phi(m) = r^2/4: margin r^2/8 at radius r
        gb = bound_check(torsion_model, torsion_result, disc64)
        r2 = disc64.xy[:, 0] ** 2 + disc64.xy[:, 1] ** 2
        phi_diff = torsion_result.u - torsion_result.solution_range[0]
        margin = phi_diff - 0.5 * torsion_result.p**2
        assert np.max(np.abs(margin - r2 / 8.0)) <= 5e-3
        assert gb["family_margin"] == pytest.approx(float(np.min(margin)), abs=1e-12)

    def test_shifted_bound_attained_at_center(self, shifted_model, shifted_result, disc64):
        gb = bound_check(shifted_model, shifted_result, disc64)
        assert gb["bound"] == pytest.approx(0.45, abs=5e-3)
        assert gb["ok"]

    def test_zero_solution_equality(self, laplace_model, laplace_result, disc64):
        gb = bound_check(laplace_model, laplace_result, disc64)
        assert gb["worst_margin"] == pytest.approx(0.0, abs=1e-10)

    def test_empty_critical_set_has_no_bound(self, torsion_model, torsion_result, disc64):
        fld = assemble_field(torsion_model, torsion_result, disc64)
        fake = dataclasses.replace(fld, critical_set_idx=np.array([], dtype=int))
        sec = locate_max(fake)
        assert sec["critical_set_empty"] and sec["critical_formula_value"] is None
        assert two_branch_bound(sec) == sec["boundary_formula_value"]
        note = {"applicable": False, "note": "critical set empty at this resolution"}
        assert gradient_bound_check(fake, sec) == note
        section, checks = pfunction_report(fake, solution_hypotheses(torsion_model,
                                                                     torsion_result))
        assert section["gradient_bound"] == note
        names = [c["name"] for c in checks]
        assert "gradient_bound_margin" not in names
        assert "lambda1_critical_branch_equality" not in names


class TestRadialConstancy:
    def test_interval_lambda1_constant(self, torsion_model):
        prof = solve_radial(torsion_model, (0.0, 1.0), n=1)
        lam = lambda1_radial(torsion_model, prof, (0.0, 1.0), n=1)
        assert float(np.ptp(lam)) <= 1e-6
        assert np.max(np.abs(lam)) <= 1e-6  # closed form gives exactly zero

    def test_interval_exponential_model(self, exp_model):
        prof = solve_radial(exp_model, (0.0, 1.0), n=1)
        lam = lambda1_radial(exp_model, prof, (0.0, 1.0), n=1)
        assert float(np.ptp(lam)) <= 1e-6


class TestMaxPrincipleConditions:
    def test_quadratic_family(self, torsion_model, torsion_result):
        rep = check_max_principle_conditions(solution_hypotheses(torsion_model, torsion_result))
        assert rep["ellipticity_ok"]
        assert rep["min_F_pp"] == pytest.approx(1.0)
        assert rep["min_candidate_p2_derivative"] == pytest.approx(0.5)
        assert rep["identity_residual_max"] < 1e-12

    def test_minimal_surface_range(self, minsurf_model, torsion_result):
        # min F_pp over the realized box is (1 + p_box^2)^{-3/2}
        rep = check_max_principle_conditions(solution_hypotheses(minsurf_model, torsion_result))
        p_hi = rep["box"][0][1]
        assert rep["min_F_pp"] == pytest.approx((1.0 + p_hi**2) ** -1.5, rel=1e-6)
        assert rep["ellipticity_ok"]

    def test_convexity_violation_witnessed(self, torsion_result):
        concave = make_expression_model("q - 0.5*p**2", smooth_at_origin=True)
        rep = check_max_principle_conditions(solution_hypotheses(concave, torsion_result))
        assert not rep["ellipticity_ok"]
        p, q, value = rep["ellipticity_witness"]
        assert value <= 0.0
        assert eval_jet(concave, p, q).F_pp == value
