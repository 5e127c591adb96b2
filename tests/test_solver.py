"""2D solves against closed forms and the independent radial oracle."""

import math

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import brentq
from scipy.sparse.linalg import splu, spsolve

from emlab import lagrangian, solver
from emlab.errors import EllipticityError, EmlabError, OriginLimitError
from emlab.geometry import build_domain, interpolate_node_field, make_shape
from emlab.lagrangian import (ORIGIN_EPS, divergence_coefficients, eval_jet,
                              make_expression_model, make_model)
from emlab.pipeline import EXIT_SOLVER, parse_config, run_pipeline
from emlab.solver import (SolverConfig, _assemble, _conductances,
                          _invert_flux, el_residual, solve_euler_lagrange,
                          solve_radial)
from conftest import annulus_exact_u, radial_du, shot_states

ROUNDING_FLOOR = 1e-10


def order_or_floor(errors, order=1.5, floor=ROUNDING_FLOOR):
    """Observed convergence order, or a pass when every error is at rounding
    level (the scheme is exact on the test problem and exceeds the order)."""
    if all(e <= floor for e in errors):
        return True
    rates = [np.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)]
    return min(rates) >= order


class TestTorsionDisc:
    def test_infinity_error(self, torsion_result, disc64):
        r2 = disc64.xy[:, 0] ** 2 + disc64.xy[:, 1] ** 2
        err = np.max(np.abs(torsion_result.u - (r2 - 1.0) / 4.0))
        assert err <= 2e-3
        assert torsion_result.converged

    def test_center_value(self, torsion_result, disc64):
        r2 = disc64.xy[:, 0] ** 2 + disc64.xy[:, 1] ** 2
        assert torsion_result.u[np.argmin(r2)] == pytest.approx(-0.25, abs=2e-3)

    def test_solution_range_definitional(self, torsion_result):
        m, M = torsion_result.solution_range
        assert m <= np.min(torsion_result.u)
        assert M >= np.max(torsion_result.u)
        assert M == 0.0  # boundary value included

    def test_maximum_principle_nonpositive(self, torsion_result, exp_result):
        # F_q >= 0 forces u <= 0 up to solver tolerance
        assert np.max(torsion_result.u) <= 1e-8
        assert np.max(exp_result.u) <= 1e-8

    def test_normal_derivative(self, torsion_result):
        # du/dnu = R/2 = 0.5 on the unit circle
        assert np.max(np.abs(torsion_result.normal_derivative - 0.5)) <= 2e-3

    def test_convergence_order_with_floor(self, torsion_model):
        errors = []
        for h in (1 / 16, 1 / 32, 1 / 64):
            dom = build_domain(make_shape("disc", [1.0]), h)
            res = solve_euler_lagrange(torsion_model, dom)
            r2 = dom.xy[:, 0] ** 2 + dom.xy[:, 1] ** 2
            errors.append(float(np.max(np.abs(res.u - (r2 - 1.0) / 4.0))))
        # quadratic closed form: the scheme is exact, errors sit at rounding
        assert order_or_floor(errors)

    def test_determinism(self, torsion_model, exp_model, disc64):
        for model in (torsion_model, exp_model):
            a = solve_euler_lagrange(model, disc64)
            b = solve_euler_lagrange(model, disc64)
            assert np.array_equal(a.u, b.u)
            assert a.residual_history == b.residual_history
            assert a.log == b.log


class TestLaplace:
    def test_zero_solution(self, laplace_result):
        assert laplace_result.converged
        assert np.max(np.abs(laplace_result.u)) <= 1e-12

    def test_zero_residual(self, laplace_model, disc64):
        res = el_residual(laplace_model, disc64, np.zeros(disc64.n_interior))
        assert np.max(np.abs(res)) == 0.0


class TestAnnulus:
    def test_matches_closed_form(self, annulus_result, annulus64):
        r = np.hypot(annulus64.xy[:, 0], annulus64.xy[:, 1])
        err = np.max(np.abs(annulus_result.u - annulus_exact_u(r)))
        assert err <= 5e-3

    def test_convergence_order(self, torsion_model):
        errors = []
        for h in (1 / 16, 1 / 32, 1 / 64):
            dom = build_domain(make_shape("annulus", [0.3, 1.0]), h)
            res = solve_euler_lagrange(torsion_model, dom)
            r = np.hypot(dom.xy[:, 0], dom.xy[:, 1])
            errors.append(float(np.max(np.abs(res.u - annulus_exact_u(r)))))
        assert errors[0] > ROUNDING_FLOOR  # genuinely nonzero: log terms
        assert order_or_floor(errors)


class TestElResidual:
    def test_solved_field_below_tolerance(self, torsion_model, disc64, torsion_result):
        res = el_residual(torsion_model, disc64, torsion_result.u)
        assert np.max(np.abs(res)) <= SolverConfig().residual_tol

    def test_injected_closed_form_truncation_order(self, torsion_model):
        # annular profile has log terms, so the truncation error is genuine
        norms = []
        for h in (1 / 32, 1 / 64):
            dom = build_domain(make_shape("annulus", [0.3, 1.0]), h)
            r = np.hypot(dom.xy[:, 0], dom.xy[:, 1])
            res = el_residual(torsion_model, dom, annulus_exact_u(r))
            core = dom.core_mask()
            norms.append(float(np.max(np.abs(res[core]))))
        assert norms[0] / norms[1] >= 1.8

    def test_injected_torsion_exact_away_from_cuts(self, torsion_model, disc64):
        r2 = disc64.xy[:, 0] ** 2 + disc64.xy[:, 1] ** 2
        res = el_residual(torsion_model, disc64, (r2 - 1.0) / 4.0)
        core = disc64.core_mask()
        assert np.max(np.abs(res[core])) <= 1e-12


class TestIterationContract:
    def test_monotone_history_after_five(self, minsurf_model):
        dom = build_domain(make_shape("disc", [1.0]), 1 / 32)
        res = solve_euler_lagrange(minsurf_model, dom)
        assert res.converged
        hist = res.residual_history
        assert all(hist[i + 1] <= hist[i] * (1.0 + 1e-12)
                   for i in range(min(5, len(hist) - 1), len(hist) - 1))

    def test_log_records_damping(self, exp_result):
        assert all({"iteration", "residual", "damping", "phase"} <= set(e)
                   for e in exp_result.log)

    def test_quartic_refused_with_witness(self, disc64):
        quartic = make_model("power_dirichlet", [4.0, 0.0, 1.0])
        with pytest.raises(EllipticityError) as err:
            solve_euler_lagrange(quartic, disc64)
        assert err.value.witness is not None

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(residual_tol=-1.0)


def _solve_counting_lu(model, dom, monkeypatch):
    """Solve, returning the result and the number of LU factorizations."""
    calls = []
    real = solver.splu
    monkeypatch.setattr(solver, "splu", lambda *a, **k: calls.append(1) or real(*a, **k))
    return solve_euler_lagrange(model, dom), len(calls)


class TestNewtonLoop:
    #: F = sqrt(1 + p^2) + 3 q: prescribed mean curvature 3
    CURVATURE_3 = ("minimal_surface", [0.0, 3.0])

    def test_curvature_three_converges_on_annulus(self, monkeypatch):
        # Picard stalls here for all 200 iterations.  This checks the solve
        # loop on the discrete system only: 3 |annulus| exceeds its
        # perimeter, so no classical solution exists and the discrete
        # gradient grows under refinement
        dom = build_domain(make_shape("annulus", [0.3, 1.0]), 1 / 32)
        res, lus = _solve_counting_lu(make_model(*self.CURVATURE_3), dom, monkeypatch)
        assert res.converged
        assert lus == 1
        hist = res.residual_history
        assert all(b < a for a, b in zip(hist, hist[1:]))

    def test_no_solution_on_disc_stops_unconverged(self, monkeypatch):
        # mean curvature 3 exceeds 2/R on the unit disc: no solution exists
        dom = build_domain(make_shape("disc", [1.0]), 1 / 32)
        res, lus = _solve_counting_lu(make_model(*self.CURVATURE_3), dom, monkeypatch)
        assert not res.converged
        assert 0 < res.iterations < 20
        assert lus == 1
        hist = res.residual_history
        assert all(b <= a for a, b in zip(hist, hist[1:]))
        assert len(res.log) == len(hist) == res.iterations + 1

    def test_nonlinear_solve_factorizes_once(self, exp_model, disc64, monkeypatch):
        res, lus = _solve_counting_lu(exp_model, disc64, monkeypatch)
        assert res.converged and res.iterations > 0
        assert lus == 1

    def test_linear_model_stops_at_warm_start(self, torsion_result):
        assert torsion_result.iterations == 0
        assert [e["phase"] for e in torsion_result.log] == ["init"]

    def test_no_solution_stops_stalled_gmres(self, monkeypatch):
        # without the stall stop this solve makes 425 residual evaluations,
        # and its last step runs all 200 GMRES iterations at a preconditioned
        # residual that stays at 1.17e-2 from iteration 20 on
        dom = build_domain(make_shape("disc", [1.0]), 1 / 32)
        calls = []
        real = solver.el_residual
        monkeypatch.setattr(solver, "el_residual",
                            lambda *a: calls.append(1) or real(*a))
        res = solve_euler_lagrange(make_model(*self.CURVATURE_3), dom)
        assert not res.converged
        assert len(calls) <= 425 // 2
        assert all(e["linear_iterations"] < 20 * solver.GMRES_MAX_RESTARTS
                   for e in res.log)

    @pytest.mark.parametrize("model,kind,params,h,linear", [
        (("dirichlet_exponential", [1.0, 1.0]), "disc", [1.0], 1 / 32, [0, 2, 3]),
        # its later steps run two or more full restart cycles (a stall factor
        # of 0 changes the solve from step 5 on), and converge
        (CURVATURE_3, "annulus", [0.3, 1.0], 1 / 48, None)])
    def test_stall_stop_idle_on_convergent_solves(self, model, kind, params, h, linear,
                                                  monkeypatch):
        # reference: the same solve with the stall stop switched off
        dom = build_domain(make_shape(kind, params), h)
        res = solve_euler_lagrange(make_model(*model), dom)
        monkeypatch.setattr(solver, "GMRES_STALL_FACTOR", math.inf)
        ref = solve_euler_lagrange(make_model(*model), dom)
        assert res.converged
        assert res.log == ref.log
        assert np.array_equal(res.u, ref.u)
        linear_iterations = [e["linear_iterations"] for e in res.log]
        if linear is None:
            assert max(linear_iterations) > 2 * solver.GMRES_RESTART
        else:
            assert linear_iterations == linear

    def test_log_counts_gmres_iterations(self, exp_result):
        init, *steps = exp_result.log
        assert init["phase"] == "init" and init["linear_iterations"] == 0
        assert steps
        for entry in steps:
            assert entry["phase"] == "newton"
            assert type(entry["linear_iterations"]) is int
            assert 1 <= entry["linear_iterations"] <= 20 * solver.GMRES_MAX_RESTARTS
            assert 0.0 < entry["damping"] <= 1.0


def _warm_start_lu(model, dom, monkeypatch):
    """Solve, returning the one matrix the solve factorized and its LU."""
    seen = []
    real = solver.splu
    monkeypatch.setattr(solver, "splu",
                        lambda A, **k: seen.append((A, real(A, **k))) or seen[-1][1])
    solve_euler_lagrange(model, dom)
    (A, lu), = seen
    return A, lu


class TestWarmStartLU:
    @pytest.mark.parametrize("kind,params", [("disc", [1.0]), ("annulus", [0.3, 1.0]),
                                             ("ellipse", [1.0, 0.6]),
                                             ("rectangle", [1.0, 0.7])])
    def test_diagonal_pivots_and_solve(self, kind, params, torsion_model, monkeypatch):
        dom = build_domain(make_shape(kind, params), 1 / 64)
        A, lu = _warm_start_lu(torsion_model, dom, monkeypatch)
        assert np.array_equal(lu.perm_r, lu.perm_c)
        b = np.random.default_rng(5).standard_normal(dom.n_interior)
        ref = spsolve(A, b)
        assert np.max(np.abs(lu.solve(b) - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_fill_below_default_ordering(self, torsion_model, disc64, monkeypatch):
        # minimum degree on A + A^T: 0.53 of the default COLAMD fill here
        A, lu = _warm_start_lu(torsion_model, disc64, monkeypatch)
        default = splu(A)
        assert lu.L.nnz + lu.U.nnz <= 0.6 * (default.L.nnz + default.U.nnz)


class TestRadialOracle:
    def test_torsion_center_value(self, torsion_radial):
        assert torsion_radial.u[0] == pytest.approx(-0.25, abs=1e-6)

    def test_laplace_identically_zero(self, laplace_model):
        prof = solve_radial(laplace_model, (0.0, 1.0), n=2, resolution=512)
        assert np.max(np.abs(prof.u)) <= 1e-10

    def test_2d_matches_radial_torsion(self, torsion_result, torsion_radial, disc64):
        r = np.hypot(disc64.xy[:, 0], disc64.xy[:, 1])
        dev = np.max(np.abs(torsion_result.u - torsion_radial.u_at(r)))
        assert dev <= 5e-3

    def test_2d_matches_radial_exponential(self, exp_result, exp_radial, disc64):
        r = np.hypot(disc64.xy[:, 0], disc64.xy[:, 1])
        dev = np.max(np.abs(exp_result.u - exp_radial.u_at(r)))
        assert dev <= 5e-3

    def test_annulus_radial_matches_closed_form(self, torsion_model):
        prof = solve_radial(torsion_model, (0.3, 1.0), n=2, resolution=1024)
        assert np.max(np.abs(prof.u - annulus_exact_u(prof.r))) <= 1e-8

    def test_interval_problem(self, torsion_model):
        # n = 1: u'' = 1 on (-1, 1) restricted to r in [0, 1]: u = (r^2-1)/2
        prof = solve_radial(torsion_model, (0.0, 1.0), n=1, resolution=512)
        assert np.max(np.abs(prof.u - (prof.r**2 - 1.0) / 2.0)) <= 1e-8

    def test_three_dimensional_ball(self, torsion_model):
        # n = 3: u'' + (2/r) u' = 1 on the unit ball gives u = (r^2-1)/6
        prof = solve_radial(torsion_model, (0.0, 1.0), n=3, resolution=512)
        assert np.max(np.abs(prof.u - (prof.r**2 - 1.0) / 6.0)) <= 1e-8


def _invert_flux_loop(model, w, q):
    """Reference: the flux inversion by brentq that the safeguarded Newton
    replaced."""
    target = abs(w)
    if target < 1e-300:
        return 0.0
    jet0 = eval_jet(model, 0.0, q)
    if jet0.F_p > target:
        return 0.0
    hi = max(target, 1e-6)
    for _ in range(200):
        if eval_jet(model, hi, q).F_p >= target:
            break
        hi *= 2.0
        if hi > 1e12:
            raise EmlabError("flux inversion failed: F_p stays below the flux")
    p = brentq(lambda pp: eval_jet(model, pp, q).F_p - target, 0.0, hi,
               xtol=1e-14, rtol=8.9e-16)
    return p if w >= 0 else -p


class TestFluxInversion:
    EXACT = [("dirichlet_affine", [0.5, 1.0], (0.0, 1.0)),
             ("dirichlet_affine", [0.5, 1.0], (0.3, 1.0)),
             ("dirichlet_exponential", [1.0, 1.0], (0.0, 1.0))]

    @pytest.mark.parametrize("name,params,radii", EXACT)
    def test_profile_equals_scalar_loop(self, name, params, radii, monkeypatch):
        # Newton is exact where F_p = p, so the whole profile keeps its bits
        model = make_model(name, params)
        prof = solve_radial(model, radii, n=2, resolution=512)
        ws, us = shot_states(model, radii, prof)
        ref = np.array([_invert_flux_loop(model, w, q) for w, q in zip(ws, us)])
        assert np.array_equal([_invert_flux(model, w, q) for w, q in zip(ws, us)], ref)
        du = radial_du(model, radii, prof)
        assert np.array_equal(du, ref)
        monkeypatch.setattr(solver, "_invert_flux", _invert_flux_loop)
        old = solve_radial(model, radii, n=2, resolution=512)
        assert old.parameter == prof.parameter
        assert np.array_equal(old.u, prof.u)
        assert np.array_equal(radial_du(model, radii, old), du)

    @pytest.mark.parametrize("name,params", [("power_dirichlet", [3.0, 0.0, 1.0]),
                                             ("minimal_surface", [2.0, 1.0])])
    def test_nonlinear_flux_within_tolerance(self, name, params):
        model = make_model(name, params)
        prof = solve_radial(model, (0.0, 1.0), n=2, resolution=512)
        ws, us = shot_states(model, (0.0, 1.0), prof)
        ref = np.array([_invert_flux_loop(model, w, q) for w, q in zip(ws, us)])
        du = radial_du(model, (0.0, 1.0), prof)
        assert np.max(np.abs(du - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert np.array_equal(np.sign(du), np.sign(ref))

    def test_branches_match_scalar_loop(self):
        # F_p(0, q) = 1 here: fluxes below 1 invert to the flat result
        kinked = make_expression_model("p + 0.5*p**2 + q")
        m3 = make_model("power_dirichlet", [3.0, 0.0, 1.0])
        w = np.array([0.0, 1e-310, -1e-300, 5e-7, -0.5, 0.999, 1.5, -3.0, 40.0, 1e6])
        q = np.linspace(-1.0, 1.0, len(w))
        for model in (kinked, m3):
            ref = np.array([_invert_flux_loop(model, a, b) for a, b in zip(w, q)])
            got = np.array([_invert_flux(model, a, b) for a, b in zip(w, q)])
            # both stop within brentq's absolute tolerance 1e-14 of the root
            assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref) + 1e-14)
            assert np.array_equal(got[:2], [0.0, 0.0])  # zero flux
            # u' takes the sign of the flux, a flat or zero one included
            assert np.array_equal(np.signbit(got), w < 0.0)
            for a, b, r in zip(w, q, ref):  # scalars in, scalar out
                out = _invert_flux(model, a, b)
                assert isinstance(out, float)
                assert abs(out - r) <= 1e-12 * abs(r) + 1e-14
        flat = w[np.abs(w) < 1.0]
        assert not np.any([_invert_flux(kinked, a, 0.0) for a in flat])

    def test_vanishing_slope_bisects(self):
        # F_p = (p - 0.75)^3 + 0.75^3 rises through an inflection at 0.75,
        # where the search for the flux 0.375 starts: F_pp = 0 there, so the
        # first step is a bisection rather than a division by zero
        model = make_expression_model("(p - 0.75)**4/4 + 0.421875*p")
        assert eval_jet(model, 0.75, 0.0).F_pp == 0.0
        assert eval_jet(model, 0.375, 0.0).F_p < 0.375 < eval_jet(model, 0.75, 0.0).F_p
        for w in (0.375, -0.375):
            ref = _invert_flux_loop(model, w, 0.0)
            assert abs(_invert_flux(model, w, 0.0) - ref) <= 1e-12 * abs(ref)

    def test_flux_above_range_raises(self):
        # F_p = p / sqrt(1 + p^2) < 1: a flux of 1 or more has no preimage
        model = make_model("minimal_surface", [2.0, 1.0])
        with pytest.raises(EmlabError, match="F_p stays below the flux"):
            for w in (0.5, 1.5):
                _invert_flux(model, w, 0.0)
        with pytest.raises(EmlabError, match="F_p stays below the flux"):
            _invert_flux_loop(model, 1.5, 0.0)
        with pytest.raises(EmlabError, match="F_p stays below the flux"):
            _invert_flux(model, -2.0, 0.0)


def _divergence_coefficients_sweeps(model, p, q):
    """Reference: the coefficients from three jet sweeps, g at
    max(p, ORIGIN_EPS), the F_pp(0, q) limit, and h again at p."""
    p_arr = np.asarray(p, dtype=float)
    q_arr = np.asarray(q, dtype=float)
    small = p_arr <= ORIGIN_EPS
    if np.any(small) and not model.smooth_at_origin:
        raise OriginLimitError("no declared p -> 0 limit")
    jet = eval_jet(model, np.maximum(p_arr, ORIGIN_EPS), q_arr)
    g = jet.F_p / np.maximum(p_arr, ORIGIN_EPS)
    if np.any(small):
        g = np.where(small, eval_jet(model, np.zeros_like(p_arr), q_arr).F_pp, g)
    h = -eval_jet(model, p_arr, q_arr).F_q
    if p_arr.ndim == 0 and q_arr.ndim == 0:
        return float(g), float(h)
    return np.asarray(g, dtype=float), np.asarray(h, dtype=float)


def _face_coefficients_loop(model, domain, u):
    """Reference: diffusion coefficient per face from averaged neighbor
    states, as lists of per-direction arrays."""
    Gx, Gy = domain.grad_ops
    p2 = (Gx @ u) ** 2 + (Gy @ u) ** 2
    g_faces = []
    for d in range(4):
        nb = domain.nbr[:, d]
        has = nb >= 0
        s = np.where(has, 0.5 * (p2 + p2[nb]), p2)
        uf = np.where(has, 0.5 * (u + u[nb]), 0.5 * u)
        g_faces.append(_divergence_coefficients_sweeps(
            model, np.sqrt(np.maximum(s, 0.0)), uf)[0])
    return g_faces, p2


def _assemble_loop(domain, g_faces):
    """Reference: the sparse operator A with
    (A u)_i = sum_d g_d (u_d - u_i)/(arm_d span), built direction by direction."""
    n = domain.n_interior
    span_x = 0.5 * (domain.arm[:, 0] + domain.arm[:, 1])
    span_y = 0.5 * (domain.arm[:, 2] + domain.arm[:, 3])
    idx = np.arange(n)
    rows, cols, vals = [], [], []
    diag = np.zeros(n)
    for d in range(4):
        span = span_x if d in (0, 1) else span_y
        c = g_faces[d] / (domain.arm[:, d] * span)
        diag -= c
        m = domain.nbr[:, d] >= 0
        rows.append(idx[m])
        cols.append(domain.nbr[m, d])
        vals.append(c[m])
    rows.append(idx)
    cols.append(idx)
    vals.append(diag)
    return sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n))


def _el_residual_assembled(model, domain, u):
    """Reference: the residual as an assembled matrix product, A @ u + h."""
    g_faces, p2 = _face_coefficients_loop(model, domain, u)
    _, h = _divergence_coefficients_sweeps(model, np.sqrt(np.maximum(p2, 0.0)), u)
    return _assemble_loop(domain, g_faces) @ u + h


STENCIL_SHAPES = [("disc", [1.0]), ("annulus", [0.3, 1.0]), ("ellipse", [1.0, 0.6]),
                  ("rectangle", [1.0, 0.7])]
STENCIL_SHAPES_H = [(kind, params, h) for kind, params in STENCIL_SHAPES
                    for h in (1 / 16, 1 / 40)]
STENCIL_MODELS = [make_model("dirichlet_affine", [0.5, 1.0]),
                  make_model("minimal_surface", [2.0, 1.0]),
                  make_expression_model("0.5*p**2 + exp(q) + log(1 + p*p) - q/3",
                                        smooth_at_origin=True)]


class TestFluxStencil:
    @pytest.mark.parametrize("kind,params", STENCIL_SHAPES)
    def test_residual_equals_assembled_product(self, kind, params):
        dom = build_domain(make_shape(kind, params), 1 / 32)
        x, y = dom.xy[:, 0], dom.xy[:, 1]
        bowl = (x * x + y * y - 1.0) / 4.0
        plateau = np.minimum(bowl, -0.1)  # flat core: p = 0 at nodes and faces
        Gx, Gy = dom.grad_ops
        assert np.any(np.hypot(Gx @ plateau, Gy @ plateau) <= ORIGIN_EPS)
        noisy = bowl + 1e-3 * np.random.default_rng(7).standard_normal(dom.n_interior)
        for model in STENCIL_MODELS:
            for u in (plateau, noisy, np.zeros(dom.n_interior)):
                assert np.array_equal(el_residual(model, dom, u),
                                      _el_residual_assembled(model, dom, u))

    @pytest.mark.parametrize("kind,params", STENCIL_SHAPES)
    def test_assembled_operator_equals_loop(self, kind, params):
        dom = build_domain(make_shape(kind, params), 1 / 32)
        g = np.random.default_rng(3).uniform(0.5, 2.0, (4, dom.n_interior))
        new, ref = _assemble(dom, _conductances(dom, g)), _assemble_loop(dom, list(g))
        assert np.array_equal(new.indptr, ref.indptr)
        assert np.array_equal(new.indices, ref.indices)
        assert np.array_equal(new.data, ref.data)

    def test_coefficients_equal_three_sweeps(self):
        rng = np.random.default_rng(11)
        p = np.concatenate([[0.0, 0.5e-8, 1e-8, 1.5e-8], rng.uniform(0.0, 3.0, 60)])
        q = rng.uniform(-1.0, 1.0, len(p))
        for model in STENCIL_MODELS + [make_model("dirichlet_exponential", [1.0, 1.0]),
                                       make_model("power_dirichlet", [4.0, 0.0, 1.0])]:
            g, h = divergence_coefficients(model, p, q)
            g_ref, h_ref = _divergence_coefficients_sweeps(model, p, q)
            assert np.array_equal(g, g_ref) and np.array_equal(h, h_ref)
            for a, b in zip(p[:8], q[:8]):  # scalars in, scalars out
                assert divergence_coefficients(model, a, b) == \
                    _divergence_coefficients_sweeps(model, a, b)

    def test_non_smooth_model_still_refused_at_origin(self):
        kinked = make_expression_model("p + q*q")  # F_p(0, q) = 1
        for p in (0.0, 0.5e-8, 1e-8):
            with pytest.raises(OriginLimitError):
                divergence_coefficients(kinked, np.array([0.3, p]), np.zeros(2))
        p = np.array([1.5e-8, 0.2, 2.0])
        assert np.array_equal(divergence_coefficients(kinked, p, p)[0],
                              _divergence_coefficients_sweeps(kinked, p, p)[0])

    def test_residual_sweeps_each_jet_once(self, monkeypatch):
        dom = build_domain(make_shape("ellipse", [1.0, 0.6]), 1 / 32)
        u = (dom.xy[:, 0] ** 2 + dom.xy[:, 1] ** 2 - 1.0) / 4.0 + 0.01 * dom.xy[:, 0]
        sweeps = []
        real = lagrangian.eval_jet
        monkeypatch.setattr(lagrangian, "eval_jet",
                            lambda *a, **k: sweeps.append(1) or real(*a, **k))
        el_residual(STENCIL_MODELS[1], dom, u)
        assert len(sweeps) == 5  # four face directions and the nodal source

    def test_newton_solve_assembles_once(self, exp_model, monkeypatch):
        dom = build_domain(make_shape("disc", [1.0]), 1 / 32)
        calls = []
        monkeypatch.setattr(solver, "_assemble",
                            lambda *a: calls.append(1) or _assemble(*a))
        res = solve_euler_lagrange(exp_model, dom)
        assert res.converged and res.iterations > 0
        assert len(calls) == 1

    def test_face_ellipticity_refusal_witness(self):
        # g = 2 + q changes sign where the face state dips below q = -2
        cfg = {"model": {"expression": "0.5*(2 + q)*p**2 + 20*q",
                         "smooth_at_origin": True},
               "shape": {"kind": "disc", "parameters": [1.0]}, "spacing": 1 / 16}
        config = parse_config(cfg)
        dom = build_domain(config.shape, config.spacing)
        with pytest.raises(EllipticityError, match="at a face") as err:
            solve_euler_lagrange(config.model, dom)
        assert err.value.witness["direction"] == "+x"
        assert err.value.witness["node"] == [-0.0625, -0.4375]
        assert err.value.witness["g"] < 0.0
        report = run_pipeline(config)
        assert report.exit_code == EXIT_SOLVER
        assert report.solver["witness"]["direction"] == "+x"
        assert report.solver["witness"]["node"] == [-0.0625, -0.4375]


def _normal_derivative_six_calls(domain, grad):
    """Reference: the normal derivative from one interpolation per depth and
    gradient component."""
    s = 1.5 * domain.h
    q = []
    for depth in (s, 2.0 * s, 3.0 * s):
        pts = domain.bpts - depth * domain.bnu
        gx = interpolate_node_field(domain, grad[:, 0], pts)
        gy = interpolate_node_field(domain, grad[:, 1], pts)
        q.append(gx * domain.bnu[:, 0] + gy * domain.bnu[:, 1])
    return 3.0 * q[0] - 3.0 * q[1] + q[2]


def _cells_without_interior_corner(domain, pts):
    """Points whose lattice cell has no interior corner: those take the
    nearest-node fallback of the interpolation."""
    i0 = np.clip(np.floor((pts[:, 0] - domain.gx0) / domain.h).astype(int), 0, domain.nx - 2)
    j0 = np.clip(np.floor((pts[:, 1] - domain.gy0) / domain.h).astype(int), 0, domain.ny - 2)
    corners = np.array([domain.interior_index[i0 + di, j0 + dj]
                        for di in (0, 1) for dj in (0, 1)])
    return int(np.count_nonzero((corners < 0).all(axis=0)))


class TestNormalDerivative:
    @pytest.mark.parametrize("kind,params,h", STENCIL_SHAPES_H + [
        ("annulus", [0.3, 0.3 + 3.5 / 32], 1 / 32)])
    def test_one_pass_equals_six_calls(self, kind, params, h):
        dom = build_domain(make_shape(kind, params), h)
        x, y = dom.xy[:, 0], dom.xy[:, 1]
        u = (x * x + y * y - 1.0) / 4.0 + 0.1 * np.sin(3.0 * x) * y
        grad = np.column_stack([dom.grad_ops[0] @ u, dom.grad_ops[1] @ u])
        assert np.array_equal(solver._normal_derivative(dom, grad),
                              _normal_derivative_six_calls(dom, grad))

    def test_thin_annulus_takes_the_fallback(self):
        # 3.5 spacings wide: the deepest ring of points leaves the domain
        h = 1 / 32
        dom = build_domain(make_shape("annulus", [0.3, 0.3 + 3.5 * h]), h)
        assert _cells_without_interior_corner(dom, dom.bpts - 4.5 * h * dom.bnu) > 0

    def test_one_interpolation_per_field(self, monkeypatch, disc64, torsion_result):
        calls = []
        real = solver.interpolate_node_field
        monkeypatch.setattr(solver, "interpolate_node_field",
                            lambda *a: calls.append(1) or real(*a))
        again = solver.field_result(disc64, torsion_result.u, residual_history=[0.0],
                                    converged=True, iterations=0)
        assert len(calls) == 1
        assert np.array_equal(again.normal_derivative, torsion_result.normal_derivative)
