"""2D solves against closed forms and the independent radial oracle."""

import math
import sys
import warnings

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import spsolve

from emlab import lagrangian, solver
from emlab.errors import EllipticityError, EmlabError, OriginLimitError
from emlab.geometry import build_domain, interpolate_node_field, make_shape
from emlab.lagrangian import (ORIGIN_EPS, divergence_coefficients, eval_jet,
                              make_expression_model, make_model)
from emlab.pipeline import EXIT_SOLVER, parse_config, run_pipeline
from emlab.solver import (SolverConfig, _assemble, _conductances, el_residual,
                          solve_euler_lagrange, solve_radial)
from emlab.tensor_field import assemble_field
from conftest import annulus_exact_du, annulus_exact_u

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
            assert a.final_residual == b.final_residual
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
        hist = [e["residual"] for e in res.log]
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
    """Solve, returning the result and the number of coarse inversions, each
    of which ``splu`` returns as a square array."""
    inverses = []
    real = solver.splu
    monkeypatch.setattr(solver, "splu", lambda A: inverses.append(real(A)) or inverses[-1])
    res = solve_euler_lagrange(model, dom)
    assert all(type(inv) is np.ndarray and inv.shape == (len(inv),) * 2
               for inv in inverses)
    return res, len(inverses)


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
        hist = [e["residual"] for e in res.log]
        assert all(b < a for a, b in zip(hist, hist[1:]))

    def test_no_solution_on_disc_stops_unconverged(self, monkeypatch):
        # mean curvature 3 exceeds 2/R on the unit disc: no solution exists
        dom = build_domain(make_shape("disc", [1.0]), 1 / 32)
        res, lus = _solve_counting_lu(make_model(*self.CURVATURE_3), dom, monkeypatch)
        assert not res.converged
        assert 0 < res.iterations < 20
        assert lus == 1
        hist = [e["residual"] for e in res.log]
        assert all(b <= a for a, b in zip(hist, hist[1:]))
        assert len(hist) == res.iterations + 1 and hist[-1] == res.final_residual

    def test_nonlinear_solve_factorizes_once(self, exp_model, disc64, monkeypatch):
        res, lus = _solve_counting_lu(exp_model, disc64, monkeypatch)
        assert res.converged and res.iterations > 0
        assert lus == 1

    def test_linear_model_stops_at_warm_start(self, torsion_result):
        assert torsion_result.iterations == 0
        assert [e["phase"] for e in torsion_result.log] == ["init"]

    def test_no_solution_stops_stalled_gmres(self):
        # without the stall stop this solve runs 652 GMRES iterations: its
        # last three steps run all 200 at a singular J
        dom = build_domain(make_shape("disc", [1.0]), 1 / 32)
        res = solve_euler_lagrange(make_model(*self.CURVATURE_3), dom)
        assert not res.converged
        assert sum(e["linear_iterations"] for e in res.log) <= 652 // 2
        assert any(e["stalled"] for e in res.log)
        assert all(e["linear_iterations"] < 20 * solver.GMRES_MAX_RESTARTS
                   for e in res.log)

    @pytest.mark.parametrize("model,kind,params,h,linear", [
        (("dirichlet_exponential", [1.0, 1.0]), "disc", [1.0], 1 / 32, [14, 5, 7]),
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
        assert init["phase"] == "init" and init["damping"] == 0.0
        assert steps
        for entry in exp_result.log:
            assert entry["phase"] == ("init" if entry is init else "newton")
            assert type(entry["linear_iterations"]) is int
            assert type(entry["restart_cycles"]) is int
            assert 1 <= entry["restart_cycles"] <= solver.GMRES_MAX_RESTARTS
            # every cycle but the last runs full length
            assert (entry["linear_iterations"] - 1) // solver.GMRES_RESTART == \
                entry["restart_cycles"] - 1
            assert entry["stalled"] is False
        assert all(0.0 < entry["damping"] <= 1.0 for entry in steps)


def _warm_start_factorizations(model, dom, monkeypatch):
    """Solve, returning the result and each matrix the solve factorized."""
    seen = []
    real = solver.splu
    monkeypatch.setattr(solver, "splu", lambda A, **k: seen.append(A) or real(A, **k))
    return solve_euler_lagrange(model, dom), seen


class TestWarmStartMultigrid:
    @pytest.mark.parametrize("kind,params", [("disc", [1.0]), ("annulus", [0.3, 1.0]),
                                             ("ellipse", [1.0, 0.6]),
                                             ("rectangle", [1.0, 0.7])])
    def test_matches_direct_solve(self, kind, params, torsion_model, monkeypatch):
        dom = build_domain(make_shape(kind, params), 1 / 64)
        res, (coarsest,) = _warm_start_factorizations(torsion_model, dom, monkeypatch)
        assert res.iterations == 0 and res.log[0]["linear_iterations"] > 1
        assert coarsest.shape[0] <= solver.MG_COARSEST < dom.n_interior
        g0, h0 = divergence_coefficients(torsion_model, 0.0, 0.0)
        ref = spsolve(_assemble(dom, _conductances(dom, g0)).tocsc(),
                      np.full(dom.n_interior, -h0))
        assert np.max(np.abs(res.u - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_v_cycle_contracts_the_residual(self):
        # the first cycle from x = 0 raises the max-norm residual about 70-fold,
        # at the rows of short arms; each later one cuts it to 0.33 to 0.37
        dom = build_domain(make_shape("disc", [1.0]), 1 / 128)
        A = _assemble(dom, _conductances(dom, 1.0))
        cycle = solver._multigrid(A, dom.interior_index)
        b = np.ones(dom.n_interior)
        x = cycle(b)
        for _ in range(5):
            before = np.max(np.abs(b - A @ x))
            x = x + cycle(b - A @ x)
            assert np.max(np.abs(b - A @ x)) <= 0.4 * before

    @pytest.mark.parametrize("kind,params", [("disc", [1.0]), ("annulus", [0.3, 1.0]),
                                             ("ellipse", [1.0, 0.6]),
                                             ("rectangle", [1.0, 0.7])])
    def test_v_cycle_matches_stored_restrictions(self, kind, params):
        # reference: the cycle with each restriction stored as the CSR copy
        # P.T.tocsr() and the coarsest inverse applied by the same row sum;
        # the hierarchy holds P^T as a view of P's own arrays, no copy
        dom = build_domain(make_shape(kind, params), 1 / 64)
        cycle = solver._multigrid(_assemble(dom, _conductances(dom, 1.0)),
                                  dom.interior_index)
        levels, coarsest = cycle.args
        assert len(levels) >= 2
        for _, _, P, Pt, *_ in levels:
            assert all(np.shares_memory(getattr(Pt, name), getattr(P, name))
                       for name in ("data", "indices", "indptr"))
        for (A, _, P, *_), coarse in zip(levels, levels[1:]):
            assert (P.T.tocsr() @ (A @ P) != coarse[0]).nnz == 0
        reference = _allocating_cycle(levels, coarsest)
        rng = np.random.default_rng(5)
        for b in (np.ones(dom.n_interior), rng.standard_normal(dom.n_interior)):
            assert np.array_equal(cycle(b), reference(b))

    def test_small_grid_is_solved_directly(self, torsion_model, monkeypatch):
        dom = build_domain(make_shape("disc", [1.0]), 1 / 8)
        assert dom.n_interior <= solver.MG_COARSEST
        res, (A,) = _warm_start_factorizations(torsion_model, dom, monkeypatch)
        assert A.shape == (dom.n_interior, dom.n_interior)
        assert res.log[0]["linear_iterations"] == 1

    def test_zero_source_is_solved_by_zero(self, disc64, monkeypatch):
        # h(0, 0) = 0: the warm start's right-hand side vanishes
        res, _ = _warm_start_factorizations(make_model("dirichlet_power", [1.0, 2]),
                                            disc64, monkeypatch)
        assert res.converged and res.iterations == 0
        assert not np.any(res.u)
        assert res.log[0]["linear_iterations"] == 0

    @pytest.mark.parametrize("offset", [(0.37, 0.61), (0.5, 0.5), (0.83, 0.29)])
    def test_closed_form_to_rounding_at_any_offset(self, offset, torsion_model):
        # the benchmark's disc gate allows 1e-10; the warm start's tolerance
        # leaves about 1e-15 here
        h = 1 / 128
        c = (offset[0] * h, offset[1] * h)
        dom = build_domain(make_shape("disc", [1.0], c), h)
        res = solve_euler_lagrange(torsion_model, dom)
        r2 = (dom.xy[:, 0] - c[0]) ** 2 + (dom.xy[:, 1] - c[1]) ** 2
        assert np.max(np.abs(res.u - (r2 - 1.0) / 4.0)) <= 1e-12


def _allocating_cycle(levels, coarsest):
    """Reference: the V-cycle of a ``_multigrid`` hierarchy written with a
    fresh array for every result, each restriction stored as the CSR copy
    ``P.T.tocsr()``, each coarse correction scaled by its level's scale and
    the coarsest inverse applied by the same row sum."""
    stored = [(A, wdinv, P, P.T.tocsr(), scale) for A, wdinv, P, _, scale, *_ in levels]
    inv = coarsest[0]

    def cycle(b, k=0):
        if k == len(stored):
            return np.add.reduce(inv * b, axis=1)
        A, wdinv, P, R, scale = stored[k]
        x = wdinv * b
        x = x + P @ (scale * cycle(R @ (b - A @ x), k + 1))
        return x + wdinv * (b - A @ x)
    return cycle


def _gmres_one_cycle(jv, b, precond, rtol):
    """Reference: one restart cycle of ``_gmres`` with modified Gram-Schmidt
    written with a fresh array for every product."""
    m = solver.GMRES_RESTART
    tol = rtol * math.sqrt(float(np.add.reduce(b * b)))
    V, H = np.empty((m + 1, len(b))), np.zeros((m, m))
    cs, sn, g = np.zeros(m), np.zeros(m), np.zeros(m + 1)
    g[0] = math.sqrt(float(np.add.reduce(b * b)))
    V[0] = b / g[0]
    for k in range(m):
        w = jv(precond(V[k]))
        for i in range(k + 1):
            H[i, k] = float(np.add.reduce(w * V[i]))
            w -= H[i, k] * V[i]
        w_norm = math.sqrt(float(np.add.reduce(w * w)))
        for i in range(k):
            H[i, k], H[i + 1, k] = (cs[i] * H[i, k] + sn[i] * H[i + 1, k],
                                    cs[i] * H[i + 1, k] - sn[i] * H[i, k])
        rho = math.hypot(H[k, k], w_norm)
        cs[k], sn[k] = H[k, k] / rho, w_norm / rho
        H[k, k] = rho
        g[k], g[k + 1] = cs[k] * g[k], -sn[k] * g[k]
        if abs(g[k + 1]) <= tol:
            break
        V[k + 1] = w / w_norm
    y = np.zeros(k + 1)
    for i in range(k, -1, -1):
        y[i] = (g[i] - float(np.add.reduce(H[i, i + 1:k + 1] * y[i + 1:]))) / H[i, i]
    z = y[0] * V[0]
    for i in range(1, k + 1):
        z = z + y[i] * V[i]
    return np.zeros_like(b) + precond(z), k + 1


#: the disc at h = 1/128 (centre 0): (nodes, nonzeros) of each level's operator,
#: the coarsest last; 4.98, 12.82, 35.27, 83.06 and 30.59 nonzeros per row.
#: the first MG_SMOOTHED_LEVELS prolong by the smoothed prolongator, the
#: fourth by the tentative one
DISC128_LEVELS = [(51429, 256125), (12985, 166483), (3320, 117100), (865, 71843),
                  (232, 7098)]


def _hierarchy(dom, monkeypatch):
    """The cycle of the unit-coefficient operator's hierarchy on ``dom``, and
    the coarsest level's operator, which ``splu`` inverts."""
    seen = []
    real = solver.splu
    with monkeypatch.context() as m:
        m.setattr(solver, "splu", lambda A: seen.append(A) or real(A))
        cycle = solver._multigrid(_assemble(dom, _conductances(dom, 1.0)),
                                  dom.interior_index)
    return cycle, seen[0]


class TestHierarchy:
    """The level layout of ``_multigrid`` and its cycle's work arrays."""

    def test_plain_levels_below_the_smoothed_ones(self, monkeypatch):
        dom = build_domain(make_shape("disc", [1.0]), 1 / 128)
        cycle, coarsest = _hierarchy(dom, monkeypatch)
        levels, _ = cycle.args
        ops = [lv[0] for lv in levels] + [coarsest]
        assert [(A.shape[0], A.nnz) for A in ops] == DISC128_LEVELS
        assert [lv[4] for lv in levels] == [1.0] * solver.MG_SMOOTHED_LEVELS + [1.5]
        for k, ((A, _, P, Pt, *_), coarse) in enumerate(zip(levels, ops[1:])):
            assert (P.T.tocsr() @ (A @ P) != coarse).nnz == 0
            assert all(np.shares_memory(getattr(Pt, name), getattr(P, name))
                       for name in ("data", "indices", "indptr"))
            if k >= solver.MG_SMOOTHED_LEVELS:  # the tentative prolongator
                assert np.array_equal(P.indptr, np.arange(P.shape[0] + 1))
                assert np.all(P.data == 1.0)

    @pytest.mark.parametrize("h", [1 / 64, 1 / 128])
    @pytest.mark.parametrize("kind,params", [("disc", [1.0]), ("annulus", [0.3, 1.0]),
                                             ("ellipse", [1.0, 0.6]),
                                             ("rectangle", [1.0, 0.7])])
    def test_cycle_equals_an_allocating_one(self, kind, params, h, monkeypatch):
        # interleaved calls: each equals the reference bit for bit, and an
        # array one call returned is not touched by the next
        dom = build_domain(make_shape(kind, params), h)
        cycle, _ = _hierarchy(dom, monkeypatch)
        reference = _allocating_cycle(*cycle.args)
        rng = np.random.default_rng(6)
        bs = [np.ones(dom.n_interior), rng.standard_normal(dom.n_interior)]
        xs = [cycle(b) for b in bs + bs]
        kept = [x.copy() for x in xs]
        for b, x, x_kept in zip(bs + bs, xs, kept):
            assert np.array_equal(x, reference(b)) and np.array_equal(x, x_kept)
        assert not any(np.shares_memory(x, y) for i, x in enumerate(xs) for y in xs[i + 1:])

    def test_gmres_keeps_what_the_cycle_returns(self, monkeypatch):
        # GMRES holds no cycle's result past the next call: a copy of each
        # gives the same bits
        dom = build_domain(make_shape("disc", [1.0]), 1 / 128)
        cycle, _ = _hierarchy(dom, monkeypatch)
        A = _assemble(dom, _conductances(dom, 1.0))
        b = np.random.default_rng(7).standard_normal(dom.n_interior)
        x, stats = solver._gmres(lambda v: A @ v, b, cycle, rtol=1e-12)
        x_copy, stats_copy = solver._gmres(lambda v: A @ v, b, lambda v: cycle(v).copy(),
                                           rtol=1e-12)
        assert np.array_equal(x, x_copy) and stats == stats_copy

    def test_warm_start_equals_allocating_gram_schmidt(self, torsion_model, monkeypatch):
        dom = build_domain(make_shape("disc", [1.0], (0.37 / 128, 0.61 / 128)), 1 / 128)
        cycle, _ = _hierarchy(dom, monkeypatch)
        g0, h0 = divergence_coefficients(torsion_model, 0.0, 0.0)
        A = _assemble(dom, _conductances(dom, g0))
        b = np.full(dom.n_interior, -h0)
        x, stats = solver._gmres(lambda v: A @ v, b, cycle, rtol=solver.WARM_START_RTOL)
        ref, iterations = _gmres_one_cycle(lambda v: A @ v, b, cycle,
                                           solver.WARM_START_RTOL)
        assert stats == {"linear_iterations": iterations, "restart_cycles": 1,
                         "stalled": False}
        assert np.array_equal(x, ref)
        assert np.array_equal(x, solve_euler_lagrange(torsion_model, dom).u)

    @pytest.mark.parametrize("coef,failure", [
        ("1e-320", "the coarsest multigrid operator has a zero or non-finite pivot "
                   "or inverse"),
        ("1e-300", "the warm start's |grad u|^2 overflows"),
        ("1e-310", "the warm start's |grad u|^2 overflows")])
    def test_tiny_g0_refusals_through_plain_levels(self, coef, failure, capfd):
        # g(0, 0) = 2 coef: refused as on a grid with no multigrid level,
        # silently, also where the cycle passes a plain level's scaling
        model = make_expression_model(f"{coef}*p*p + q", smooth_at_origin=True)
        for h in (1 / 16, 1 / 128):
            dom = build_domain(make_shape("disc", [1.0]), h)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(EllipticityError) as err:
                    solve_euler_lagrange(model, dom)
            assert str(err.value) == failure
            assert err.value.witness == {"p": 0.0, "q": 0.0, "g": 2 * float(coef)}
        assert capfd.readouterr().err == ""


def _coarsest(kind, params, monkeypatch, h=1 / 64):
    """The coarsest multigrid level of the unit-coefficient operator."""
    dom = build_domain(make_shape(kind, params), h)
    seen = []
    real = solver.splu
    with monkeypatch.context() as m:
        m.setattr(solver, "splu", lambda A: seen.append(A) or real(A))
        solver._multigrid(_assemble(dom, _conductances(dom, 1.0)), dom.interior_index)
    return seen[0]


class TestCoarseInverse:
    """``splu``, the dense inverse of the coarsest multigrid level."""

    @pytest.mark.parametrize("kind,params", [("disc", [1.0]), ("annulus", [0.3, 1.0]),
                                             ("ellipse", [1.0, 0.6]),
                                             ("rectangle", [1.0, 0.7])])
    def test_matches_spsolve(self, kind, params, monkeypatch):
        A = _coarsest(kind, params, monkeypatch)
        assert 100 < A.shape[0] <= solver.MG_COARSEST
        rng = np.random.default_rng(3)
        for b in (np.ones(A.shape[0]), rng.standard_normal(A.shape[0])):
            ref = spsolve(A.tocsc(), b)
            x = solver.splu(A) @ b
            assert np.max(np.abs(x - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_row_swaps(self):
        # a diagonally dominant matrix with its rows cyclically shifted and
        # its new diagonal zeroed: each pivot comes from another row
        rng = np.random.default_rng(4)
        n = 40
        D = np.roll(rng.uniform(-1.0, 1.0, (n, n)) + np.diag(np.full(n, 2.0 * n)), 1, axis=0)
        np.fill_diagonal(D, 0.0)
        A = sparse.csr_matrix(D)
        b = rng.standard_normal(n)
        ref = spsolve(A.tocsc(), b)
        assert np.max(np.abs(solver.splu(A) @ b - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("entries", [
        [[1.0, 2.0], [2.0, 4.0]],          # a zero pivot
        [[1.0, 0.0], [0.0, 0.0]],          # a zero column
        [[math.nan, 1.0], [1.0, 1.0]],     # a non-finite pivot
        [[math.inf, 1.0], [1.0, 1.0]],     # an inverse of zeros and nan
        [[1.0, math.inf], [0.0, 1.0]],     # a non-finite inverse
        [[1e-320, 0.0], [0.0, 1.0]]])      # a pivot whose inverse overflows
    def test_refuses_what_it_cannot_invert(self, entries):
        with pytest.raises(EllipticityError):
            solver.splu(sparse.csr_matrix(np.array(entries)))

    def test_tiny_g0_is_refused_with_its_witness(self):
        # g(0, 0) = 2e-320: the diagonal's reciprocals overflow on the way down
        # and on a small grid the inverse itself does
        model = make_expression_model("1e-320*p*p + q", smooth_at_origin=True)
        for h in (1 / 16, 1 / 8):
            dom = build_domain(make_shape("disc", [1.0]), h)
            with pytest.raises(EllipticityError) as err:
                solve_euler_lagrange(model, dom)
            assert err.value.witness == {"p": 0.0, "q": 0.0, "g": 2e-320}


class TestRadialOracle:
    def test_torsion_center_value(self, torsion_radial):
        assert torsion_radial.u_at(0.0) == pytest.approx(-0.25, abs=1e-6)
        assert torsion_radial.parameter == torsion_radial.u_at(0.0)

    def test_laplace_identically_zero(self, laplace_model):
        prof = solve_radial(laplace_model, (0.0, 1.0), n=2)
        assert np.max(np.abs(prof.u_at(np.linspace(0.0, 1.0, 101)))) <= 1e-10

    def test_2d_matches_radial_torsion(self, torsion_result, torsion_radial, disc64):
        r = np.hypot(disc64.xy[:, 0], disc64.xy[:, 1])
        dev = np.max(np.abs(torsion_result.u - torsion_radial.u_at(r)))
        assert dev <= 5e-3

    def test_2d_matches_radial_exponential(self, exp_result, exp_radial, disc64):
        r = np.hypot(disc64.xy[:, 0], disc64.xy[:, 1])
        dev = np.max(np.abs(exp_result.u - exp_radial.u_at(r)))
        assert dev <= 5e-3

    @staticmethod
    def assert_profile(prof, r, u, du):
        assert np.max(np.abs(prof.u_at(r) - u)) <= 1e-13
        assert np.max(np.abs(prof.du_at(r) - du)) <= 1e-13

    def test_annulus_radial_matches_closed_form(self, torsion_model):
        prof = solve_radial(torsion_model, (0.3, 1.0), n=2)
        r = np.linspace(0.3, 1.0, 1001)
        self.assert_profile(prof, r, annulus_exact_u(r), annulus_exact_du(r))
        # the flux w(a) = u'(a) of this model
        assert prof.parameter == pytest.approx(annulus_exact_du(0.3), abs=1e-13)

    def test_disc_matches_closed_form(self, torsion_radial):
        # n = 2: u'' + (1/r) u' = 1 on the unit disc gives u = (r^2-1)/4
        r = np.linspace(0.0, 1.0, 1001)
        self.assert_profile(torsion_radial, r, (r**2 - 1.0) / 4.0, r / 2.0)

    def test_interval_problem(self, torsion_model):
        # n = 1: u'' = 1 on (-1, 1) restricted to r in [0, 1]: u = (r^2-1)/2
        prof = solve_radial(torsion_model, (0.0, 1.0), n=1)
        r = np.linspace(0.0, 1.0, 1001)
        self.assert_profile(prof, r, (r**2 - 1.0) / 2.0, r)

    def test_three_dimensional_ball(self, torsion_model):
        # n = 3: u'' + (2/r) u' = 1 on the unit ball gives u = (r^2-1)/6
        prof = solve_radial(torsion_model, (0.0, 1.0), n=3)
        r = np.linspace(0.0, 1.0, 1001)
        self.assert_profile(prof, r, (r**2 - 1.0) / 6.0, r / 3.0)

    CUBIC = make_expression_model("0.5*p**2 + p**3 + q", smooth_at_origin=True)

    def test_odd_power_of_p_on_the_disc(self):
        # Psi = u' + 3u'|u'| = r/2 gives u' = (sqrt(1 + 6r) - 1)/6, so the
        # even extension has a |x|^3 term, and the Chebyshev coefficients
        # fall only like k^-4: the profile is resolved, if not to rounding
        prof = solve_radial(self.CUBIC, (0.0, 1.0), n=2)
        r = np.linspace(0.0, 1.0, 1001)
        u = ((1.0 + 6.0 * r) ** 1.5 - 7.0 ** 1.5) / 54.0 - (r - 1.0) / 6.0
        assert np.max(np.abs(prof.u_at(r) - u)) <= 1e-5
        assert np.max(np.abs(prof.du_at(r) - (np.sqrt(1.0 + 6.0 * r) - 1.0) / 6.0)) <= 5e-4

    def test_odd_power_of_p_on_the_annulus(self):
        # u' changes sign inside; the flux obeys r Psi(r) = a w(a) + (r^2 - a^2)/2
        a = 0.3
        prof = solve_radial(self.CUBIC, (a, 1.0), n=2)
        r = np.linspace(a, 1.0, 1001)
        du = prof.du_at(r)
        flux = r * (du + 3.0 * du * np.abs(du)) - a * prof.parameter
        assert np.max(np.abs(flux - (r * r - a * a) / 2.0)) <= 5e-4
        assert np.max(np.abs(prof.u_at(np.array([a, 1.0])))) <= 1e-15

    @pytest.mark.parametrize("radii", [(0.0, 1.0), (0.3, 1.0)])
    def test_unsolvable_problem_raises(self, radii):
        # mean curvature 3: 3 |area| exceeds the perimeter, so there is no
        # profile, and Newton stops on an unresolved polynomial
        with pytest.raises(EmlabError, match="radial collocation failed"):
            solve_radial(make_model("minimal_surface", [0.0, 3.0]), radii, n=2)


def _count_sweeps(monkeypatch):
    """A list that grows by one entry per jet sweep, through whichever emlab
    namespace the sweep calls ``eval_jet``: the sweep's number of points."""
    sweeps, real = [], lagrangian.eval_jet
    for name, mod in list(sys.modules.items()):
        if name == "emlab" or name.startswith("emlab."):
            for attr, value in list(vars(mod).items()):
                if value is real:
                    monkeypatch.setattr(
                        mod, attr,
                        lambda model, p, q: sweeps.append(np.size(p)) or real(model, p, q))
    return sweeps


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
        sweeps = _count_sweeps(monkeypatch)
        el_residual(STENCIL_MODELS[1], dom, u)
        assert len(sweeps) == 4  # three groups of unique faces and the nodal source

    @pytest.mark.parametrize("kind,params", STENCIL_SHAPES)
    def test_unique_face_sweep_equals_loop(self, kind, params):
        # each face is swept once and its g scattered to both of its nodes;
        # the per-direction reference sweeps every (direction, node) itself
        dom = build_domain(make_shape(kind, params), 1 / 32)
        x, y = dom.xy[:, 0], dom.xy[:, 1]
        bowl = (x * x + y * y - 1.0) / 4.0
        noisy = bowl + 1e-3 * np.random.default_rng(7).standard_normal(dom.n_interior)
        for model in STENCIL_MODELS:
            for u in (np.minimum(bowl, -0.1), noisy, np.zeros(dom.n_interior)):
                g = solver._sweep(model, dom, u, False)[0]
                assert g.shape == (4, dom.n_interior)
                for d, g_ref in enumerate(_face_coefficients_loop(model, dom, u)[0]):
                    assert np.array_equal(g[d], g_ref)

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
        # the face state and g of that face, as the per-direction sweep read them
        assert err.value.witness["p_face"] == 2.1986323874174354
        assert err.value.witness["u_face"] == -2.016601562500075
        assert err.value.witness["g"] == -0.01660156250007505
        report = run_pipeline(config)
        assert report.exit_code == EXIT_SOLVER
        assert report.solver["witness"]["direction"] == "+x"
        assert report.solver["witness"]["node"] == [-0.0625, -0.4375]


#: one parameter set per catalog model, and the benchmark's expression model
JACOBIAN_MODELS = [make_model(name, params) for name, params in [
    ("dirichlet_affine", [0.5, 1.0]), ("dirichlet_exponential", [1.0, 1.0]),
    ("dirichlet_power", [1.0, 3]), ("power_dirichlet", [3.0, 0.0, 1.0]),
    ("minimal_surface", [2.0, 1.0])]] + [
    make_expression_model("sqrt(1 + p**2) + q", smooth_at_origin=True)]


def _centred_difference(model, dom, u, v, eps=1e-7):
    return (el_residual(model, dom, u + eps * v)
            - el_residual(model, dom, u - eps * v)) / (2 * eps)


class TestJacobian:
    def test_covers_the_catalog(self):
        assert {m.name for m in JACOBIAN_MODELS} == set(lagrangian.CATALOG) | {"expression"}

    @pytest.mark.parametrize("kind,params", [("disc", [1.0]), ("ellipse", [1.0, 0.6])])
    @pytest.mark.parametrize("model", JACOBIAN_MODELS, ids=lambda m: m.name)
    def test_product_matches_centred_difference(self, model, kind, params):
        dom = build_domain(make_shape(kind, params), 1 / 32)
        rng = np.random.default_rng(13)
        x, y = dom.xy[:, 0], dom.xy[:, 1]
        u = (x * x + y * y - 1.0) / 4.0 + 0.05 * rng.standard_normal(dom.n_interior)
        v = rng.standard_normal(dom.n_interior)
        fd = _centred_difference(model, dom, u, v)
        jv = solver._jacobian(model, dom, u)(v)
        assert np.max(np.abs(jv - fd)) <= 1e-7 * np.max(np.abs(fd))

    @pytest.mark.parametrize("model", [
        make_expression_model("sqrt(1 + p**2) + q", smooth_at_origin=True),
        # F_pq = p: d g/dq = 1 is one of the terms dropped below the cut
        make_expression_model("0.5*(2 + q)*p**2 + q", smooth_at_origin=True)],
        ids=["minimal_surface", "q_dependent_g"])
    def test_below_the_cut(self, model):
        # a flat core with p = 0 exactly, tilted by 1e-5: p falls below the cut
        dom = build_domain(make_shape("ellipse", [1.0, 0.6]), 1 / 32)
        x, y = dom.xy[:, 0], dom.xy[:, 1]
        u = np.minimum((x * x + y * y - 1.0) / 4.0, -0.1)
        v = np.random.default_rng(17).standard_normal(dom.n_interior)
        Gx, Gy = dom.grad_ops
        for field in (u, u + 1e-5 * x):
            p = np.hypot(Gx @ field, Gy @ field)
            assert np.count_nonzero(p < solver.JACOBIAN_P_CUT) > 100
            fd = _centred_difference(model, dom, field, v)
            jv = solver._jacobian(model, dom, field)(v)
            assert np.max(np.abs(jv - fd)) <= 1e-6 * np.max(np.abs(fd))

    def test_origin_limit_as_in_the_residual(self):
        # F_pp = 1 + 6p: below ORIGIN_EPS g is the limit F_pp(0, q) = 1 in the
        # residual, the Jacobian, the tensor and the boundary flux alike, not
        # F_pp(p, q)
        cubic = make_expression_model("0.5*p**2 + p**3 + q", smooth_at_origin=True)
        plain = make_expression_model("0.5*p**2 + q", smooth_at_origin=True)
        dom = build_domain(make_shape("ellipse", [1.0, 0.6]), 1 / 32)
        x, y = dom.xy[:, 0], dom.xy[:, 1]
        u = np.minimum((x * x + y * y - 1.0) / 4.0, -0.1) + 1e-10 * x
        Gx, Gy = dom.grad_ops
        p2 = (Gx @ u) ** 2 + (Gy @ u) ** 2
        has = dom.nbr >= 0
        faces = np.sqrt(np.where(has, 0.5 * (p2[:, None] + p2[dom.nbr]), p2[:, None]))
        assert np.any((faces > 0.0) & (faces <= ORIGIN_EPS))
        flat = (np.sqrt(p2) < solver.JACOBIAN_P_CUT) & np.all(
            faces < solver.JACOBIAN_P_CUT, axis=1)
        assert np.count_nonzero(flat) > 50
        v = np.random.default_rng(19).standard_normal(dom.n_interior)
        for fn in (el_residual, lambda *a: solver._jacobian(*a)(v)):
            assert np.array_equal(fn(cubic, dom, u)[flat], fn(plain, dom, u)[flat])

        shallow = solver.field_result(dom, 1e-10 * (x * x + y * y - 1.0) / 4.0,
                                   final_residual=0.0, converged=True,
                                   iterations=0)
        dnu = shallow.normal_derivative
        fld = assemble_field(cubic, shallow, dom)
        assert np.all((np.abs(dnu) <= ORIGIN_EPS) & (dnu != 0.0))
        g0 = eval_jet(cubic, 0.0, 0.0).F_pp
        assert np.array_equal(fld.boundary_flux,
                              fld.X_dot_nu * (g0 * dnu ** 2 - fld.boundary_jet.F))
        level = fld.p <= ORIGIN_EPS
        ux, uy = shallow.grad[level, 0], shallow.grad[level, 1]
        assert np.count_nonzero(ux * uy) > 50
        assert np.array_equal(fld.T[0, 1][level], g0 * ux * uy)

    def test_one_jet_sweep_per_face_and_at_the_nodes(self, monkeypatch):
        dom = build_domain(make_shape("ellipse", [1.0, 0.6]), 1 / 32)
        u = (dom.xy[:, 0] ** 2 + dom.xy[:, 1] ** 2 - 1.0) / 4.0
        sweeps = _count_sweeps(monkeypatch)
        product = solver._jacobian(JACOBIAN_MODELS[-1], dom, u)
        assert len(sweeps) == 4
        product(u)
        assert len(sweeps) == 4


class TestSharedLinearization:
    @pytest.mark.parametrize("kind,params", [("disc", [1.0]), ("ellipse", [1.0, 0.6])])
    @pytest.mark.parametrize("model", JACOBIAN_MODELS, ids=lambda m: m.name)
    def test_product_from_a_trials_data_equals_a_fresh_one(self, model, kind, params,
                                                          monkeypatch):
        dom = build_domain(make_shape(kind, params), 1 / 32)
        rng = np.random.default_rng(23)
        x, y = dom.xy[:, 0], dom.xy[:, 1]
        u = (x * x + y * y - 1.0) / 4.0 + 0.05 * rng.standard_normal(dom.n_interior)
        v = rng.standard_normal(dom.n_interior)
        R, lin = el_residual(model, dom, u, linearize=True)
        assert np.array_equal(R, el_residual(model, dom, u))
        fresh = solver._jacobian(model, dom, u)(v)
        sweeps = _count_sweeps(monkeypatch)
        shared = solver._jacobian(model, dom, u, lin)
        assert sweeps == []  # the trial's sweep is all the product reads
        assert np.array_equal(shared(v), fresh)

    @pytest.mark.parametrize("kind,params,model", [
        ("ellipse", [1.0, 0.6], JACOBIAN_MODELS[-1]),
        ("disc", [1.0], make_model("dirichlet_exponential", [1.0, 1.0]))],
        ids=["ellipse", "disc"])
    def test_newton_loop_passes_the_accepted_trials_data(self, kind, params, model,
                                                         monkeypatch):
        dom = build_domain(make_shape(kind, params), 1 / 32)
        real, shared = solver._jacobian, []
        v = np.random.default_rng(29).standard_normal(dom.n_interior)

        def spy(model, domain, u, lin=None):
            product = real(model, domain, u, lin)
            assert np.array_equal(product(v), real(model, domain, u.copy())(v))
            shared.append(lin is not None)
            return product
        monkeypatch.setattr(solver, "_jacobian", spy)
        res = solve_euler_lagrange(model, dom)
        assert res.converged and res.iterations >= 2
        # the warm start keeps no data; every later step reads its trial's
        assert shared == [False] + [True] * (res.iterations - 1)

    def test_solve_sweeps_the_predicted_points(self, monkeypatch):
        # every residual, warm start and trials alike, sweeps each unique
        # face and each node once, and the first step's Jacobian sweeps
        # them once more; a second sweep of a face would break the count
        dom = build_domain(make_shape("ellipse", [1.0, 0.6]), 1 / 32)
        sweeps = _count_sweeps(monkeypatch)
        res = solve_euler_lagrange(JACOBIAN_MODELS[-1], dom)
        assert res.converged and res.iterations >= 2
        trials = sum(5 if e["damping"] == 0.0 else 1 - int(math.log2(e["damping"]))
                     for e in res.log[1:])
        faces = (np.count_nonzero(dom.nbr[:, 0] >= 0)  # +x and +y to an interior node
                 + np.count_nonzero(dom.nbr[:, 2] >= 0) + np.count_nonzero(dom.nbr < 0))
        sets = 1 + trials + 1  # the warm start, every trial, the first step's Jacobian
        # first the warm start's g(0, 0) and h(0, 0): a jet at (0, 0) and its
        # F_pp(0, 0) limit
        assert sweeps[:2] == [1, 1]
        assert len(sweeps[2:]) == 4 * sets
        assert sum(sweeps[2:]) == sets * (faces + dom.n_interior)


class TestGmres:
    @staticmethod
    def _system(seed):
        # eigenvalues spread over [1, 100]: a cycle of 20 iterations gains
        # about two digits, so the tolerance takes more than one
        rng = np.random.default_rng(seed)
        A = np.diag(np.linspace(1.0, 100.0, 120)) + rng.standard_normal((120, 120)) / 20
        return A, rng.standard_normal(120)

    def test_restarts_to_the_tolerance(self):
        A, b = self._system(1)
        x, stats = solver._gmres(lambda v: A @ v, b, np.copy)
        assert np.linalg.norm(b - A @ x) <= 1.001 * solver.GMRES_RTOL * np.linalg.norm(b)
        assert stats["restart_cycles"] == 3 and not stats["stalled"]
        assert 2 * solver.GMRES_RESTART < stats["linear_iterations"] < 3 * solver.GMRES_RESTART

    def test_exact_preconditioner_converges_at_once(self):
        A, b = self._system(2)
        x, stats = solver._gmres(lambda v: A @ v, b, lambda v: np.linalg.solve(A, v))
        assert stats == {"linear_iterations": 1, "restart_cycles": 1, "stalled": False}
        assert np.max(np.abs(A @ x - b)) <= 1e-12 * np.max(np.abs(b))

    def test_singular_system_stalls(self):
        # b has a component outside the range of A: no cycle removes it
        A, b = self._system(3)
        A[:, 0] = A[0, :] = 0.0
        b[0] = 1.0
        x, stats = solver._gmres(lambda v: A @ v, b, np.copy)
        assert stats["stalled"] and stats["restart_cycles"] < solver.GMRES_MAX_RESTARTS
        assert stats["linear_iterations"] == stats["restart_cycles"] * solver.GMRES_RESTART


#: the catalog sweep's grids: h = 1/32 on 4 shapes, then h = 1/64 on 3, all
#: centred at (0.37 h, 0.61 h)
SWEEP_GRIDS = ([(kind, params, 32) for kind, params in STENCIL_SHAPES]
               + [(kind, params, 64) for kind, params in STENCIL_SHAPES[:3]])
#: per model, on SWEEP_GRIDS in order: the Newton steps with the warm-start
#: LU that the multigrid preconditioner replaced (None: the solve stopped
#: unconverged, as where no solution exists), and the summed GMRES
#: iterations, warm start included, with the multigrid preconditioner.
#: power_dirichlet has a finite positive g(0, 0) only at m = 2, where it is
#: dirichlet_affine; dirichlet_power [1, 2] has h(0, 0) = 0
SWEEP = [
    (("dirichlet_affine", [0.5, 1.0]), [0] * 7, [14, 14, 14, 14, 14, 15, 15]),
    (("power_dirichlet", [2.0, 0.0, 1.0]), [0] * 7, [14, 14, 14, 14, 14, 15, 15]),
    (("dirichlet_power", [1.0, 2]), [0] * 7, [0] * 7),
    (("dirichlet_exponential", [1.0, 1.0]), [2] * 7, [26, 24, 26, 25, 27, 27, 32]),
    (("dirichlet_exponential", [0.5, 2.0]), [3, 2, 2, 2, 3, 2, 2],
     [29, 25, 27, 26, 32, 32, 34]),
    (("minimal_surface", [0.0, 3.0]), [None, 7, None, 4, None, 10, None],
     [118, 164, 294, 46, 137, 830, 162]),
    (("0.5*p**2 + 0.25*p**4 + q",), [4, 3, 3, 3, 4, 4, 3], [40, 33, 33, 30, 41, 41, 35]),
    (("sqrt(1 + p**2) + q",), [3] * 7, [32, 30, 32, 31, 35, 34, 35]),
    (("0.5*p**2 + p**3 + q",), [5, 4, 4, 4, 5, 4, 4], [43, 45, 43, 42, 53, 49, 47]),
]
#: summed GMRES iterations may exceed SWEEP's by this factor
SWEEP_GMRES_MARGIN = 1.25


@pytest.fixture(scope="module")
def sweep_domains():
    return [build_domain(make_shape(kind, params, (0.37 / n, 0.61 / n)), 1.0 / n)
            for kind, params, n in SWEEP_GRIDS]


class TestCatalogSweep:
    @pytest.mark.parametrize("model,steps,gmres", SWEEP, ids=[
        "-".join(map(str, [m[0], *m[1]])) if len(m) == 2 else m[0] for m, _, _ in SWEEP])
    def test_converges_within_one_step_of_the_lu(self, model, steps, gmres, sweep_domains):
        model = (make_model(*model) if len(model) == 2
                 else make_expression_model(model[0], smooth_at_origin=True))
        for dom, lu_steps, linear in zip(sweep_domains, steps, gmres):
            res = solve_euler_lagrange(model, dom)
            assert res.converged == (lu_steps is not None)
            if res.converged:
                assert res.iterations <= lu_steps + 1
            assert sum(e["linear_iterations"] for e in res.log) <= SWEEP_GMRES_MARGIN * linear


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
        again = solver.field_result(disc64, torsion_result.u, final_residual=0.0,
                                    converged=True, iterations=0)
        assert len(calls) == 1
        assert np.array_equal(again.normal_derivative, torsion_result.normal_derivative)
