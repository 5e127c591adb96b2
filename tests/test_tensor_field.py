"""Tensor assembly, closed-form spectrum, definiteness, discrete divergence."""

import dataclasses
import math

import numpy as np
import pytest
from scipy import sparse
from scipy.spatial import cKDTree

from emlab.errors import UnconvergedError
from emlab.geometry import build_domain, make_shape
from emlab.lagrangian import ORIGIN_EPS, eval_jet
from emlab.solver import solve_euler_lagrange
from emlab.tensor_field import (_eigvals_sym2, assemble_field, classify_definiteness,
                                consistency_report, divergence_residual,
                                interior_diff_ops)
from conftest import ANN_LOG_COEF, ANN_CONST


# ---------------------------------------------------------------------------
# pointwise reference: the tensor at one point in n = 2 or 3 dimensions, the
# algebra that SpectralField and consistency_report evaluate over a grid
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class TensorPoint:
    """Tensor, closed-form spectrum and jet at one evaluation point."""

    T: np.ndarray
    lambda1: float
    lambda_rest: float
    p: float
    jet: object


def assemble_tensor(jet, grad, p):
    """Assemble T from a jet and the gradient vector at a point.

    For p below ORIGIN_EPS the rank-one part vanishes identically and the
    analytic limit is -F(0, q) Id with every eigenvalue equal to -F.
    """
    grad = np.asarray(grad, dtype=float)
    if abs(np.linalg.norm(grad) - p) > 1e-12 * max(1.0, p):
        raise ValueError("|grad| must agree with p to 1e-12")
    n = len(grad)
    if p > ORIGIN_EPS:
        T = (jet.F_p / p) * np.outer(grad, grad) - jet.F * np.eye(n)
        lambda1 = p * jet.F_p - jet.F
    else:
        T = -jet.F * np.eye(n)
        lambda1 = -jet.F
    return TensorPoint(T=T, lambda1=float(lambda1), lambda_rest=float(-jet.F),
                       p=float(p), jet=jet)


def _eigvals_sym3(T):
    # trigonometric solve of the characteristic polynomial
    p1 = T[0, 1] ** 2 + T[0, 2] ** 2 + T[1, 2] ** 2
    q = np.trace(T) / 3.0
    if p1 == 0.0:
        return np.sort(np.diag(T))
    p2 = sum((T[i, i] - q) ** 2 for i in range(3)) + 2.0 * p1
    pp = math.sqrt(p2 / 6.0)
    B = (T - q * np.eye(3)) / pp
    r = np.linalg.det(B) / 2.0
    r = min(1.0, max(-1.0, r))
    phi = math.acos(r) / 3.0
    e1 = q + 2.0 * pp * math.cos(phi)
    e3 = q + 2.0 * pp * math.cos(phi + 2.0 * math.pi / 3.0)
    return np.sort(np.array([e3, 3.0 * q - e1 - e3, e1]))


def spectrum_crosscheck(point):
    """Max deviation between the closed-form spectrum and a direct solve."""
    n = point.T.shape[0]
    direct = _eigvals_sym2(point.T) if n == 2 else _eigvals_sym3(point.T)
    closed = np.sort(np.array([point.lambda1] + [point.lambda_rest] * (n - 1)))
    return float(np.max(np.abs(direct - closed)))


def det_trace(point):
    """(det, trace) from the spectrum: the eigenvalue product and sum."""
    n = point.T.shape[0]
    trace = point.lambda1 + (n - 1) * point.lambda_rest
    det = point.lambda1 * point.lambda_rest ** (n - 1)
    return float(det), float(trace)


def det_trace_direct(point):
    """(det, trace) straight from the matrix entries, as the cross-check."""
    T = point.T
    if T.shape[0] == 2:
        det = T[0, 0] * T[1, 1] - T[0, 1] * T[1, 0]
    else:
        det = (T[0, 0] * (T[1, 1] * T[2, 2] - T[1, 2] * T[2, 1])
               - T[0, 1] * (T[1, 0] * T[2, 2] - T[1, 2] * T[2, 0])
               + T[0, 2] * (T[1, 0] * T[2, 1] - T[1, 1] * T[2, 0]))
    return float(det), float(np.trace(T))


class TestAssembleTensor:
    def test_degenerate_gradient_is_scaled_identity(self, torsion_model):
        jet = eval_jet(torsion_model, 0.0, -0.25)
        pt = assemble_tensor(jet, np.zeros(2), 0.0)
        A = jet.F  # F(0, -1/4) = 1/4
        assert np.allclose(pt.T, -A * np.eye(2), atol=0)
        assert pt.lambda1 == pytest.approx(-A)
        assert pt.lambda_rest == pytest.approx(-A)

    def test_quadratic_family_form(self, torsion_model):
        # T_ij = u_i u_j - delta_ij (p^2/2 + Phi(u)) for F = p^2/2 + Phi
        grad = np.array([0.3, -0.4])
        p = 0.5
        q = -0.1
        jet = eval_jet(torsion_model, p, q)
        pt = assemble_tensor(jet, grad, p)
        expected = np.outer(grad, grad) - (0.5 * p**2 + (q + 0.5)) * np.eye(2)
        assert np.max(np.abs(pt.T - expected)) < 1e-15

    def test_torsion_spectrum_closed_form(self, torsion_model, torsion_result, disc64):
        # lambda1 = -r^2/8 - 1/4, lambda2 = -3r^2/8 - 1/4 for the benchmark
        fld = assemble_field(torsion_model, torsion_result, disc64)
        r2 = disc64.xy[:, 0] ** 2 + disc64.xy[:, 1] ** 2
        assert np.max(np.abs(fld.lambda1 - (-r2 / 8.0 - 0.25))) <= 2e-3
        assert np.max(np.abs(fld.lambda_rest - (-3.0 * r2 / 8.0 - 0.25))) <= 2e-3

    def test_gradient_norm_mismatch_rejected(self, torsion_model):
        jet = eval_jet(torsion_model, 1.0, 0.0)
        with pytest.raises(ValueError):
            assemble_tensor(jet, np.array([1.0, 1.0]), 1.0)

    def test_three_dimensional_algebra(self, torsion_model):
        grad = np.array([0.6, -0.2, 0.3])
        p = float(np.linalg.norm(grad))
        jet = eval_jet(torsion_model, p, -0.3)
        pt = assemble_tensor(jet, grad, p)
        assert pt.T.shape == (3, 3)
        assert spectrum_crosscheck(pt) < 1e-10
        det, trace = det_trace(pt)
        det_d, trace_d = det_trace_direct(pt)
        assert det == pytest.approx(det_d, abs=1e-12)
        assert trace == pytest.approx(trace_d, abs=1e-12)


class TestSpectrumCrosscheck:
    def test_every_torsion_node(self, torsion_model, torsion_result, disc64):
        fld = assemble_field(torsion_model, torsion_result, disc64)
        worst = consistency_report(fld)["spectrum_crosscheck_max"]
        assert worst < 1e-10

    def test_p_zero_node(self, torsion_model):
        jet = eval_jet(torsion_model, 0.0, -0.25)
        pt = assemble_tensor(jet, np.zeros(2), 0.0)
        assert spectrum_crosscheck(pt) < 1e-15

    def test_random_rank_one_plus_identity_sweep(self):
        rng = np.random.default_rng(20260810)
        worst = 0.0
        for _ in range(1000):
            v = rng.normal(size=2)
            s = rng.uniform(0.1, 3.0)
            c = rng.uniform(-2.0, 2.0)
            T = s * np.outer(v, v) - c * np.eye(2)
            lam1 = s * float(v @ v) - c
            pt = TensorPoint(T=T, lambda1=lam1, lambda_rest=-c,
                             p=float(np.linalg.norm(v)), jet=None)
            worst = max(worst, spectrum_crosscheck(pt))
        assert worst < 1e-10

    def test_random_sweep_three_dimensional(self):
        # characteristic-polynomial extraction of the (n-1)-fold eigenvalue
        # is sqrt(eps)-conditioned in 3D; scale-relative tolerance reflects
        # that (the 2x2 path used on catalog runs has no such loss)
        rng = np.random.default_rng(20260811)
        for _ in range(1000):
            v = rng.normal(size=3)
            s = rng.uniform(0.1, 3.0)
            c = rng.uniform(-2.0, 2.0)
            T = s * np.outer(v, v) - c * np.eye(3)
            lam1 = s * float(v @ v) - c
            pt = TensorPoint(T=T, lambda1=lam1, lambda_rest=-c,
                             p=float(np.linalg.norm(v)), jet=None)
            scale = max(abs(lam1), abs(c), 1.0)
            assert spectrum_crosscheck(pt) < 1e-6 * scale


class TestDetTrace:
    def test_torsion_center(self, torsion_model, torsion_result, disc64):
        fld = assemble_field(torsion_model, torsion_result, disc64)
        i0 = int(np.argmin(disc64.xy[:, 0] ** 2 + disc64.xy[:, 1] ** 2))
        assert fld.trace[i0] == pytest.approx(-0.5, abs=5e-3)
        assert fld.det[i0] == pytest.approx(1.0 / 16.0, abs=5e-3)

    def test_zero_gradient_constant_energy(self, laplace_model):
        jet = eval_jet(laplace_model, 0.0, 0.0)  # F = A = 1
        pt = assemble_tensor(jet, np.zeros(2), 0.0)
        det, trace = det_trace(pt)
        assert det == pytest.approx(1.0)   # (-A)^n
        assert trace == pytest.approx(-2.0)  # -n A
        pt3 = assemble_tensor(jet, np.zeros(3), 0.0)
        det3, trace3 = det_trace(pt3)
        assert det3 == pytest.approx(-1.0)
        assert trace3 == pytest.approx(-3.0)

    def test_sign_convention_flip(self, torsion_model, torsion_result, disc64):
        # eigenvalue product equals the F^{n-1} convention up to (-1)^{n-1}
        fld = assemble_field(torsion_model, torsion_result, disc64)
        assert np.max(np.abs(fld.det - (-1.0) * fld.det_convention_flip)) < 1e-12

    def test_nondegeneracy_margin(self, torsion_model, torsion_result, disc64):
        fld = assemble_field(torsion_model, torsion_result, disc64)
        assert float(np.min(np.abs(fld.det))) > 0.05  # 1/16 at the center


class TestClassifyDefiniteness:
    def test_torsion_negative_definite(self, torsion_model, torsion_result, disc64):
        fld = assemble_field(torsion_model, torsion_result, disc64)
        assert fld.definiteness_class == "negative_definite"
        assert fld.uniform_constant_C == pytest.approx(0.25, abs=5e-3)
        assert fld.sup_location_class == "critical_set"

    def test_shifted_positive_definite(self, shifted_model, shifted_result, disc64):
        fld = assemble_field(shifted_model, shifted_result, disc64)
        assert fld.definiteness_class == "positive_definite"
        assert fld.sup_lambda1 == pytest.approx(0.45, abs=5e-3)
        all_eigs = np.concatenate([fld.lambda1, fld.lambda_rest,
                                   fld.boundary_lambda1, fld.boundary_lambda_rest])
        assert np.min(all_eigs) > 0.0

    def test_zero_solution_negative_definite(self, laplace_model, laplace_result, disc64):
        fld = assemble_field(laplace_model, laplace_result, disc64)
        assert fld.definiteness_class == "negative_definite"
        assert fld.uniform_constant_C == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("eigenvalues, expected", [
        (([-3.0, -1.0], [-2.0]), ("negative_definite", 1.0)),
        (([3.0, 1.0], [2.0]), ("positive_definite", None)),
        (([-3.0, 1.0], [2.0]), ("indefinite", None)),
        (([-3.0, -1.0], [-1e-12]), ("degenerate", None)),
    ])
    def test_every_class(self, eigenvalues, expected):
        assert classify_definiteness(*map(np.array, eigenvalues)) == expected

    def test_field_is_frozen(self, torsion_model, torsion_result, disc64):
        fld = assemble_field(torsion_model, torsion_result, disc64)
        with pytest.raises(dataclasses.FrozenInstanceError):
            fld.definiteness_class = "indefinite"

    def test_refuses_unconverged(self, torsion_model, torsion_result, disc64):
        broken = dataclasses.replace(torsion_result, converged=False)
        with pytest.raises(UnconvergedError):
            assemble_field(torsion_model, broken, disc64)


class TestDivergence:
    def test_solved_torsion_at_rounding_floor(self, torsion_model, torsion_result, disc64):
        # quadratic tensor: discrete divergence is exact to rounding
        fld = assemble_field(torsion_model, torsion_result, disc64)
        assert fld.div_T_sup_norm_core <= 1e-10
        residual, norm = divergence_residual(disc64, fld.T)
        assert np.array_equal(residual, fld.div_T) and norm == fld.div_T_sup_norm_core

    def test_constant_field_zero(self, disc64):
        T = np.array([[2.0, -1.0], [-1.0, 0.5]])[:, :, None] * np.ones(disc64.n_interior)
        _, norm = divergence_residual(disc64, T)
        assert norm == 0.0

    @staticmethod
    def _exact_annulus_field(dom):
        x, y = dom.xy[:, 0], dom.xy[:, 1]
        r2 = x * x + y * y
        coef = 0.5 + ANN_LOG_COEF / r2
        ux, uy = x * coef, y * coef
        u = r2 / 4.0 + ANN_LOG_COEF * np.log(np.sqrt(r2)) + ANN_CONST
        F = 0.5 * (ux**2 + uy**2) + u + 0.5
        return np.array([[ux * ux - F, ux * uy], [ux * uy, uy * uy - F]])

    def test_injected_exact_field_truncation_decay(self):
        norms = []
        for h in (1 / 32, 1 / 64, 1 / 128):
            dom = build_domain(make_shape("annulus", [0.3, 1.0]), h)
            _, norm = divergence_residual(dom, self._exact_annulus_field(dom))
            norms.append(norm)
        assert norms[0] / norms[1] >= 1.8
        assert norms[1] / norms[2] >= 1.8

    def test_solved_field_first_order_decay(self, exp_model):
        # non-polynomial solution: divergence residual must decay at order >= 1
        norms = []
        for h in (1 / 16, 1 / 32):
            dom = build_domain(make_shape("disc", [1.0]), h)
            res = solve_euler_lagrange(exp_model, dom)
            norms.append(assemble_field(exp_model, res, dom).div_T_sup_norm_core)
        assert norms[0] / norms[1] >= 2.0

    def test_perturbation_sensitivity(self, torsion_model, torsion_result, disc64):
        base = assemble_field(torsion_model, torsion_result, disc64).div_T_sup_norm_core
        bump = 1e-2 * np.exp(-(disc64.xy[:, 0] ** 2 + disc64.xy[:, 1] ** 2) / 0.1)
        u_pert = torsion_result.u + bump
        from emlab.solver import gradient_operators
        Gx, Gy = gradient_operators(disc64)
        grad = np.column_stack([Gx @ u_pert, Gy @ u_pert])
        pert_res = dataclasses.replace(torsion_result, u=u_pert, grad=grad)
        perturbed = assemble_field(torsion_model, pert_res, disc64).div_T_sup_norm_core
        assert perturbed >= 10.0 * base


class TestConsistency:
    def test_every_catalog_run(self, torsion_model, torsion_result,
                               shifted_model, shifted_result,
                               exp_model, exp_result, disc64,
                               annulus_result, annulus64):
        runs = [(torsion_model, torsion_result, disc64),
                (shifted_model, shifted_result, disc64),
                (exp_model, exp_result, disc64),
                (torsion_model, annulus_result, annulus64)]
        for model, result, dom in runs:
            rep = consistency_report(assemble_field(model, result, dom))
            assert rep["symmetry_max"] == 0.0
            assert rep["eigenvector_residual_max"] <= 1e-10
            assert rep["spectrum_crosscheck_max"] <= 1e-10
            assert rep["trace_consistency_max"] <= 1e-12
            assert rep["det_consistency_max_rel"] <= 1e-10


# ---------------------------------------------------------------------------
# per-node loop references for the whole-array tensor code
# ---------------------------------------------------------------------------

def _diff_ops_loop(domain):
    n, h, nbr = domain.n_interior, domain.h, domain.nbr
    ops = []
    for d_plus, d_minus in ((0, 1), (2, 3)):
        rows, cols, vals = [], [], []
        for i in range(n):
            jp, jm = nbr[i, d_plus], nbr[i, d_minus]
            if jp >= 0 and jm >= 0:
                rows += [i, i]
                cols += [jp, jm]
                vals += [0.5 / h, -0.5 / h]
            elif jp >= 0:
                jpp = nbr[jp, d_plus]
                if jpp >= 0:
                    rows += [i, i, i]
                    cols += [i, jp, jpp]
                    vals += [-1.5 / h, 2.0 / h, -0.5 / h]
                else:
                    rows += [i, i]
                    cols += [i, jp]
                    vals += [-1.0 / h, 1.0 / h]
            elif jm >= 0:
                jmm = nbr[jm, d_minus]
                if jmm >= 0:
                    rows += [i, i, i]
                    cols += [i, jm, jmm]
                    vals += [1.5 / h, -2.0 / h, 0.5 / h]
                else:
                    rows += [i, i]
                    cols += [i, jm]
                    vals += [1.0 / h, -1.0 / h]
        ops.append(sparse.csr_matrix((vals, (rows, cols)), shape=(n, n)))
    return ops


def _consistency_loop(fld):
    sym_max = eigvec_max = spectrum_max = trace_max = det_max = flip_max = 0.0
    for i in range(len(fld.lambda1)):
        grad = fld.result.grad[i]
        pt = TensorPoint(
            T=fld.T[:, :, i],
            lambda1=float(fld.lambda1[i]), lambda_rest=float(fld.lambda_rest[i]),
            p=float(fld.p[i]), jet=None)
        sym_max = max(sym_max, abs(pt.T[0, 1] - pt.T[1, 0]))
        spectrum_max = max(spectrum_max, spectrum_crosscheck(pt))
        det_c, trace_c = det_trace(pt)
        det_d, trace_d = det_trace_direct(pt)
        scale = max(1.0, abs(det_d))
        trace_max = max(trace_max, abs(trace_c - trace_d))
        det_max = max(det_max, abs(det_c - det_d) / scale)
        flip_max = max(flip_max, abs(det_c - (-1.0) * fld.det_convention_flip[i]) / scale)
        if pt.p > ORIGIN_EPS:
            tnorm = float(np.max(np.abs(pt.T)))
            r1 = pt.T @ grad - pt.lambda1 * grad
            perp = np.array([-grad[1], grad[0]])
            r2 = pt.T @ perp - pt.lambda_rest * perp
            for r in (r1, r2):
                eigvec_max = max(eigvec_max, float(np.linalg.norm(r)) / max(1e-300, tnorm * pt.p))
    return {"symmetry_max": sym_max, "eigenvector_residual_max": eigvec_max,
            "spectrum_crosscheck_max": spectrum_max, "trace_consistency_max": trace_max,
            "det_consistency_max_rel": det_max, "det_convention_flip_residual": flip_max,
            "min_abs_det": float(np.min(np.abs(fld.det))), "nodes_checked": len(fld.lambda1)}


class TestLoopReferences:
    def test_diff_ops_equal_loop(self, disc64, annulus64):
        for dom in (disc64, annulus64,
                    build_domain(make_shape("rectangle", [2.0, 1.0]), 1.0 / 16)):
            for op, ref in zip(interior_diff_ops(dom), _diff_ops_loop(dom)):
                assert np.array_equal(op.indptr, ref.indptr)
                assert np.array_equal(op.indices, ref.indices)
                assert np.array_equal(op.data, ref.data)

    def test_consistency_matches_loop(self, torsion_model, torsion_result, exp_model,
                                      exp_result, disc64, annulus_result, annulus64):
        # the whole-array code sums and takes norms in another order; the
        # maxima are rounding-level residuals of O(1) entries
        tol = 8 * np.finfo(float).eps
        for model, result, dom in [(torsion_model, torsion_result, disc64),
                                   (exp_model, exp_result, disc64),
                                   (torsion_model, annulus_result, annulus64)]:
            fld = assemble_field(model, result, dom)
            rep, ref = consistency_report(fld), _consistency_loop(fld)
            assert rep["nodes_checked"] == ref["nodes_checked"] == dom.n_interior
            for key in ref:
                assert abs(rep[key] - ref[key]) <= tol, key


def test_bounded_distance_keeps_location_class(torsion_model, torsion_result, exp_model,
                                               exp_result, disc64, annulus_result, annulus64):
    """dist stops at the deepest collar; the location class of the lambda1
    maximum, which reads dist <= 2h, is the one of the full distance."""
    for model, result, dom in [(torsion_model, torsion_result, disc64),
                               (exp_model, exp_result, disc64),
                               (torsion_model, annulus_result, annulus64)]:
        full, _ = cKDTree(dom.bpts).query(dom.xy)
        assert np.array_equal(dom.dist <= 2.0 * dom.h, full <= 2.0 * dom.h)
        unbounded = dataclasses.replace(dom, dist=full)
        assert (assemble_field(model, result, dom).sup_location_class
                == assemble_field(model, result, unbounded).sup_location_class)
