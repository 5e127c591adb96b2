"""Tensor field, closed-form spectrum and discrete divergence of a solution.

The tensor associated with a solution is ``T = (F_p/p) grad_u x grad_u -
F Id``: rank-one plus a multiple of the identity, hence symmetric with
eigenvalue ``p F_p - F`` along the gradient and ``-F`` on its orthogonal
complement.  The closed-form spectrum is primary; a direct 2x2 eigenvalue
solve at every node is the cross-check.  ``Div T`` is taken with the
domain's interior-only ``diff_ops``.  ``spectral_report`` gives the
``spectral`` report section and the tensor checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .checks import check
from .errors import UnconvergedError
from .lagrangian import ORIGIN_EPS, eval_jet

DEGENERACY_RTOL = 1e-10


def _eigvals_sym2(T):
    """Ascending eigenvalues of a symmetric 2x2 matrix, or of a stack of them
    given as a (2, 2, N) array."""
    mean = 0.5 * (T[0, 0] + T[1, 1])
    disc = np.hypot(0.5 * (T[0, 0] - T[1, 1]), T[0, 1])
    return np.array([mean - disc, mean + disc])


# ---------------------------------------------------------------------------
# whole-field evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralField:
    """One complete evaluation of a solved field, read by the tensor,
    p-function, identity and export layers.

    Interior quantities come from the jet at (|grad u|, u).  Boundary ones
    come from the jet at (|du/dnu|, 0): on the boundary u = 0 and
    grad u = (du/dnu) nu, so T nu = (g dnu^2 - F) nu there.
    """

    T: np.ndarray                     # (2, 2, n_int) stack [[T11, T12], [T12, T22]]
    direct_spectrum: np.ndarray       # (2, n_int) ascending eigenvalues of T, solved directly
    lambda1: np.ndarray
    lambda_rest: np.ndarray
    det: np.ndarray
    trace: np.ndarray
    det_convention_flip: np.ndarray   # lambda1 * (+F)^{n-1}: the other sign convention
    p: np.ndarray
    jet: object                       # interior jet at (|grad u|, u)
    phi: np.ndarray                   # Phi(u) = F(0, u) at interior nodes
    phi0: float                       # F(0, 0)
    boundary_jet: object              # jet at (|du/dnu|, 0)
    boundary_lambda1: np.ndarray
    boundary_lambda_rest: np.ndarray
    x0: tuple                         # pivot of the affine field X = x - x0
    X_dot_nu: np.ndarray              # <X, nu> per boundary sample
    boundary_flux: np.ndarray         # <X, T nu> per boundary sample
    pohozaev_density: np.ndarray      # <X, nu> (dnu^2/2 - Phi(0)) per boundary sample
    critical_set_idx: np.ndarray      # interior nodes with p <= p_crit_tol
    p_crit_tol: float
    sup_lambda1: float
    sup_location: tuple
    sup_location_class: str           # critical_set | boundary | interior_noncritical
    definiteness_class: str           # of T over interior nodes and boundary samples
    uniform_constant_C: float         # -max eigenvalue when negative definite, else None
    div_T: np.ndarray                 # (n_int, 2) discrete divergence
    div_T_sup_norm_core: float        # its sup norm away from the boundary collar
    model: object = field(repr=False)
    domain: object = field(repr=False)
    result: object = field(repr=False)


def assemble_field(model, result, domain, x0=None):
    """Evaluate a converged solution once.

    Builds the tensor, its closed-form and direct spectra and det/trace at
    every interior node, Phi(u), the boundary jet with lambda1 and the flux
    densities for the pivot ``x0`` (default: the shape center), the critical
    set, the location of the maximum of lambda1 over the closure, the
    definiteness class and the discrete divergence.
    """
    if not result.converged:
        raise UnconvergedError("tensor assembly requires a converged solution")
    p, u = result.p, result.u
    jet = eval_jet(model, p, u)
    coef = np.where(p > ORIGIN_EPS, jet.F_p / np.maximum(p, ORIGIN_EPS), 0.0)
    ux, uy = result.grad[:, 0], result.grad[:, 1]
    T12 = coef * ux * uy
    T = np.array([[coef * ux * ux - jet.F, T12], [T12, coef * uy * uy - jet.F]])
    lambda1 = np.where(p > ORIGIN_EPS, p * jet.F_p - jet.F, -jet.F)
    lambda_rest = -jet.F

    dnu = result.normal_derivative
    pb = np.abs(dnu)
    bjet = eval_jet(model, pb, np.zeros_like(pb))
    moving = pb > ORIGIN_EPS
    blambda1 = np.where(moving, pb * bjet.F_p - bjet.F, -bjet.F)
    blambda_rest = -bjet.F
    # g = F_p/p with its p -> 0 limit F_pp, as in divergence_coefficients
    g = np.where(moving, bjet.F_p / np.maximum(pb, ORIGIN_EPS), bjet.F_pp)
    phi0 = float(eval_jet(model, 0.0, 0.0).F)
    x0 = (domain.shape.cx, domain.shape.cy) if x0 is None else tuple(x0)
    X_dot_nu = ((domain.bpts[:, 0] - x0[0]) * domain.bnu[:, 0]
                + (domain.bpts[:, 1] - x0[1]) * domain.bnu[:, 1])

    # a node counts as critical below a grid-scaled gradient threshold
    p_tol = max(1e-6, 2.0 * domain.h * result.gradient_range[1])
    i_int, i_bnd = int(np.argmax(lambda1)), int(np.argmax(blambda1))
    if lambda1[i_int] >= blambda1[i_bnd]:
        sup = float(lambda1[i_int])
        location = (float(domain.xy[i_int, 0]), float(domain.xy[i_int, 1]))
        if p[i_int] <= p_tol:
            location_class = "critical_set"
        elif domain.dist[i_int] <= 2.0 * domain.h:
            # inside the cut collar a nodal maximum is indistinguishable
            # from a boundary one at grid resolution (same tolerance
            # philosophy as p_crit_tol)
            location_class = "boundary"
        else:
            location_class = "interior_noncritical"
    else:
        sup = float(blambda1[i_bnd])
        location = (float(domain.bpts[i_bnd, 0]), float(domain.bpts[i_bnd, 1]))
        location_class = "boundary"

    definiteness, constant = classify_definiteness(lambda1, lambda_rest,
                                                   blambda1, blambda_rest)
    div_T, div_norm = divergence_residual(domain, T)
    return SpectralField(
        T=T, direct_spectrum=_eigvals_sym2(T), lambda1=lambda1,
        lambda_rest=lambda_rest, det=lambda1 * lambda_rest,
        trace=lambda1 + lambda_rest, det_convention_flip=lambda1 * jet.F, p=p,
        jet=jet, phi=eval_jet(model, np.zeros_like(u), u).F, phi0=phi0,
        boundary_jet=bjet, boundary_lambda1=blambda1,
        boundary_lambda_rest=blambda_rest, x0=x0, X_dot_nu=X_dot_nu,
        boundary_flux=X_dot_nu * (g * dnu ** 2 - bjet.F),
        pohozaev_density=X_dot_nu * (0.5 * dnu ** 2 - phi0),
        critical_set_idx=np.nonzero(p <= p_tol)[0], p_crit_tol=p_tol,
        sup_lambda1=sup, sup_location=location, sup_location_class=location_class,
        definiteness_class=definiteness, uniform_constant_C=constant,
        div_T=div_T, div_T_sup_norm_core=div_norm,
        model=model, domain=domain, result=result)


def classify_definiteness(*eigenvalues):
    """The definiteness class of a tensor field whose eigenvalues, over every
    interior node and boundary sample, are the given arrays, and its uniform
    constant C (None unless the field is negative definite)."""
    eigs = np.concatenate(eigenvalues)
    scale = float(np.max(np.abs(eigs)))
    lo, hi = float(np.min(eigs)), float(np.max(eigs))
    if np.any(np.abs(eigs) <= DEGENERACY_RTOL * scale):
        return "degenerate", None
    if hi < 0.0:
        return "negative_definite", -hi
    if lo > 0.0:
        return "positive_definite", None
    return "indefinite", None


# ---------------------------------------------------------------------------
# discrete divergence
# ---------------------------------------------------------------------------

def divergence_residual(domain, T):
    """Row-wise discrete divergence of the (2, 2, n_int) tensor stack ``T``,
    by the domain's interior-only ``diff_ops``, and its sup norm away from
    the boundary collar of depth 2 h (the claim Div T = 0 is interior)."""
    Dx, Dy = domain.diff_ops
    div_x = Dx @ T[0, 0] + Dy @ T[0, 1]
    div_y = Dx @ T[0, 1] + Dy @ T[1, 1]
    core = domain.core_mask()
    residual = np.column_stack([div_x, div_y])
    norm = float(np.max(np.abs(residual[core]))) if core.any() else float("nan")
    return residual, norm


def consistency_report(fld):
    """Max deviations of the spectral algebra over every interior node.

    Checks on the full matrix at each node: symmetry, eigenvector
    residuals, closed-form vs direct spectrum, trace and det against the
    direct matrix computation, and the relation between the two determinant
    sign conventions (they differ by (-1)^(n-1)).
    """
    T = fld.T
    closed = np.sort(np.array([fld.lambda1, fld.lambda_rest]), axis=0)
    det_direct = T[0, 0] * T[1, 1] - T[0, 1] * T[1, 0]
    scale = np.maximum(1.0, np.abs(det_direct))
    # eigenvector residuals along grad u and its perpendicular, where p > 0
    grad = fld.result.grad.T
    perp = np.array([-grad[1], grad[0]])
    norm = np.maximum(1e-300, np.max(np.abs(T), axis=(0, 1)) * fld.p)
    eigvec = [np.hypot(*(np.einsum("ijn,jn->in", T, v) - lam * v)) / norm
              for v, lam in ((grad, fld.lambda1), (perp, fld.lambda_rest))]
    eigvec = np.where(fld.p > ORIGIN_EPS, np.maximum(*eigvec), 0.0)
    return {"symmetry_max": float(np.max(np.abs(T[0, 1] - T[1, 0]))),
            "eigenvector_residual_max": float(np.max(eigvec)),
            "spectrum_crosscheck_max": float(np.max(np.abs(fld.direct_spectrum - closed))),
            "trace_consistency_max": float(np.max(np.abs(fld.trace - (T[0, 0] + T[1, 1])))),
            "det_consistency_max_rel": float(np.max(np.abs(fld.det - det_direct) / scale)),
            "det_convention_flip_residual":
                float(np.max(np.abs(fld.det + fld.det_convention_flip) / scale)),
            "min_abs_det": float(np.min(np.abs(fld.det))),
            "nodes_checked": len(fld.lambda1)}


def spectral_report(fld):
    """The ``spectral`` report section of an evaluated solution and its
    tensor checks, as ``(section, checks)``."""
    cons = consistency_report(fld)
    section = {
        "definiteness_class": fld.definiteness_class,
        "uniform_constant_C": fld.uniform_constant_C,
        "sup_lambda1": fld.sup_lambda1,
        "sup_location": list(fld.sup_location),
        "sup_location_class": fld.sup_location_class,
        "div_T_sup_norm_core": fld.div_T_sup_norm_core,
        "consistency": cons,
    }
    return section, [
        check("tensor_symmetry", cons["symmetry_max"], 0.0),
        check("tensor_eigenvector_residual", cons["eigenvector_residual_max"], 1e-10),
        check("tensor_spectrum_crosscheck", cons["spectrum_crosscheck_max"], 1e-10),
        check("tensor_trace_consistency", cons["trace_consistency_max"], 1e-12),
        check("tensor_det_consistency", cons["det_consistency_max_rel"], 1e-10),
        check("det_convention_flip", cons["det_convention_flip_residual"], 1e-10)]
