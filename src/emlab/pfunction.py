"""The scalar maximum-principle diagnostic lambda1 = p F_p - F along a solution.

This is the eigenvalue of the associated tensor in the gradient direction,
evaluated at (|grad u|, u) in the interior and at (|du/dnu|, 0) on the
boundary.  Its maximum must sit on the critical set of u or on the boundary;
an interior non-critical maximum is a red-alert invariant violation.
``pfunction_report`` gives the ``pfunction`` report section and its checks.
"""

from __future__ import annotations

import numpy as np

from .checks import check
from .lagrangian import _box_samples, eval_jet, pfunction_identity_residual

#: models of the quadratic-gradient family F = p^2/2 + Phi(q)
QUADRATIC_FAMILY = {"dirichlet_affine", "dirichlet_exponential", "dirichlet_power"}

#: the compatibility identity holds where its residual stays strictly below this
IDENTITY_RESIDUAL_TOL = 1e-11

#: tolerance of the nodewise eigenvalue and family bounds
GRADIENT_BOUND_TOL = 1e-6

#: how far the sup of lambda1 may exceed its two-branch formula, and the
#: least tolerance of the critical-branch equality
SUP_FORMULA_TOL = 5e-3

#: lambda1 against the nearer eigenvalue of the tensor's direct 2x2 solve
EIGENVALUE_MATCH_TOL = 1e-12


def locate_max(fld):
    """The core of the ``pfunction`` report section of an evaluated
    solution: the maximum of lambda1 over the closure and its location class.

    Also evaluates both branches of the sup formula: the critical branch
    ``-min over the critical set of F(0, u)`` (None on an empty critical
    set) and the boundary branch ``max over the boundary of p F_p(p, 0) -
    F(p, 0)``.
    """
    crit = fld.critical_set_idx
    empty = len(crit) == 0
    return {
        "sup_value": fld.sup_lambda1,
        "argmax": list(fld.sup_location),
        "location_class": fld.sup_location_class,
        "critical_set_size": len(crit),
        "critical_set_empty": empty,
        "critical_formula_value": None if empty else float(-np.min(fld.phi[crit])),
        "boundary_formula_value": float(np.max(fld.boundary_lambda1)),
        "H_min": float(np.min(fld.domain.bH)),
        "p_crit_tol": fld.p_crit_tol,
        "checks": {"critical_set_flagged_empty": empty},
    }


def gradient_bound_check(fld, located):
    """Check lambda1 <= -min F(0, u) over the critical set, nodewise.

    ``located`` is the ``locate_max`` section of the same field.  For the
    quadratic-gradient family additionally checks the pointwise bound
    p^2/2 <= Phi(u) - Phi(m).  The eigenvalue bound is only asserted when the
    boundary curvature is non-negative or the maximum sits on the critical
    set; otherwise the margins are reported unasserted.  Without a
    critical-set node the bound has no right-hand side and is not evaluated.
    """
    bound = located["critical_formula_value"]
    if bound is None:
        return {"applicable": False, "note": "critical set empty at this resolution"}
    applicable = located["H_min"] >= 0.0 or located["location_class"] == "critical_set"
    worst = float(np.min(bound - np.concatenate([fld.lambda1, fld.boundary_lambda1])))

    family_worst = None
    if fld.model.name in QUADRATIC_FAMILY:
        m = fld.result.solution_range[0]
        phi_m = float(eval_jet(fld.model, 0.0, m).F)
        family_worst = float(np.min((fld.phi - phi_m) - 0.5 * fld.p ** 2))

    ok = (not applicable) or (worst >= -GRADIENT_BOUND_TOL and (
        family_worst is None or family_worst >= -GRADIENT_BOUND_TOL))
    return {"applicable": applicable, "worst_margin": worst,
            "family_margin": family_worst, "bound": bound, "ok": bool(ok),
            "tolerance": GRADIENT_BOUND_TOL}


def check_max_principle_conditions(fld):
    """Evaluate the maximum-principle prerequisites on the realized range.

    At 1000 Halton samples over the solution's (p, q) range inflated by
    10%: the ellipticity minimum (min F_pp, whose positivity also makes the
    candidate increasing in p^2 since its p^2-derivative is F_pp/2), and the
    compatibility identity residual maximum.
    """
    model, result = fld.model, fld.result
    p_max = result.gradient_range[1]
    m, M = result.solution_range
    half = 0.5 * (M - m)
    q_lo, q_hi = m - 0.2 * half - 1e-12, M + 0.2 * half + 1e-12
    box = ((max(1e-6, 1e-3 * p_max), 1.1 * max(p_max, 1e-6)), (q_lo, q_hi))
    pts = _box_samples(box, 1000)
    p, q = pts[:, 0], pts[:, 1]
    jet = eval_jet(model, p, q)
    res = pfunction_identity_residual(p, jet)
    min_fpp = float(np.min(jet.F_pp))
    i_min = int(np.argmin(jet.F_pp))
    out = {
        "box": [list(box[0]), list(box[1])],
        "min_F_pp": min_fpp,
        "min_candidate_p2_derivative": 0.5 * min_fpp,
        "identity_residual_max": float(np.max(res)),
        "ellipticity_ok": min_fpp > 0.0,
        "identity_ok": float(np.max(res)) < IDENTITY_RESIDUAL_TOL,
    }
    if min_fpp <= 0.0:
        out["ellipticity_witness"] = [float(pts[i_min, 0]), float(pts[i_min, 1]), min_fpp]
    return out


def pfunction_report(fld):
    """The ``pfunction`` report section of an evaluated solution and its
    checks, as ``(section, checks)``."""
    section = locate_max(fld)
    sup, location = section["sup_value"], section["location_class"]
    two_branch = max(v for v in (section["boundary_formula_value"],
                                 section["critical_formula_value"]) if v is not None)
    checks = [check("lambda1_location_class", location, None,
                    location != "interior_noncritical"),
              check("lambda1_two_branch_bound", sup - two_branch, SUP_FORMULA_TOL,
                    sup <= two_branch + SUP_FORMULA_TOL)]
    if section["H_min"] >= 0.0 and not section["critical_set_empty"]:
        # within the variation of lambda1 over two grid spacings
        Dx, Dy = fld.domain.diff_ops
        lip = float(np.max(np.hypot(Dx @ fld.lambda1, Dy @ fld.lambda1)))
        checks.append(check("lambda1_critical_branch_equality",
                            abs(sup - section["critical_formula_value"]),
                            max(SUP_FORMULA_TOL, 2.0 * fld.domain.h * lip)))
    agreement = float(np.max(np.min(np.abs(fld.direct_spectrum - fld.lambda1), axis=0)))
    checks.append(check("lambda1_matches_tensor_eigenvalue", agreement,
                        EIGENVALUE_MATCH_TOL))
    gb = gradient_bound_check(fld, section)
    if not section["critical_set_empty"]:
        checks.append(check("gradient_bound_margin", gb["worst_margin"],
                            -GRADIENT_BOUND_TOL, gb["ok"], gate=gb["applicable"]))
    mpc = check_max_principle_conditions(fld)
    checks.append(check("compatibility_identity_residual", mpc["identity_residual_max"],
                        IDENTITY_RESIDUAL_TOL, mpc["identity_ok"]))
    section["gradient_bound"] = gb
    section["max_principle_conditions"] = mpc
    return section, checks
