"""Integral identities equating volume functionals with boundary tensor flux.

Every converged solution satisfies ``div(T X) = Tr(T)`` for the affine field
``X = x - x0``, which integrates to a volume/boundary pair (the generalized
Rellich identity).  Trading the gradient term through the equation gives a
source-form variant, and the quadratic-gradient family specializes to the
classical Pohozaev identity.  Boundary tensor values are rebuilt from the
Dirichlet structure grad u = (du/dnu) nu rather than extrapolated.

Two printed-convention discrepancies are tracked explicitly: the source-form
volume integrand is implemented as ``-u F_q - n F`` (the chain rule gives the
minus sign; the plus-sign variant is reported alongside), and the specialized
boundary density is implemented as ``<X, nu> (dnu^2/2 - Phi(0))`` (the half
also often printed on the Phi(0) term is reported alongside).  The trivial
and closed-form oracles confirm the implemented signs.  ``run_identity_suite``
gives the ``identities`` report section and the residual checks.
"""

from __future__ import annotations

import numpy as np

from .checks import check
from .geometry import boundary_integral, volume_integral
from .pfunction import QUADRATIC_FAMILY

#: space dimension n of the identities
N_DIM = 2

#: the boundary term u <L_xi, nu> vanishes to this, u = 0 on the boundary
VANISHING_TERM_TOL = 1e-10


def verify_rellich_identity(fld):
    """Volume integral of (p F_p - n F) against the boundary flux <X, T nu>
    of an evaluated solution (pivot ``fld.x0``)."""
    jet = fld.jet
    volume = volume_integral(fld.domain, fld.p * jet.F_p - N_DIM * jet.F)
    boundary = boundary_integral(fld.domain, fld.boundary_flux)
    return volume, boundary, abs(volume - boundary)


def verify_rellich_source_form(fld):
    """Volume integral of (-u F_q - n F) against the same boundary flux.

    The boundary term u <L_xi, nu> vanishes identically for homogeneous
    Dirichlet data; it is still evaluated and returned as a consistency
    value alongside the plus-sign volume variant.
    """
    domain, u, jet = fld.domain, fld.result.u, fld.jet
    volume = volume_integral(domain, -u * jet.F_q - N_DIM * jet.F)
    volume_plus_sign = volume_integral(domain, u * jet.F_q - N_DIM * jet.F)

    # u = 0 at every boundary sample by the Dirichlet data
    u_boundary = np.zeros(domain.n_boundary)
    L_xi_dot_nu = fld.boundary_jet.F_p * np.sign(fld.result.normal_derivative)
    vanishing = boundary_integral(domain, u_boundary * L_xi_dot_nu)
    boundary = boundary_integral(domain, fld.boundary_flux) - vanishing
    return (volume, boundary, abs(volume - boundary),
            {"vanishing_boundary_term": vanishing,
             "volume_with_plus_sign": volume_plus_sign})


def verify_pohozaev_identity(fld):
    """Specialized identity for the family F = p^2/2 + Phi(q).

    ``int((2-n)/2 |grad u|^2 - n Phi(u)) = oint <X, nu> (dnu^2/2 - Phi(0))``.
    """
    if fld.model.name not in QUADRATIC_FAMILY:
        raise ValueError(f"model {fld.model.name!r} is not of the quadratic-gradient family")
    domain = fld.domain
    volume = volume_integral(domain, 0.5 * (2 - N_DIM) * fld.p ** 2 - N_DIM * fld.phi)

    dnu = fld.result.normal_derivative
    boundary = boundary_integral(domain, fld.pohozaev_density)
    boundary_halved = boundary_integral(domain, 0.5 * fld.X_dot_nu * (dnu ** 2 - fld.phi0))
    return (volume, boundary, abs(volume - boundary),
            {"boundary_with_halved_density": boundary_halved})


def nonexistence_obstruction(fld, pohozaev):
    """Sign diagnostic for the specialized identity on star-shaped domains.

    The star margin is the least <X, nu> over the boundary samples whose
    Pohozaev density the identity integrates (``fld.X_dot_nu``).  When it is
    >= 0 and Phi(0) < 0, each of those densities is non-negative; a volume
    side below -2e-2 is then flagged.  ``pohozaev`` is the result of
    ``verify_pohozaev_identity`` for the evaluated solution ``fld``, or None
    outside the quadratic-gradient family.  Pure diagnostic, no existence
    claim.
    """
    margin = float(np.min(fld.X_dot_nu))
    out = {"star_margin": margin, "phi0": fld.phi0,
           "applicable": margin >= 0.0, "obstruction_flag": False,
           "boundary_sign_guaranteed": int(margin >= 0.0 and fld.phi0 < 0.0)}
    if not out["applicable"]:
        out["note"] = "domain is not star-shaped about x0; obstruction inapplicable"
        return out
    if pohozaev is not None:
        out["volume_value"], out["boundary_value"] = pohozaev[:2]
        out["obstruction_flag"] = out["boundary_sign_guaranteed"] == 1 and pohozaev[0] < -2e-2
    return out


def run_identity_suite(fld):
    """The ``identities`` report section of an evaluated solution and its
    checks, as ``(section, checks)``: every identity pair (volume, boundary,
    residual) and the obstruction diagnostic, about its pivot ``fld.x0``."""
    rellich = verify_rellich_identity(fld)
    *source, extra = verify_rellich_source_form(fld)
    as_printed = {"source_volume_plus_sign": extra["volume_with_plus_sign"]}
    pohozaev = None
    if fld.model.name in QUADRATIC_FAMILY:
        pohozaev = verify_pohozaev_identity(fld)
        as_printed["pohozaev_boundary_halved"] = pohozaev[3]["boundary_with_halved_density"]
    obstruction = nonexistence_obstruction(fld, pohozaev)
    vanishing = extra["vanishing_boundary_term"]

    def pair(sides):
        return dict(zip(("volume", "boundary", "residual"), sides[:3]))

    section = {"rellich": pair(rellich), "rellich_source": pair(source),
               "pohozaev": pair(pohozaev or (None,) * 3), "x0": list(fld.x0),
               "star_margin": obstruction["star_margin"],
               "vanishing_boundary_term": vanishing,
               "as_printed": as_printed, "obstruction": obstruction}
    # 2e-2 down to h = 1/64, growing as h^2 on coarser grids
    tol = 2e-2 * max(1.0, (64.0 * fld.domain.h) ** 2)
    checks = [check("rellich_identity_residual", rellich[2], tol),
              check("rellich_source_residual", source[2], tol)]
    if pohozaev is not None:
        checks.append(check("pohozaev_identity_residual", pohozaev[2], tol))
    checks.append(check("vanishing_boundary_term", abs(vanishing), VANISHING_TERM_TOL))
    return section, checks
