"""Integral identities equating volume functionals with boundary tensor flux.

Every converged solution satisfies ``div(T X) = Tr(T)`` for the affine field
``X = x - x0``, which integrates to a volume/boundary pair (the generalized
Rellich identity).  Trading the gradient term through the equation gives a
source-form variant against the same boundary flux, and the
quadratic-gradient family specializes to the classical Pohozaev identity.
Boundary tensor values are rebuilt from the Dirichlet structure
grad u = (du/dnu) nu rather than extrapolated.  ``run_identity_suite``
builds every pair, with the star-shape obstruction diagnostic, straight from
one ``SpectralField``, integrating each boundary density once.

Two printed-convention discrepancies are tracked explicitly: the source-form
volume integrand is implemented as ``-u F_q - n F`` (the chain rule gives the
minus sign; the plus-sign variant is reported alongside), and the specialized
boundary density is implemented as ``<X, nu> (dnu^2/2 - Phi(0))`` (the half
also often printed on the Phi(0) term is reported alongside).  The trivial
and closed-form oracles confirm the implemented signs.
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


def _pair(volume, boundary):
    return {"volume": volume, "boundary": boundary, "residual": abs(volume - boundary)}


def run_identity_suite(fld):
    """The ``identities`` report section of an evaluated solution and its
    checks, as ``(section, checks)``, about its pivot ``fld.x0``.

    - Rellich: the volume integral of (p F_p - n F) against the boundary
      flux <X, T nu>.
    - Source form: the volume integral of (-u F_q - n F) against the same
      flux less the boundary term u <L_xi, nu>.  That term vanishes for
      homogeneous Dirichlet data; it is still evaluated and reported.
    - Pohozaev, for the family F = p^2/2 + Phi(q) only (None elsewhere):
      ``int((2-n)/2 |grad u|^2 - n Phi(u)) = oint <X, nu> (dnu^2/2 - Phi(0))``.
    - Obstruction: the star margin is the least <X, nu> over the boundary
      samples whose Pohozaev density the identity integrates.  When it is
      >= 0 and Phi(0) < 0, each of those densities is non-negative; a
      Pohozaev volume side below -2e-2 is then flagged.  Pure diagnostic,
      no existence claim.
    """
    domain, u, jet = fld.domain, fld.result.u, fld.jet
    dnu = fld.result.normal_derivative
    family = fld.model.name in QUADRATIC_FAMILY
    flux = boundary_integral(domain, fld.boundary_flux)
    rellich = _pair(volume_integral(domain, fld.p * jet.F_p - N_DIM * jet.F), flux)
    # u = 0 at every boundary sample by the Dirichlet data
    L_xi_dot_nu = fld.boundary_jet.F_p * np.sign(dnu)
    vanishing = boundary_integral(domain, np.zeros(domain.n_boundary) * L_xi_dot_nu)
    source = _pair(volume_integral(domain, -u * jet.F_q - N_DIM * jet.F), flux - vanishing)
    as_printed = {"source_volume_plus_sign":
                  volume_integral(domain, u * jet.F_q - N_DIM * jet.F)}
    pohozaev = dict.fromkeys(("volume", "boundary", "residual"))
    if family:
        pohozaev = _pair(
            volume_integral(domain, 0.5 * (2 - N_DIM) * fld.p ** 2 - N_DIM * fld.phi),
            boundary_integral(domain, fld.pohozaev_density))
        as_printed["pohozaev_boundary_halved"] = boundary_integral(
            domain, 0.5 * fld.X_dot_nu * (dnu ** 2 - fld.phi0))

    margin = float(np.min(fld.X_dot_nu))
    applicable = margin >= 0.0
    guaranteed = int(applicable and fld.phi0 < 0.0)
    obstruction = {"star_margin": margin, "phi0": fld.phi0, "applicable": applicable,
                   "obstruction_flag": False, "boundary_sign_guaranteed": guaranteed}
    if not applicable:
        obstruction["note"] = "domain is not star-shaped about x0; obstruction inapplicable"
    elif family:
        obstruction["volume_value"] = pohozaev["volume"]
        obstruction["boundary_value"] = pohozaev["boundary"]
        obstruction["obstruction_flag"] = guaranteed == 1 and pohozaev["volume"] < -2e-2

    section = {"rellich": rellich, "rellich_source": source, "pohozaev": pohozaev,
               "x0": list(fld.x0), "star_margin": margin,
               "vanishing_boundary_term": vanishing,
               "as_printed": as_printed, "obstruction": obstruction}
    # 2e-2 down to h = 1/64, growing as h^2 on coarser grids
    tol = 2e-2 * max(1.0, (64.0 * fld.domain.h) ** 2)
    checks = [check("rellich_identity_residual", rellich["residual"], tol),
              check("rellich_source_residual", source["residual"], tol)]
    if family:
        checks.append(check("pohozaev_identity_residual", pohozaev["residual"], tol))
    checks.append(check("vanishing_boundary_term", abs(vanishing), VANISHING_TERM_TOL))
    return section, checks
