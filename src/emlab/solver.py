"""Solvers for the optimality equation div(g(|grad u|^2, u) grad u) + h = 0.

The 2D path discretizes the divergence form conservatively on the embedded
grid (face-centered fluxes, cut-distance stencils at boundary-adjacent
nodes), warm-starts from the constant-coefficient problem and runs one
Jacobian-free Newton-GMRES loop (Knoll & Keyes, J. Comput. Phys. 193, 2004)
preconditioned by the warm start's LU (in a minimum-degree order on A + A^T,
Liu, ACM Trans. Math. Softw. 11, 1985), with an inexact-Newton forcing term
(Dembo, Eisenstat & Steihaug, SIAM J. Numer. Anal. 19, 1982).
Gradients come from the domain's ``grad_ops``; the boundary normal
derivative extrapolates them from three interpolated depths.
``solve_radial`` is an independent high-accuracy ODE oracle for radially
symmetric problems, including the 1D case n = 1.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy import sparse
from scipy.integrate import solve_ivp
from scipy.optimize import brentq
from scipy.sparse.linalg import LinearOperator, gmres, splu

from .errors import EllipticityError, EmlabError
from .geometry import _E, _N, _S, _W, interpolate_node_field
from .lagrangian import divergence_coefficients, eval_jet


@dataclass
class SolverConfig:
    residual_tol: float = 1e-8
    step_tol: float = 1e-10
    max_iterations: int = 200

    def __post_init__(self):
        if any(isinstance(v, float) and not math.isfinite(v)
               for v in (self.residual_tol, self.step_tol, self.max_iterations)):
            raise ValueError("tolerances and max_iterations must be finite")
        if self.residual_tol <= 0 or self.step_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")

    def as_dict(self):
        return asdict(self)


@dataclass
class SolveResult:
    """Solution field with gradients, convergence data and boundary traces."""

    u: np.ndarray                    # (n_int,)
    grad: np.ndarray                 # (n_int, 2)
    normal_derivative: np.ndarray    # (nb,) du/dnu at boundary samples
    residual_history: list
    converged: bool
    iterations: int
    solution_range: tuple            # (m, M) over the closure (boundary = 0)
    gradient_range: tuple            # (0, p_max)
    log: list = field(default_factory=list)
    #: discrete fields cannot certify the classical smoothness the theory
    #: assumes; analyses treat it as an assumption, not a verified fact
    regularity_note: str = "classical regularity assumed, not verified"

    @property
    def p(self):
        return np.hypot(self.grad[:, 0], self.grad[:, 1])


# ---------------------------------------------------------------------------
# discrete operators
# ---------------------------------------------------------------------------

def _face_conductances(model, domain, u):
    """Face conductances and the nodal |grad u|^2, from averaged neighbor states."""
    Gx, Gy = domain.grad_ops
    p2 = (Gx @ u) ** 2 + (Gy @ u) ** 2
    g_faces = []
    for d in range(4):
        nb = domain.nbr[:, d]
        has = nb >= 0
        s = np.where(has, 0.5 * (p2 + p2[nb]), p2)
        uf = np.where(has, 0.5 * (u + u[nb]), 0.5 * u)
        g, _ = divergence_coefficients(model, np.sqrt(np.maximum(s, 0.0)), uf)
        if np.any(g <= 0.0):
            k = int(np.argmax(g <= 0.0))
            raise EllipticityError(
                "non-positive diffusion coefficient at a face",
                witness={"node": [float(domain.xy[k, 0]), float(domain.xy[k, 1])],
                         "direction": ["+x", "-x", "+y", "-y"][d],
                         "p_face": float(np.sqrt(max(s[k], 0.0))),
                         "u_face": float(uf[k]), "g": float(g[k])})
        g_faces.append(g)
    return _conductances(domain, np.array(g_faces)), p2


def _conductances(domain, g):
    """Conductances c[d] = g[d]/(arm_d span), (4, n), of the faces with diffusion
    coefficients g: the flux stencil is (A u)_i = sum_d c[d]_i (u_d - u_i)."""
    span_x = 0.5 * (domain.arm[:, _E] + domain.arm[:, _W])
    span_y = 0.5 * (domain.arm[:, _N] + domain.arm[:, _S])
    return g / (domain.arm.T * np.array([span_x, span_x, span_y, span_y]))


def _assemble(domain, c):
    """Sparse operator A of the flux stencil with face conductances c."""
    n = domain.n_interior
    cols = np.column_stack([domain.nbr, np.arange(n)])
    vals = np.column_stack([c.T, -c.sum(axis=0)])
    rows, k = np.nonzero(cols >= 0)
    return sparse.csr_matrix((vals[rows, k], (rows, cols[rows, k])), shape=(n, n))


def el_residual(model, domain, u):
    """Pointwise discrete div(g grad u) + h at the interior nodes."""
    u = np.asarray(u, dtype=float)
    c, p2 = _face_conductances(model, domain, u)
    _, h_src = divergence_coefficients(model, np.sqrt(np.maximum(p2, 0.0)), u)
    u_nb = np.append(u, 0.0)[domain.nbr]  # a boundary neighbour (-1) reads 0
    # summed as the sorted CSR row of A sums them (from +0.0, in node-id order
    # S, W, self, E, N), so the residual keeps the bits of A @ u + h
    return (0.0 + c[_S] * u_nb[:, _S] + c[_W] * u_nb[:, _W] - c.sum(axis=0) * u
            + c[_E] * u_nb[:, _E] + c[_N] * u_nb[:, _N] + h_src)


def _normal_derivative(domain, grad):
    """du/dnu at boundary samples by extrapolation along -nu.

    Samples the interpolated nodal gradient at three equispaced depths, in
    one interpolation of all three rings of points, and extrapolates the
    normal component quadratically back to the boundary; the truncation is
    O(depth^3) against the third radial derivative, which matters on
    concave boundary pieces where it is large.
    """
    s = 1.5 * domain.h
    depths = np.array([s, 2.0 * s, 3.0 * s])[:, None, None]
    pts = (domain.bpts - depths * domain.bnu).reshape(-1, 2)
    g = interpolate_node_field(domain, grad, pts).reshape(3, domain.n_boundary, 2)
    q1, q2, q3 = g[..., 0] * domain.bnu[:, 0] + g[..., 1] * domain.bnu[:, 1]
    return 3.0 * q1 - 3.0 * q2 + q3


# ---------------------------------------------------------------------------
# nonlinear solve
# ---------------------------------------------------------------------------

#: inexact-Newton forcing term: GMRES stops at this fraction of |R|, which
#: keeps each step a few Krylov iterations yet Newton's rate near the root
GMRES_RTOL = 1e-4
#: GMRES iterations per restart cycle (scipy's default)
GMRES_RESTART = 20
#: restart cycles per Newton step; bounds the linear work where J is
#: singular, as when the problem has no solution
GMRES_MAX_RESTARTS = 10
#: a full restart cycle that leaves the preconditioned residual above this
#: fraction of its value after the previous full cycle has stalled, and ends
#: the Newton step: where J is singular, further cycles only repeat it
GMRES_STALL_FACTOR = 0.5
#: relative step of the finite-difference Jacobian-vector product
JV_REL_STEP = math.sqrt(np.finfo(float).eps)


def solve_euler_lagrange(model, domain, config=None):
    """Solve the optimality equation with u = 0 on the shape boundary.

    One Newton loop.  The LU of the constant-coefficient operator
    ``div(g(0, 0) grad .)`` gives the warm start, on which linear models
    have already converged; it is factorized in a minimum-degree order on
    ``A + A^T`` with diagonal pivots.  Each Newton step solves ``J d = -R``
    by GMRES, with ``J v`` a finite-difference product on ``el_residual``
    and the same LU as preconditioner (it is never refactorized), until
    ``GMRES_RTOL``, ``GMRES_MAX_RESTARTS`` or a stalled restart cycle, and is
    accepted by max-norm backtracking from omega = 1.  The loop stops on
    ``residual_tol``, on ``max_iterations``, when no halving lowers the
    residual, or when ``omega max|d| <= step_tol``; nonconvergence is
    reported, not raised.  Each iteration logs its residual, accepted omega
    (``damping``, 0 when none was) and GMRES iteration count.  A model is
    refused here only where g(0, 0) or a face coefficient is not positive;
    ``run_pipeline`` checks its convexity on ``PILOT_BOX`` before.
    """
    cfg = config or SolverConfig()
    n = domain.n_interior
    g0, h0 = divergence_coefficients(model, 0.0, 0.0)
    if g0 <= 0.0:
        raise EllipticityError("g(0, 0) is not positive",
                               witness={"p": 0.0, "q": 0.0, "g": g0})
    # with g0 > 0 the operator is an irreducibly diagonally dominant M-matrix,
    # which elimination with diagonal pivots keeps dominant; minimum degree on
    # A + A^T (the stencil is structurally symmetric) halves the default fill
    lu0 = splu(_assemble(domain, _conductances(domain, g0)).tocsc(),
               permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
               options={"SymmetricMode": True})
    precond = LinearOperator((n, n), matvec=lu0.solve)
    u = lu0.solve(np.full(n, -h0))

    R = el_residual(model, domain, u)
    res = float(np.max(np.abs(R)))
    history = [res]
    log = [{"iteration": 0, "residual": res, "damping": 0.0, "phase": "init",
            "linear_iterations": 0}]
    iterations = 0
    while res > cfg.residual_tol and iterations < cfg.max_iterations:
        iterations += 1
        step, linear_iterations = _newton_step(model, domain, u, R, precond)
        omega = 1.0
        for _ in range(5):
            u_try = u + omega * step
            R_try = el_residual(model, domain, u_try)
            r_try = float(np.max(np.abs(R_try)))
            if r_try < res:
                u, R, res = u_try, R_try, r_try
                break
            omega *= 0.5
        else:
            omega = 0.0
        history.append(res)
        log.append({"iteration": iterations, "residual": res, "damping": omega,
                    "phase": "newton", "linear_iterations": linear_iterations})
        if omega * float(np.max(np.abs(step))) <= cfg.step_tol:
            break

    return field_result(domain, u, residual_history=history,
                        converged=res <= cfg.residual_tol, iterations=iterations,
                        log=log)


class _Stalled(Exception):
    """A full GMRES restart cycle stalled; the argument is the iterate it
    reached."""


def _newton_step(model, domain, u, R, precond):
    """GMRES solution d of ``J d = -R`` at ``u``, with the number of GMRES
    iterations it took.  ``J v`` is the forward difference of
    ``el_residual`` along ``v``.  A full restart cycle that stalls (see
    ``GMRES_STALL_FACTOR``) ends the step at the iterate it reached."""
    scale = JV_REL_STEP * max(1.0, float(np.linalg.norm(u)))

    def jv(v):
        norm = float(np.linalg.norm(v))
        if norm == 0.0:
            return np.zeros_like(v)
        eps = scale / norm
        return (el_residual(model, domain, u + eps * v) - R) / eps

    products = cycles = cycle_start = 0
    floor = math.inf  # preconditioned residual after the last full cycle

    def product(v):
        nonlocal products
        products += 1
        return jv(v)

    def after_cycle(x):
        # a cycle's products are its iterations plus the J x of scipy's own
        # residual test at its end
        nonlocal cycles, cycle_start, floor
        full = products - cycle_start - 1 == GMRES_RESTART
        cycles, cycle_start = cycles + 1, products
        if full:
            res = float(np.linalg.norm(precond.matvec(-R - jv(x))))
            if res > GMRES_STALL_FACTOR * floor:
                raise _Stalled(x)
            floor = res

    n = len(u)
    try:  # with its dtype given, the operator makes no probing product
        step, _ = gmres(LinearOperator((n, n), matvec=product, dtype=float), -R,
                        rtol=GMRES_RTOL, atol=0.0, restart=GMRES_RESTART,
                        maxiter=GMRES_MAX_RESTARTS, M=precond, callback=after_cycle,
                        callback_type="x")
    except _Stalled as stop:
        step = stop.args[0]
    return step, products - cycles


def field_result(domain, u, **state):
    """SolveResult for the field ``u``: its gradient, the boundary normal
    derivative and the value and gradient ranges, plus the solver ``state``
    (residual history, convergence flag, iterations, ...)."""
    Gx, Gy = domain.grad_ops
    grad = np.column_stack([Gx @ u, Gy @ u])
    dnu = _normal_derivative(domain, grad)
    p = np.hypot(grad[:, 0], grad[:, 1])
    m = min(float(np.min(u)), 0.0)
    M = max(float(np.max(u)), 0.0)
    p_max = max(float(np.max(p)), float(np.max(np.abs(dnu))))
    return SolveResult(u=u, grad=grad, normal_derivative=dnu,
                       solution_range=(m, M), gradient_range=(0.0, p_max), **state)


# ---------------------------------------------------------------------------
# radial oracle
# ---------------------------------------------------------------------------

@dataclass
class RadialProfile:
    """High-resolution radial solution u(r) and its shooting parameter."""

    r: np.ndarray
    u: np.ndarray
    parameter: float

    def u_at(self, r):
        return np.interp(r, self.r, self.u)


#: flux inversion stops once a Newton or bisection step, or the bracket,
#: is below ``FLUX_XTOL + FLUX_RTOL * p`` (half of it for a step), which is
#: at least as tight as brentq at the same tolerances
FLUX_XTOL, FLUX_RTOL = 1e-14, 8.9e-16
FLUX_MAX_ITERATIONS = 200


def _invert_flux(model, w, q):
    """Solve F_p(p, q) = |w| for p >= 0; returns signed u' matching w.

    F_pp > 0 makes F_p increasing in p, so a safeguarded Newton iteration
    keeps a bracket [lo, hi] around the root and bisects whenever a step
    leaves it or F_pp vanishes.
    """
    w, q = float(w), float(q)
    t = abs(w)
    # F_p(0, q) above the flux is only possible for non-smooth origins;
    # treat those values as flat
    if t < 1e-300 or eval_jet(model, 0.0, q).F_p > t:
        return -0.0 if w < 0.0 else 0.0
    hi = max(t, 1e-6)
    jet = eval_jet(model, hi, q)
    while jet.F_p < t:
        hi *= 2.0
        if hi > 1e12:
            raise EmlabError("flux inversion failed: F_p stays below the flux")
        jet = eval_jet(model, hi, q)

    lo, x = 0.0, hi
    for _ in range(FLUX_MAX_ITERATIONS):
        res = jet.F_p - t
        if res == 0.0:
            break
        if res < 0.0:
            lo = x
        else:
            hi = x
        x_new = x - res / jet.F_pp if jet.F_pp else math.nan
        if not lo < x_new < hi:
            x_new = 0.5 * (lo + hi)
        delta = 0.5 * (FLUX_XTOL + FLUX_RTOL * x_new)
        done = abs(x_new - x) <= delta or hi - lo <= 2.0 * delta
        x = x_new
        if done:
            break
        jet = eval_jet(model, x, q)
    else:
        raise EmlabError("flux inversion failed to converge")
    return -x if w < 0.0 else x


def _radial_rhs(model, n):
    def rhs(r, y):
        u, w = y
        v = _invert_flux(model, w, u)
        jet = eval_jet(model, abs(v), u)
        dw = jet.F_q - ((n - 1) * w / r if n > 1 else 0.0)
        return [v, dw]
    return rhs


def _integrate(model, n, r0, r1, y0, dense=False):
    sol = solve_ivp(_radial_rhs(model, n), (r0, r1), y0, method="DOP853",
                    rtol=1e-10, atol=1e-12, dense_output=dense)
    if not sol.success:
        raise EmlabError(f"radial integration failed: {sol.message}")
    return sol


def _bracket(fn, x0, scale):
    """Deterministic sign-change bracket around x0 by geometric expansion."""
    f0 = fn(x0)
    if f0 == 0.0:
        return x0, x0
    step = scale
    for _ in range(80):
        lo, hi = x0 - step, x0 + step
        if fn(lo) * f0 < 0.0:
            return lo, x0
        if fn(hi) * f0 < 0.0:
            return x0, hi
        step *= 2.0
    raise EmlabError("radial shooting failed to bracket the boundary condition")


def solve_radial(model, radii, n=2, resolution=4096):
    """Shooting oracle for the radial problem (r^{n-1} g u')' = r^{n-1} F_q.

    ``radii = (0, R)`` solves with the symmetry condition u'(0) = 0;
    ``radii = (a, b)`` with a > 0 solves the two-point problem u(a) = u(b) = 0.
    The flux variable w = F_p(|u'|, u) sign(u') keeps the system regular
    even where g degenerates.
    """
    r_lo, r_hi = float(radii[0]), float(radii[1])
    if not 0.0 <= r_lo < r_hi:
        raise ValueError("need 0 <= inner radius < outer radius")

    r0 = r_lo if r_lo > 0.0 else (0.0 if n == 1 else 1e-8 * r_hi)

    def start(s):
        """(u, w) at r0 for the shooting parameter s: u(0) = s with the flux
        of the symmetric start on a disc, u(a) = 0 and w(a) = s on an annulus."""
        if r_lo > 0.0:
            return [0.0, s]
        return [s, eval_jet(model, 0.0, s).F_q * r0 / n]

    def boundary_miss(s):
        return _integrate(model, n, r0, r_hi, start(s)).y[0, -1]

    lo, hi = _bracket(boundary_miss, 0.0, 1.0)
    parameter = lo if lo == hi else brentq(boundary_miss, lo, hi, xtol=1e-12)
    sol = _integrate(model, n, r0, r_hi, start(parameter), dense=True)

    rs = np.linspace(r0, r_hi, resolution)
    us = sol.sol(rs)[0]
    # pin the endpoints to the boundary data they were shot against
    us[-1] = 0.0
    if r_lo > 0.0:
        us[0] = 0.0
    return RadialProfile(r=rs, u=us, parameter=parameter)
