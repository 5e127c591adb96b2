"""Solvers for the optimality equation div(g(|grad u|^2, u) grad u) + h = 0.

The 2D path discretizes the divergence form conservatively on the embedded
grid (face-centered fluxes, cut-distance stencils at boundary-adjacent
nodes) and iterates Picard with damping, then an optional damped Newton
polish.  ``solve_radial`` is an independent high-accuracy ODE oracle for
radially symmetric problems, including the 1D case n = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.integrate import solve_ivp
from scipy.optimize import brentq
from scipy.sparse.linalg import splu

from .errors import EllipticityError, EmlabError
from .geometry import interpolate_node_field
from .lagrangian import ORIGIN_EPS, check_hypotheses, divergence_coefficients, eval_jet

_E, _W, _N, _S = 0, 1, 2, 3


@dataclass
class SolverConfig:
    residual_tol: float = 1e-8
    step_tol: float = 1e-10
    max_iterations: int = 200
    damping: float = 0.7
    newton_polish: bool = True

    def __post_init__(self):
        if any(isinstance(v, float) and not math.isfinite(v)
               for v in (self.residual_tol, self.step_tol, self.max_iterations)):
            raise ValueError("tolerances and max_iterations must be finite")
        if self.residual_tol <= 0 or self.step_tol <= 0:
            raise ValueError("tolerances must be positive")
        if not 0.0 < self.damping <= 1.0:
            raise ValueError("damping must lie in (0, 1]")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")

    def as_dict(self):
        return {"residual_tol": self.residual_tol, "step_tol": self.step_tol,
                "max_iterations": self.max_iterations, "damping": self.damping,
                "newton_polish": self.newton_polish}


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
    model: object = None
    domain: object = None
    config: SolverConfig = None
    #: discrete fields cannot certify the classical smoothness the theory
    #: assumes; analyses treat it as an assumption, not a verified fact
    regularity_note: str = "classical regularity assumed, not verified"

    @property
    def p(self):
        return np.hypot(self.grad[:, 0], self.grad[:, 1])


# ---------------------------------------------------------------------------
# discrete operators
# ---------------------------------------------------------------------------

def gradient_operators(domain):
    """Sparse d/dx and d/dy over interior nodes.

    Centered where both neighbors are interior; one-sided second-order
    3-point stencils with the exact cut distance next to the boundary
    (boundary values are homogeneous, so they drop out of the matrix).
    """
    cached = getattr(domain, "_grad_ops", None)
    if cached is not None:
        return cached
    n = domain.n_interior
    ops = []
    for d_plus, d_minus in ((_E, _W), (_N, _S)):
        b = domain.arm[:, d_plus]
        a = domain.arm[:, d_minus]
        rows, cols, vals = [], [], []
        idx = np.arange(n)
        # f'(0) = -b/(a(a+b)) f(-a) + (b-a)/(ab) f(0) + a/(b(a+b)) f(b)
        rows.append(idx)
        cols.append(idx)
        vals.append((b - a) / (a * b))
        m = domain.nbr[:, d_plus] >= 0
        rows.append(idx[m])
        cols.append(domain.nbr[m, d_plus])
        vals.append((a / (b * (a + b)))[m])
        m = domain.nbr[:, d_minus] >= 0
        rows.append(idx[m])
        cols.append(domain.nbr[m, d_minus])
        vals.append((-b / (a * (a + b)))[m])
        ops.append(sparse.csr_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(n, n)))
    domain._grad_ops = tuple(ops)
    return domain._grad_ops


def _axis_spans(domain):
    span_x = 0.5 * (domain.arm[:, _E] + domain.arm[:, _W])
    span_y = 0.5 * (domain.arm[:, _N] + domain.arm[:, _S])
    return span_x, span_y


def _face_coefficients(model, domain, u):
    """Diffusion coefficient per face from averaged neighbor states."""
    Gx, Gy = gradient_operators(domain)
    p2 = (Gx @ u) ** 2 + (Gy @ u) ** 2
    g_faces, u_faces = [], []
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
        u_faces.append(uf)
    return g_faces, u_faces, p2


def _assemble(domain, g_faces):
    """Sparse operator A with (A u)_i = sum_d g_d (u_d - u_i)/(arm_d span)."""
    n = domain.n_interior
    span_x, span_y = _axis_spans(domain)
    idx = np.arange(n)
    rows, cols, vals = [], [], []
    diag = np.zeros(n)
    for d in range(4):
        span = span_x if d in (_E, _W) else span_y
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


def el_residual(model, domain, u):
    """Pointwise discrete div(g grad u) + h at the interior nodes."""
    u = np.asarray(u, dtype=float)
    g_faces, _, p2 = _face_coefficients(model, domain, u)
    A = _assemble(domain, g_faces)
    _, h_src = divergence_coefficients(model, np.sqrt(np.maximum(p2, 0.0)), u)
    return A @ u + h_src


def _normal_derivative(domain, grad):
    """du/dnu at boundary samples by extrapolation along -nu.

    Samples the interpolated nodal gradient at three equispaced depths and
    extrapolates the normal component quadratically back to the boundary;
    the truncation is O(depth^3) against the third radial derivative, which
    matters on concave boundary pieces where it is large.
    """
    s = 1.5 * domain.h
    q1 = _normal_component(domain, grad, s)
    q2 = _normal_component(domain, grad, 2.0 * s)
    q3 = _normal_component(domain, grad, 3.0 * s)
    return 3.0 * q1 - 3.0 * q2 + q3


def _normal_component(domain, grad, depth):
    pts = domain.bpts - depth * domain.bnu
    gx = interpolate_node_field(domain, grad[:, 0], pts)
    gy = interpolate_node_field(domain, grad[:, 1], pts)
    return gx * domain.bnu[:, 0] + gy * domain.bnu[:, 1]


# ---------------------------------------------------------------------------
# nonlinear solve
# ---------------------------------------------------------------------------

PILOT_BOX = ((0.0, 1.0), (-1.0, 1.0))


def solve_euler_lagrange(model, domain, config=None):
    """Solve the optimality equation with u = 0 on the shape boundary.

    Picard iteration with damping and residual backtracking, warm-started
    from the constant-coefficient problem, then a damped Newton polish on
    the value coupling.  Nonconvergence is reported, not raised.
    """
    cfg = config or SolverConfig()
    pilot = check_hypotheses(model, box=PILOT_BOX, samples=128)
    if not pilot.convexity_ok:
        raise EllipticityError(
            "model fails strict convexity on the pilot box",
            witness={"pilot_box": PILOT_BOX,
                     "witness": pilot.violation_witnesses.get("convexity")})

    n = domain.n_interior
    g0, h0 = divergence_coefficients(model, 0.0, 0.0)
    if g0 <= 0.0:
        raise EllipticityError("g(0, 0) is not positive",
                               witness={"p": 0.0, "q": 0.0, "g": g0})
    A0 = _assemble(domain, [np.full(n, g0)] * 4)
    u = splu(A0.tocsc()).solve(np.full(n, -h0))

    res = float(np.max(np.abs(el_residual(model, domain, u))))
    history = [res]
    log = [{"iteration": 0, "residual": res, "damping": 0.0, "phase": "init"}]
    converged = res <= cfg.residual_tol
    iterations = 0

    def try_step(u_cur, direction, res_cur, base_damping, phase, it):
        """Backtracking damped update; returns (u, res, accepted, damping)."""
        omega = base_damping
        for _ in range(5):
            u_try = u_cur + omega * direction
            r_try = float(np.max(np.abs(el_residual(model, domain, u_try))))
            if r_try < res_cur:
                log.append({"iteration": it, "residual": r_try,
                            "damping": omega, "phase": phase})
                return u_try, r_try, True, omega
            omega *= 0.5
        return u_cur, res_cur, False, omega

    # Picard: freeze coefficients, solve, relax
    while not converged and iterations < cfg.max_iterations:
        iterations += 1
        g_faces, _, p2 = _face_coefficients(model, domain, u)
        _, h_src = divergence_coefficients(model, np.sqrt(np.maximum(p2, 0.0)), u)
        A = _assemble(domain, g_faces)
        u_hat = splu(A.tocsc()).solve(-h_src)
        direction = u_hat - u
        u, res, accepted, omega = try_step(u, direction, res, cfg.damping,
                                           "picard", iterations)
        history.append(res)
        if not accepted:
            break
        converged = res <= cfg.residual_tol
        if omega * float(np.max(np.abs(direction))) <= cfg.step_tol:
            break

    if cfg.newton_polish and not converged:
        u, res, extra = _newton_polish(model, domain, u, res, cfg,
                                       history, log, iterations, try_step)
        iterations += extra
        converged = res <= cfg.residual_tol

    return field_result(model, domain, u, residual_history=history,
                        converged=converged, iterations=iterations, log=log,
                        config=cfg)


def field_result(model, domain, u, **state):
    """SolveResult for the field ``u``: its gradient, the boundary normal
    derivative and the value and gradient ranges, plus the solver ``state``
    (residual history, convergence flag, iterations, ...)."""
    Gx, Gy = gradient_operators(domain)
    grad = np.column_stack([Gx @ u, Gy @ u])
    dnu = _normal_derivative(domain, grad)
    p = np.hypot(grad[:, 0], grad[:, 1])
    m = min(float(np.min(u)), 0.0)
    M = max(float(np.max(u)), 0.0)
    p_max = max(float(np.max(p)), float(np.max(np.abs(dnu))))
    return SolveResult(u=u, grad=grad, normal_derivative=dnu,
                       solution_range=(m, M), gradient_range=(0.0, p_max),
                       model=model, domain=domain, **state)


def _newton_polish(model, domain, u, res, cfg, history, log, start_it, try_step):
    """Damped Newton on the value coupling (g_q and h_q terms); the gradient
    coupling stays frozen, which is exact for value-only nonlinearities."""
    n = domain.n_interior
    span_x, span_y = _axis_spans(domain)
    extra = 0
    while res > cfg.residual_tol and start_it + extra < cfg.max_iterations:
        extra += 1
        g_faces, u_faces, p2 = _face_coefficients(model, domain, u)
        p_nodes = np.sqrt(np.maximum(p2, 0.0))
        _, h_src = divergence_coefficients(model, p_nodes, u)
        A = _assemble(domain, g_faces)
        R = A @ u + h_src

        jet = eval_jet(model, p_nodes, u)
        J = A + sparse.diags(-jet.F_qq)
        rows, cols, vals = [], [], []
        idx = np.arange(n)
        for d in range(4):
            span = span_x if d in (_E, _W) else span_y
            nb = domain.nbr[:, d]
            has = nb >= 0
            uf = u_faces[d]
            pf = np.sqrt(np.maximum(
                np.where(has, 0.5 * (p2 + p2[np.where(has, nb, 0)]), p2), 0.0))
            face_jet = eval_jet(model, np.maximum(pf, ORIGIN_EPS), uf)
            g_q = face_jet.F_pq / np.maximum(pf, ORIGIN_EPS)
            u_d = np.where(has, u[np.where(has, nb, 0)], 0.0)
            Dd = g_q * (u_d - u) / (domain.arm[:, d] * span)
            rows.append(idx)
            cols.append(idx)
            vals.append(0.5 * Dd)
            rows.append(idx[has])
            cols.append(nb[has])
            vals.append(0.5 * Dd[has])
        J = J + sparse.csr_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(n, n))
        try:
            step = splu(J.tocsc()).solve(-R)
        except RuntimeError:
            break
        u, res, accepted, _ = try_step(u, step, res, 1.0, "newton", start_it + extra)
        history.append(res)
        if not accepted:
            break
    return u, res, extra


# ---------------------------------------------------------------------------
# radial oracle
# ---------------------------------------------------------------------------

@dataclass
class RadialProfile:
    """High-resolution radial solution u(r) with its derivative."""

    n: int
    r: np.ndarray
    u: np.ndarray
    du: np.ndarray
    parameter: float
    model: object = None

    def u_at(self, r):
        return np.interp(r, self.r, self.u)


#: flux inversion stops once a Newton or bisection step, or the bracket,
#: is below ``FLUX_XTOL + FLUX_RTOL * p`` (half of it for a step), which is
#: at least as tight as brentq at the same tolerances
FLUX_XTOL, FLUX_RTOL = 1e-14, 8.9e-16
FLUX_MAX_ITERATIONS = 200


def _flux_slope(model, p, q):
    """F_p and F_pp at (p, q) as arrays; a single value takes the scalar
    path of eval_jet."""
    jet = eval_jet(model, float(p[0]), float(q[0])) if p.size == 1 else eval_jet(model, p, q)
    return np.array(jet.F_p, ndmin=1), np.array(jet.F_pp, ndmin=1)


def _invert_flux(model, w, q):
    """Solve F_p(p, q) = |w| for p >= 0; returns signed u' matching w.

    Scalars in, scalar out; arrays in, array out.  F_pp > 0 makes F_p
    increasing in p, so a safeguarded Newton iteration keeps a bracket
    [lo, hi] around each root and bisects whenever a step leaves it.
    """
    w_arr, q_arr = np.broadcast_arrays(np.asarray(w, dtype=float),
                                       np.asarray(q, dtype=float))
    target = np.abs(w_arr).ravel()
    qv = q_arr.ravel()
    p = np.zeros(target.size)
    idx = np.nonzero(~(target < 1e-300))[0]
    if idx.size:
        f0, _ = _flux_slope(model, np.zeros(idx.size), qv[idx])
        # F_p(0, q) above the flux is only possible for non-smooth origins;
        # treat those values as flat
        idx = idx[~(f0 > target[idx])]
    t, qa = target[idx], qv[idx]

    hi = np.maximum(t, 1e-6)
    f, fp = _flux_slope(model, hi, qa)
    for _ in range(200):
        low = np.nonzero(f < t)[0]
        if not low.size:
            break
        hi[low] *= 2.0
        if np.any(hi[low] > 1e12):
            raise EmlabError("flux inversion failed: F_p stays below the flux")
        f[low], fp[low] = _flux_slope(model, hi[low], qa[low])

    lo = np.zeros(t.size)
    x = hi.copy()
    for _ in range(FLUX_MAX_ITERATIONS):
        if not idx.size:
            break
        res = f - t
        lo = np.where(res < 0.0, x, lo)
        hi = np.where(res > 0.0, x, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            x_new = x - res / fp
        x_new = np.where((x_new > lo) & (x_new < hi), x_new, 0.5 * (lo + hi))
        delta = 0.5 * (FLUX_XTOL + FLUX_RTOL * x_new)
        exact = res == 0.0
        done = exact | (np.abs(x_new - x) <= delta) | (hi - lo <= 2.0 * delta)
        p[idx[done]] = np.where(exact, x, x_new)[done]
        keep = ~done
        idx, t, qa = idx[keep], t[keep], qa[keep]
        lo, hi, x = lo[keep], hi[keep], x_new[keep]
        if idx.size:
            f, fp = _flux_slope(model, x, qa)
    if idx.size:
        raise EmlabError("flux inversion failed to converge")
    p = np.where(w_arr.ravel() < 0.0, -p, p).reshape(w_arr.shape)
    return float(p) if p.ndim == 0 else p


def _radial_rhs(model, n):
    def rhs(r, y):
        u, w = y
        v = _invert_flux(model, w, u)
        jet = eval_jet(model, abs(v), u)
        dw = jet.F_q - ((n - 1) * w / r if n > 1 else 0.0)
        return [v, dw]
    return rhs


def _integrate(model, n, r0, r1, y0, rtol, atol, dense=False):
    sol = solve_ivp(_radial_rhs(model, n), (r0, r1), y0, method="DOP853",
                    rtol=rtol, atol=atol, dense_output=dense)
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


def solve_radial(model, radii, n=2, resolution=4096, rtol=1e-10, atol=1e-12):
    """Shooting oracle for the radial problem (r^{n-1} g u')' = r^{n-1} F_q.

    ``radii = (0, R)`` solves with the symmetry condition u'(0) = 0;
    ``radii = (a, b)`` with a > 0 solves the two-point problem u(a) = u(b) = 0.
    The flux variable w = F_p(|u'|, u) sign(u') keeps the system regular
    even where g degenerates.
    """
    r_lo, r_hi = float(radii[0]), float(radii[1])
    if not 0.0 <= r_lo < r_hi:
        raise ValueError("need 0 <= inner radius < outer radius")

    if r_lo == 0.0:
        r0 = 0.0 if n == 1 else 1e-8 * r_hi

        def boundary_miss(alpha):
            w0 = eval_jet(model, 0.0, alpha).F_q * r0 / n
            return _integrate(model, n, r0, r_hi, [alpha, w0], rtol, atol).y[0, -1]

        lo, hi = _bracket(boundary_miss, 0.0, 1.0)
        alpha = lo if lo == hi else brentq(boundary_miss, lo, hi, xtol=1e-12)
        w0 = eval_jet(model, 0.0, alpha).F_q * r0 / n
        sol = _integrate(model, n, r0, r_hi, [alpha, w0], rtol, atol, dense=True)
        parameter = alpha
    else:
        r0 = r_lo

        def boundary_miss(w_a):
            return _integrate(model, n, r0, r_hi, [0.0, w_a], rtol, atol).y[0, -1]

        lo, hi = _bracket(boundary_miss, 0.0, 1.0)
        w_a = lo if lo == hi else brentq(boundary_miss, lo, hi, xtol=1e-12)
        sol = _integrate(model, n, r0, r_hi, [0.0, w_a], rtol, atol, dense=True)
        parameter = w_a

    rs = np.linspace(r0, r_hi, resolution)
    us, ws = sol.sol(rs)
    dus = _invert_flux(model, ws, us)
    # pin the endpoints to the boundary data they were shot against
    us[-1] = 0.0
    if r_lo > 0.0:
        us[0] = 0.0
    return RadialProfile(n=n, r=rs, u=us, du=dus, parameter=parameter, model=model)
