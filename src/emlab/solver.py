"""Solvers for the optimality equation div(g(|grad u|^2, u) grad u) + h = 0.

The 2D path discretizes the divergence form conservatively on the embedded
grid (face-centered fluxes, cut-distance stencils at boundary-adjacent
nodes), warm-starts from the constant-coefficient problem and runs one
Newton-Krylov loop (Knoll & Keyes, J. Comput. Phys. 193, 2004; Kelley,
*Solving Nonlinear Equations with Newton's Method*, SIAM 2003, ch. 3).  A
residual sweeps the second-order jet once per unique face, in three groups
(the faces between two interior nodes in x, those in y, and the faces to the
boundary), and once per node.  Each step multiplies by the exact Jacobian of
the discrete residual, built from the face and node data that the accepted
trial's residual sweep returned, inside a restarted GMRES (Saad & Schultz,
SIAM J. Sci. Stat. Comput. 7, 1986) whose sums run in numpy's pairwise
order, so no result depends on the BLAS thread count, and whose
Gram-Schmidt sweeps write their products into one work array.  GMRES,
which also solves the warm start, is right-preconditioned by one V-cycle
of an aggregation multigrid hierarchy on the constant-coefficient operator:
smoothed aggregation on its first ``MG_SMOOTHED_LEVELS`` levels and plain
aggregation below, so the coarse Galerkin operators stay sparse.  A
Newton step stops at an inexact-Newton forcing term (Dembo, Eisenstat &
Steihaug, SIAM J. Numer. Anal. 19, 1982) that tightens as the residual
falls.  Each level of the hierarchy restricts by the transpose view of its
prolongator, no copy, and its cycle runs in work arrays allocated once per
hierarchy; its coarsest level, of at most ``MG_COARSEST`` nodes, is
inverted densely by ``splu`` in numpy alone, so no solve loads
``scipy.linalg``.  Gradients come from the domain's ``grad_ops``; the
boundary normal derivative extrapolates them from three interpolated depths.
``solve_radial`` is an independent Chebyshev collocation oracle for radially
symmetric problems, including the 1D case n = 1.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field
from functools import partial

import numpy as np
from numpy.polynomial.chebyshev import chebval
from scipy import sparse
from scipy.sparse import _sparsetools

from .errors import EllipticityError, EmlabError
from .geometry import _E, _N, _S, _W, _stencil_matrix, interpolate_node_field
from .lagrangian import diffusion_coefficient, divergence_coefficients, eval_jet


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
    final_residual: float            # max |el_residual| at u
    converged: bool
    iterations: int
    solution_range: tuple            # (m, M) over the closure (boundary = 0)
    gradient_range: tuple            # (0, p_max)
    log: list = field(default_factory=list)
    #: wall times and counts of the linear algebra (``multigrid_setup_s``,
    #: of which ``coarse_inverse_s``, ``v_cycles`` and ``gmres_s``), which
    #: vary from run to run: timings.json carries them, not the report
    solve_parts: dict = field(default_factory=dict)
    #: discrete fields cannot certify the classical smoothness the theory
    #: assumes; analyses treat it as an assumption, not a verified fact
    regularity_note: str = "classical regularity assumed, not verified"

    @property
    def p(self):
        return np.hypot(self.grad[:, 0], self.grad[:, 1])


# ---------------------------------------------------------------------------
# discrete operators
# ---------------------------------------------------------------------------

def _face_groups(domain):
    """The unique faces in their three sweep groups, as ``(i, j, at)``: the
    faces from node i to its +x neighbour j, those to its +y neighbour j,
    and those from node i to the boundary (j None).  ``at`` indexes a (4, n)
    array by direction at the face's nodes: (+x, i) and (-x, j), (+y, i) and
    (-y, j), or (direction, i) for a face to the boundary."""
    nbr = domain.nbr
    for d, back in ((_E, _W), (_N, _S)):
        i = np.flatnonzero(nbr[:, d] >= 0)
        j = nbr[i, d]
        yield i, j, ((d, i), (back, j))
    i, d = np.divmod(np.flatnonzero(nbr < 0), nbr.shape[1])
    yield i, None, ((d, i),)


def _by_direction(groups, values, n):
    """The (4, n) array of per-face ``values``, one array per sweep group of
    ``groups`` (from ``_face_groups``): each face's value at both of its
    nodes."""
    out = np.empty((4, n))
    for (_, _, at), v in zip(groups, values):
        for ix in at:
            out[ix] = v
    return out


@dataclass
class _Linearization:
    """What ``_jacobian`` reads of a residual sweep at u: per sweep group of
    ``_face_groups``, the faces' g, ``dg/d(p^2)`` and ``F_pq/P``; at the
    nodes, ``h_q = -F_qq``, ``2 h_s = -F_pq/p`` and the gradient (ux, uy)."""

    g: tuple
    g_s: tuple
    g_q: tuple
    h_q: np.ndarray
    h_s2: np.ndarray
    ux: np.ndarray
    uy: np.ndarray


def _face_state(p2, u, i, j):
    """``(P, uf)`` of the faces from nodes ``i`` to nodes ``j``: P^2 and the
    face value are the means of ``p2`` and of ``u`` over the two nodes; a
    face to the boundary (``j`` None) takes the node's own ``p2`` and the
    boundary value u = 0."""
    if j is None:
        return np.sqrt(p2[i]), 0.5 * u[i]
    return np.sqrt(0.5 * (p2[i] + p2[j])), 0.5 * (u[i] + u[j])


def _face_coefficients(model, P, uf, linearize):
    """``(g,)`` of faces at the state (P, uf), and with ``linearize``
    ``(g, dg/d(p^2), F_pq/P)``, from one jet sweep; the jet goes on return,
    so no two groups' jets are held at once."""
    jet = eval_jet(model, P, uf)
    g = diffusion_coefficient(model, P, uf, jet)
    return (g, _g_s(P, jet), _pq_quotient(P, jet)) if linearize else (g,)


def _sweep(model, domain, u, linearize):
    """``(g, h, lin)`` at ``u``: the (4, n) face coefficients g by direction,
    h = -F_q at the nodes, and with ``linearize`` the ``_Linearization``,
    else None.  Each face is swept once, in its group of ``_face_groups``,
    at its ``_face_state``, and g = F_p/P is formed from that jet.  A
    non-positive g is refused with the witness of its first (direction,
    node), in the order of the (4, n) array."""
    Gx, Gy = domain.grad_ops
    ux, uy = Gx @ u, Gy @ u
    p2 = ux ** 2 + uy ** 2
    if not linearize:
        ux = uy = None
    faces = [_face_coefficients(model, *_face_state(p2, u, i, j), linearize)
             for i, j, _ in _face_groups(domain)]
    g = _by_direction(_face_groups(domain), [q[0] for q in faces], len(u))
    if not linearize:
        faces = None  # g holds them now; free them before the nodal jet's peak
    if np.any(g <= 0.0):
        d, i = divmod(int(np.argmax(g <= 0.0)), len(u))
        j = domain.nbr[i, d]
        P, uf = _face_state(p2, u, i, j if j >= 0 else None)
        raise EllipticityError(
            "non-positive diffusion coefficient at a face",
            witness={"node": [float(domain.xy[i, 0]), float(domain.xy[i, 1])],
                     "direction": ["+x", "-x", "+y", "-y"][d],
                     "p_face": float(P), "u_face": float(uf), "g": float(g[d, i])})
    p = np.sqrt(p2)
    jet = eval_jet(model, p, u)
    lin = (_Linearization(*zip(*faces), -jet.F_qq, -_pq_quotient(p, jet), ux, uy)
           if linearize else None)
    return g, -jet.F_q, lin


def _conductances(domain, g):
    """Conductances c[d] = g[d]/(arm_d span), (4, n), of the faces with diffusion
    coefficients g: the flux stencil is (A u)_i = sum_d c[d]_i (u_d - u_i)."""
    span_x = 0.5 * (domain.arm[:, _E] + domain.arm[:, _W])
    span_y = 0.5 * (domain.arm[:, _N] + domain.arm[:, _S])
    return g / (domain.arm.T * np.array([span_x, span_x, span_y, span_y]))


def _assemble(domain, c):
    """Sparse operator A of the flux stencil with face conductances c."""
    n, nbr = domain.n_interior, domain.nbr
    return _stencil_matrix(n, [(nbr[:, d] >= 0, nbr[:, d], c[d]) for d in range(4)]
                           + [(slice(None), np.arange(n), -c.sum(axis=0))])


def el_residual(model, domain, u, linearize=False):
    """Pointwise discrete div(g grad u) + h at the interior nodes; with
    ``linearize``, the pair of it and the ``_Linearization`` at ``u`` that
    ``_jacobian`` builds its product from (the Newton loop's trials)."""
    u = np.asarray(u, dtype=float)
    g, h_src, lin = _sweep(model, domain, u, linearize)
    c = _conductances(domain, g)
    u_nb = np.append(u, 0.0)[domain.nbr]  # a boundary neighbour (-1) reads 0
    # summed as the sorted CSR row of A sums them (from +0.0, in node-id order
    # S, W, self, E, N), so the residual keeps the bits of A @ u + h
    R = (0.0 + c[_S] * u_nb[:, _S] + c[_W] * u_nb[:, _W] - c.sum(axis=0) * u
         + c[_E] * u_nb[:, _E] + c[_N] * u_nb[:, _N] + h_src)
    return (R, lin) if linearize else R


#: below this |grad u| the Jacobian drops its terms with a 1/p quotient, the
#: derivatives of g = F_p/p in p^2 and in q and of h = -F_q in p^2:
#: (p F_pp - F_p)/p^3 keeps only about eps/p^2 of its digits, while the
#: dropped terms are O(p) against the flux stencil, so J is inexact only
#: where the field is nearly flat, which Newton-Krylov tolerates
JACOBIAN_P_CUT = 1e-4


def _g_s(p, jet):
    """``dg/d(p^2) = (p F_pp - F_p)/(2 p^3)`` from the jet at (p, q), with
    g = F_p/p; 0 where p <= JACOBIAN_P_CUT."""
    big = p > JACOBIAN_P_CUT
    pc = np.where(big, p, 1.0)
    with np.errstate(over="ignore"):  # a p^3 past the float range gives 0
        return np.where(big, (pc * jet.F_pp - jet.F_p) / (2.0 * pc ** 3), 0.0)


def _pq_quotient(p, jet):
    """``F_pq/p`` from the jet at (p, q); 0 where p <= JACOBIAN_P_CUT."""
    big = p > JACOBIAN_P_CUT
    with np.errstate(over="ignore"):  # as in _g_s, no warning reaches stderr
        return np.where(big, jet.F_pq / np.where(big, p, 1.0), 0.0)


def _jacobian(model, domain, u, lin=None):
    """The product ``v -> J v`` with the Jacobian of ``el_residual`` at ``u``.

    With ``R = sum_d c_d (u_d - u) + h`` and ``c_d = g(s_d, uf_d)/(arm_d span)``,
    ``J v = sum_d [c_d (v_d - v) + t_d (g_s ds_d + g_q duf_d)] + h_s dp2 + h_q v``,
    where ``t_d = (u_d - u)/(arm_d span)``, ``dp2 = 2 (Gx u Gx v + Gy u Gy v)``,
    ``ds_d`` and ``duf_d`` are the face states of ``dp2`` and ``v``, and
    ``g_s, g_q, h_s, h_q`` are the partials of g and h in p^2 and q.  The
    coefficients come from ``lin``, the ``_Linearization`` that
    ``el_residual`` returned at ``u``, so no jet is swept here; without it,
    from a sweep of their own.  They fold into a 5-point stencil on ``v`` and
    one on ``dp2 / 2``, which with the gradient are all the product keeps of
    ``lin``, so a product is two sparse products and a few whole-array
    operations.
    """
    if lin is None:
        lin = _sweep(model, domain, u, True)[2]
    groups, n = list(_face_groups(domain)), len(u)
    Gx, Gy = domain.grad_ops
    ux, uy = lin.ux, lin.uy
    # v enters through v_d (c_d and half of duf_d = (v + v_d)/2) and v
    # itself, dp2 through ds_d = (dp2 + dp2_d)/2, where a boundary face reads
    # v_d = 0 and dp2_d = dp2.  The factors are formed in place, each product
    # in the same bits: a build holds lin beside its own arrays, and every
    # (4, n) temporary fewer keeps the heap lower
    inv_span = _conductances(domain, 1.0)
    t = np.append(u, 0.0)[domain.nbr.T] - u
    t *= inv_span
    c = _by_direction(groups, lin.g, n)
    c *= inv_span
    half_b = 0.5 * t
    half_b *= _by_direction(groups, lin.g_q, n)
    a = _by_direction(groups, lin.g_s, n)
    a *= t
    a_self = a.copy()
    a_self[groups[2][2][0]] *= 2.0  # (direction, node) of the faces to the boundary
    e0, f0 = lin.h_q, lin.h_s2
    for d in range(4):
        e0 = e0 + half_b[d] - c[d]
        f0 = f0 + a_self[d]
    e = c  # c is read no more: e = c + half_b in its place
    e += half_b

    def product(v):
        half_dp2 = ux * (Gx @ v) + uy * (Gy @ v)
        return ((e * np.append(v, 0.0)[domain.nbr].T).sum(axis=0) + e0 * v
                + (a * np.append(half_dp2, 0.0)[domain.nbr].T).sum(axis=0)
                + f0 * half_dp2)
    return product


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

#: inexact-Newton forcing term of the first step, and the largest of any:
#: GMRES stops at this fraction of |R|
GMRES_RTOL = 1e-4
#: a later step's forcing term is FORCING_GAMMA rho^2, rho being the factor by
#: which the last step cut the residual (Eisenstat & Walker, SIAM J. Sci.
#: Comput. 17, 1996, choice 2), but at least 0.5 residual_tol/|R|, below
#: which a step only oversolves (Kelley, SIAM 1995, sec. 6.3)
FORCING_GAMMA = 0.9
#: GMRES iterations per restart cycle
GMRES_RESTART = 20
#: restart cycles per Newton step; bounds the linear work where J is
#: singular, as when the problem has no solution
GMRES_MAX_RESTARTS = 10
#: a full restart cycle that leaves the preconditioned residual above this
#: fraction of its value after the previous full cycle has stalled, and ends
#: the Newton step: where J is singular, further cycles only repeat it (at
#: 0.5 the V-cycle stalls the convergent curvature-3 annulus at h = 1/64)
GMRES_STALL_FACTOR = 0.7
#: GMRES stops the warm start at this fraction of |b|, where the solution
#: agrees with a direct solve to rounding
WARM_START_RTOL = 1e-12
#: a multigrid level of at most this many nodes is the coarsest, inverted
#: densely by ``splu``: its dense inverse costs O(MG_COARSEST^3) once per
#: solve and O(MG_COARSEST^2) per V-cycle
MG_COARSEST = 300
#: damping of the Jacobi step that smooths the tentative prolongator, and of
#: the V-cycle's Jacobi smoother, on the 5-point operator
MG_PROLONG_OMEGA, MG_SMOOTH_OMEGA = 2.0 / 3.0, 0.8
#: the first MG_SMOOTHED_LEVELS levels prolong by the smoothed prolongator,
#: whose Galerkin operators widen by about half a level (5, 12.9, 36.1, 89.8
#: nonzeros per row on the disc at h = 1/256); each level below prolongs by
#: the tentative one (plain aggregation), which keeps them at about 34 and
#: 18, and scales its coarse correction by MG_PLAIN_SCALE, the
#: over-correction plain aggregation needs (Braess, Computing 55, 1995)
MG_SMOOTHED_LEVELS, MG_PLAIN_SCALE = 3, 1.5


def splu(A):
    """The dense inverse array of the square sparse matrix ``A``: in-place
    Gauss-Jordan elimination with partial pivoting on the dense copy of
    ``A``, one whole-array rank-one update per pivot, and no BLAS or LAPACK
    call, so its bits do not depend on the thread count.  It serves
    ``_multigrid``'s coarsest level, which ``_v_cycle`` applies; the
    name is that of the scipy factorization it replaced, which the bench's
    ``solver.lu`` span and the tests that count coarse factorizations still
    patch.  A zero or non-finite pivot, or a non-finite inverse, is refused
    with ``EllipticityError``: its matrix is no usable elliptic operator."""
    M = A.toarray()
    n = len(M)
    perm = np.arange(n)
    pivots = np.empty(n)
    update = np.empty_like(M)
    with np.errstate(all="ignore"):  # a bad pivot is refused below, not warned
        for k in range(n):
            p = k + int(np.argmax(np.abs(M[k:, k])))
            if p != k:
                M[[k, p]] = M[[p, k]]
                perm[[k, p]] = perm[[p, k]]
            pivots[k] = M[k, k]
            M[k, k] = 1.0
            row = M[k] / pivots[k]
            col = M[:, k].copy()
            col[k] = 0.0
            M[:, k] = 0.0
            # every other row loses col[i] times the scaled pivot row; column
            # k, zeroed first, receives -col / pivot, its entry of the inverse
            M -= np.multiply(col[:, None], row, out=update)
            M[k] = row
    if not (np.all(np.isfinite(pivots) & (pivots != 0.0)) and np.all(np.isfinite(M))):
        raise EllipticityError("the coarsest multigrid operator has a zero or "
                               "non-finite pivot or inverse")
    # M is the inverse of A with its rows in the order perm, whose columns
    # are those of A^-1 in that order
    inv = np.empty_like(M)
    inv[:, perm] = M
    return inv


def _tentative_prolongator(index):
    """The tentative prolongator T of the lattice ``index`` (node ids, -1 off
    the domain), as CSR with one unit entry per row, and the coarse lattice:
    node ``(i, j)`` joins aggregate ``(i // 2, j // 2)``, and the aggregates
    are numbered in the coarse lattice's row-major order, as a sort of their
    keys would number them."""
    ii, jj = np.nonzero(index >= 0)
    ci, cj = ii // 2, jj // 2
    taken = np.zeros(((index.shape[0] + 1) // 2, (index.shape[1] + 1) // 2), dtype=bool)
    taken[ci, cj] = True
    coarse = np.full(taken.shape, -1)
    n, nc = len(ii), np.count_nonzero(taken)
    coarse[taken] = np.arange(nc)
    agg = np.empty(n, dtype=np.int32)
    agg[index[ii, jj]] = coarse[ci, cj]
    T = sparse.csr_matrix((np.ones(n), agg, np.arange(n + 1, dtype=np.int32)),
                          shape=(n, nc))
    return T, coarse


def _multigrid(A, index, parts=None):
    """One V(1,1)-cycle ``b -> x ~ A^-1 b`` of aggregation multigrid on the
    lattice ``index`` (node ids, -1 off the domain): node ``(i, j)`` joins
    aggregate ``(i // 2, j // 2)`` (``_tentative_prolongator``).  The first
    ``MG_SMOOTHED_LEVELS`` levels prolong by the tentative prolongator
    smoothed by one damped Jacobi step of ``A`` (smoothed aggregation;
    Vaněk, Mandel & Brezina, Computing 56, 1996), the levels below by the
    tentative one itself, with their coarse correction scaled by
    ``MG_PLAIN_SCALE`` (plain aggregation; Braess, Computing 55, 1995).
    Every coarse operator is the Galerkin product ``P^T A P`` of its own
    prolongator.  Each level smooths by one damped Jacobi sweep before and
    after its coarse correction, and the dense inverse of ``splu`` solves
    the first level of at most ``MG_COARSEST`` nodes (on a small grid,
    ``A`` itself).  A level holds ``(A, MG_SMOOTH_OMEGA D^-1, P, P^T,
    scale)``, its restriction ``P.T`` being scipy's transpose view over
    ``P``'s own arrays, not a copy, and then the work arrays its cycle
    writes: its iterate (None on the finest level, whose iterate each cycle
    returns afresh), its residual and the next level's right-hand side; the
    coarsest holds its inverse, a work array of the inverse's shape and its
    result (None where it is the finest).  The cycle is linear in ``b``, as ``_gmres`` needs.  An ``A``
    whose diagonal is too small to invert in floating point leaves
    non-finite coarse operators, which ``splu`` refuses with
    ``EllipticityError``.  With a dict ``parts``, the seconds of ``splu``
    go to its ``coarse_inverse_s``."""
    levels = []
    while A.shape[0] > MG_COARSEST:
        T, coarse = _tentative_prolongator(index)
        # the weights suit rho(D^-1 A) <= 2, which Gershgorin's bound (the top
        # row sum of |D^-1 A|) gives the 5-point operator; four coarsenings
        # down, the unscaled rho reaches 3.3, so they are scaled by 2/bound
        with np.errstate(all="ignore"):  # splu refuses what does not fit a float
            dinv = 1.0 / A.diagonal()
            dinv *= 2.0 / np.max(np.abs(dinv) * (abs(A) @ np.ones(A.shape[0])))
        if len(levels) < MG_SMOOTHED_LEVELS:
            P, scale = (T - MG_PROLONG_OMEGA * sparse.diags(dinv) @ (A @ T)).tocsr(), 1.0
        else:
            P, scale = T, MG_PLAIN_SCALE
        n, nc = P.shape
        levels.append((A, MG_SMOOTH_OMEGA * dinv, P, P.T, scale,
                       np.empty(n) if levels else None, np.empty(n), np.empty(nc)))
        # the Galerkin product reads a transient CSR copy of P^T: through the
        # view it took 1.5 times as long on the disc at h = 1/256
        A, index = (P.T.tocsr() @ (A @ P)).tocsr(), coarse
    t0 = time.perf_counter()
    inv = splu(A)
    if parts is not None:
        parts["coarse_inverse_s"] = time.perf_counter() - t0
    coarsest = (inv, np.empty_like(inv), np.empty(len(inv)) if levels else None)
    # a closure that called itself would be a reference cycle, keeping the
    # hierarchy in memory after the solve until a garbage collection
    return partial(_v_cycle, levels, coarsest)


def _matvec(M, v, out):
    """``out = M @ v`` for a CSR matrix or the CSC transpose view of one, by
    the scipy kernel that ``M @ v`` calls, which adds each row's products in
    order to a zero: the bits of ``M @ v`` without a fresh array.  ``out``
    must be a C-contiguous float array of its own: the kernel writes into
    a copy of any other, which it then drops."""
    out.fill(0.0)
    getattr(_sparsetools, M.format + "_matvec")(*M.shape, M.indptr, M.indices, M.data,
                                                 v, out)
    return out


def _v_cycle(levels, coarsest, b, k=0):
    """The V-cycle of ``_multigrid`` from level ``k`` down.  Each level
    computes in its own work arrays, by ``out=`` operations in the order of
    ``x = wdinv b; x += scale P cycle(P^T (b - A x)); x += wdinv (b - A x)``,
    and returns its iterate, which the level above reads before the next
    cycle writes it; the finest level's is allocated afresh, so an array
    that a call returns is the caller's.  The coarsest level's inverse is
    applied as a row sum in numpy's pairwise order: a BLAS product would
    split its sums by the thread count."""
    if k == len(levels):
        inv, work, out = coarsest
        return np.add.reduce(np.multiply(inv, b, out=work), axis=1, out=out)
    A, wdinv, P, Pt, scale, x, r, bc = levels[k]
    x = np.multiply(wdinv, b, out=x)
    np.subtract(b, _matvec(A, x, r), out=r)
    e = _v_cycle(levels, coarsest, _matvec(Pt, r, bc), k + 1)
    e *= scale  # exact where it is 1, on the smoothed levels
    x += _matvec(P, e, r)
    np.subtract(b, _matvec(A, x, r), out=r)
    r *= wdinv
    x += r
    return x


def solve_euler_lagrange(model, domain, config=None):
    """Solve the optimality equation with u = 0 on the shape boundary.

    One Newton loop.  ``_multigrid`` builds one hierarchy on the
    constant-coefficient operator ``A = div(g(0, 0) grad .)``, and its
    V-cycle preconditions every linear solve.  The warm start solves
    ``A u = -h(0, 0)`` by ``_gmres`` to ``WARM_START_RTOL``; linear models
    have converged there.  Each Newton step solves ``J d = -R`` by
    ``_gmres``, with ``J v`` the exact Jacobian product of ``_jacobian``,
    until the forcing term (``GMRES_RTOL``, then ``FORCING_GAMMA``),
    ``GMRES_MAX_RESTARTS`` or a stalled restart cycle, and is accepted by
    max-norm backtracking from omega = 1.  Each trial's ``el_residual`` also
    returns its ``_Linearization``: the accepted trial's builds the next
    step's Jacobian, which sweeps no jet, and a rejected trial's is dropped
    before the next trial.  The warm start's residual keeps none, so only
    the first step's Jacobian sweeps its own, and a linear model, which
    stops at the warm start, holds none.  The loop stops on
    ``residual_tol``, on ``max_iterations``, when no halving lowers the
    residual, or when ``omega max|d| <= step_tol``; nonconvergence is
    reported, not raised.  Each iteration, the warm start included, logs
    its residual, accepted omega (``damping``, 0 when none was) and its
    GMRES iterations, restart cycles and whether a stalled cycle ended
    them; the result's ``solve_parts`` holds the hierarchy's setup and
    coarse-inverse seconds, the V-cycles applied and the seconds inside
    GMRES, which ``run_pipeline`` puts in timings.json.  A model is refused
    here only where g(0, 0) or a face coefficient is not positive, or where
    g(0, 0) is too small or h(0, 0) too large for floating point (the
    coarsest multigrid level, the norm of the warm start's right-hand side
    or its |grad u|^2 overflows); ``run_pipeline`` checks its convexity on
    ``PILOT_BOX`` before.
    """
    cfg = config or SolverConfig()
    g0, h0 = divergence_coefficients(model, 0.0, 0.0)
    if g0 <= 0.0:
        raise EllipticityError("g(0, 0) is not positive",
                               witness={"p": 0.0, "q": 0.0, "g": g0})
    A0 = _assemble(domain, _conductances(domain, g0))
    parts = {"v_cycles": 0, "gmres_s": 0.0}

    def precond(v):
        parts["v_cycles"] += 1
        return cycle(v)

    def gmres(jv, b, rtol):
        t0 = time.perf_counter()
        x, stats = _gmres(jv, b, precond, rtol)
        parts["gmres_s"] += time.perf_counter() - t0
        return x, stats

    try:
        t0 = time.perf_counter()
        cycle = _multigrid(A0, domain.interior_index, parts)
        parts["multigrid_setup_s"] = time.perf_counter() - t0
        # u scales as h(0, 0)/g(0, 0): a tiny g(0, 0) overflows u or |grad u|^2
        with np.errstate(over="ignore", invalid="ignore"):
            u, stats = gmres(lambda v: A0 @ v, np.full(domain.n_interior, -h0),
                             WARM_START_RTOL)
            if not np.all(np.isfinite(sum((G @ u) ** 2 for G in domain.grad_ops))):
                raise EllipticityError("the warm start's |grad u|^2 overflows")
    except EllipticityError as exc:  # a g(0, 0) too small for floating point
        exc.witness = {"p": 0.0, "q": 0.0, "g": g0}
        raise

    # the warm start's residual keeps no linearization: a linear model stops
    # here, and the first step's Jacobian sweeps its own
    R, lin = el_residual(model, domain, u), None
    res = float(np.max(np.abs(R)))
    log = [{"iteration": 0, "residual": res, "damping": 0.0, "phase": "init", **stats}]
    iterations, eta = 0, GMRES_RTOL
    while res > cfg.residual_tol and iterations < cfg.max_iterations:
        iterations += 1
        # lin is released once the product is built, and the product once
        # GMRES returns, so neither is held beside GMRES's basis or a trial
        jv, lin = _jacobian(model, domain, u, lin), None
        step, stats = gmres(jv, -R, eta)
        jv = None
        omega = 1.0
        for _ in range(5):
            u_try = u + omega * step
            R_try, lin_try = el_residual(model, domain, u_try, linearize=True)
            r_try = float(np.max(np.abs(R_try)))
            if r_try < res:
                eta = min(GMRES_RTOL, max(FORCING_GAMMA * (r_try / res) ** 2,
                                          0.5 * cfg.residual_tol / r_try))
                u, R, res, lin = u_try, R_try, r_try, lin_try
                break
            omega *= 0.5
            lin_try = None  # a rejected trial's, before the next trial's sweep
        else:
            omega = 0.0
        lin_try = None  # the accepted trial's is held by lin alone
        log.append({"iteration": iterations, "residual": res, "damping": omega,
                    "phase": "newton", **stats})
        if omega * float(np.max(np.abs(step))) <= cfg.step_tol:
            break

    return field_result(domain, u, final_residual=res,
                        converged=res <= cfg.residual_tol, iterations=iterations,
                        log=log, solve_parts=parts)


def _dot(a, b, out=None):
    """``a . b`` summed in numpy's pairwise order, which, unlike a BLAS dot
    product, no thread count changes; the products go to ``out`` if given."""
    return float(np.add.reduce(np.multiply(a, b, out=out)))


def _norm(a, out=None):
    """The 2-norm of ``a``, summed as ``_dot`` sums."""
    return math.sqrt(_dot(a, a, out))


def _gmres(jv, b, precond, rtol=GMRES_RTOL):
    """Restarted GMRES for ``J x = b`` from x = 0, right-preconditioned by
    ``precond`` (an approximate inverse of J), with the statistics of the
    warm start's or the Newton step's log entry.

    Arnoldi with modified Gram-Schmidt, and Givens rotations that update the
    residual norm each iteration (Saad & Schultz, SIAM J. Sci. Stat. Comput.
    7, 1986; Kelley, *Solving Nonlinear Equations with Newton's Method*,
    SIAM 2003, ch. 3).  Every product of the Gram-Schmidt sweeps and of the
    sum ``V y`` goes to one work array of b's length, in the order and bits
    of fresh arrays.  A cycle stops at ``rtol |b|`` or after
    ``GMRES_RESTART`` iterations, then adds ``precond(V y)`` to x; a full
    cycle whose preconditioned residual ``|precond(b - J x)|`` is above
    ``GMRES_STALL_FACTOR`` times that of the previous full cycle has stalled
    and ends the solve.  ``b = 0`` gives x = 0 after no iteration, and a
    ``b`` whose 2-norm overflows is refused with ``EllipticityError``.  Every
    sum is ``_dot``'s, so the result has the same bits under any thread count.
    """
    m = GMRES_RESTART
    x, r = np.zeros_like(b), b
    tol = rtol * _norm(b)
    if tol == 0.0:  # b = 0, so x = 0
        return x, {"linear_iterations": 0, "restart_cycles": 0, "stalled": False}
    if tol == math.inf:  # the basis r/|b| would be 0
        raise EllipticityError("the right-hand side's 2-norm overflows")
    V = np.empty((m + 1, len(b)))  # the Arnoldi basis of a cycle
    work = np.empty(len(b))  # every product of the Gram-Schmidt sweeps
    floor = math.inf  # preconditioned residual after the last full cycle
    iterations = cycles = 0
    stalled = False
    while cycles < GMRES_MAX_RESTARTS:
        if cycles:  # the last cycle ran full length without converging
            r = b - jv(x)
            res = _norm(precond(r))
            if res > GMRES_STALL_FACTOR * floor:
                stalled = True
                break
            floor = res
        cycles += 1
        H = np.zeros((m, m))  # the rotated Hessenberg matrix, triangular
        cs, sn, g = np.zeros(m), np.zeros(m), np.zeros(m + 1)
        g[0] = _norm(r)
        V[0] = r / g[0]
        for k in range(m):
            w = jv(precond(V[k]))
            for i in range(k + 1):
                H[i, k] = _dot(w, V[i], work)
                w -= np.multiply(V[i], H[i, k], out=work)
            w_norm = _norm(w, work)
            for i in range(k):
                H[i, k], H[i + 1, k] = (cs[i] * H[i, k] + sn[i] * H[i + 1, k],
                                        cs[i] * H[i + 1, k] - sn[i] * H[i, k])
            rho = math.hypot(H[k, k], w_norm)
            cs[k], sn[k] = H[k, k] / rho, w_norm / rho
            H[k, k] = rho
            g[k], g[k + 1] = cs[k] * g[k], -sn[k] * g[k]
            iterations += 1
            done = abs(g[k + 1]) <= tol or w_norm == 0.0
            if done:
                break
            np.divide(w, w_norm, out=V[k + 1])
        y = np.zeros(k + 1)
        for i in range(k, -1, -1):
            y[i] = (g[i] - _dot(H[i, i + 1:k + 1], y[i + 1:])) / H[i, i]
        z = y[0] * V[0]
        for i in range(1, k + 1):
            z += np.multiply(V[i], y[i], out=work)
        x += precond(z)
        if done:
            break
    return x, {"linear_iterations": iterations, "restart_cycles": cycles,
               "stalled": stalled}


def field_result(domain, u, **state):
    """SolveResult for the field ``u``: its gradient, the boundary normal
    derivative and the value and gradient ranges, plus the solver ``state``
    (final residual, convergence flag, iterations, ...)."""
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

#: degree N of the radial oracle's Chebyshev interpolant on the Lobatto nodes
#: cos(pi j/N); odd, so that no node of a disc sits at r = 0
RADIAL_DEGREE = 63
#: Newton stops once a step's max-norm is at most RADIAL_STEP_TOL max(1, |u|)
RADIAL_STEP_TOL, RADIAL_MAX_STEPS = 1e-12, 50
#: a profile whose last 8 Chebyshev coefficients exceed this fraction of its
#: largest is unresolved, as where Newton stops with no solution (0.08 and up);
#: smooth profiles read 5e-15, and those with a kink from odd powers of p in F
#: where u' changes sign up to 1.5e-4, still within 4e-4 of u
RADIAL_TAIL_TOL = 1e-3


def _lobatto_operators(N):
    """The nodes ``x_j = cos(pi j/N)``, their differentiation matrix with the
    negative-sum diagonal (Trefethen, *Spectral Methods in MATLAB*, SIAM 2000,
    ch. 6), and the map from nodal values to Chebyshev coefficients,
    ``c_k = (2/N) w_k sum_j w_j u_j cos(pi j k/N)`` with w = 1/2 at both ends."""
    j = np.arange(N + 1)
    x, w = np.cos(np.pi * j / N), np.where(j % N == 0, 0.5, 1.0)
    c = (-1.0) ** j / w
    D = c[:, None] / c / (x[:, None] - x + np.eye(N + 1))
    np.fill_diagonal(D, 0.0)
    np.fill_diagonal(D, -D.sum(axis=1))
    return x, D, (2.0 / N) * w[:, None] * np.cos(np.pi * np.outer(j, j) / N) * w


_NODES, _DIFF, _TO_CHEB = _lobatto_operators(RADIAL_DEGREE)


@dataclass
class RadialProfile:
    """u and u' as the Chebyshev series ``coef[0]`` and ``coef[1]`` in
    t = (r - mid)/half, on [-R, R] for a disc and [a, b] for an annulus, and
    ``parameter``: u(0) on a disc, the flux F_p(|u'(a)|, 0) sign(u'(a)) on
    an annulus."""

    mid: float
    half: float
    coef: np.ndarray
    parameter: float

    def u_at(self, r):
        return chebval((np.asarray(r) - self.mid) / self.half, self.coef[0])

    def du_at(self, r):
        return chebval((np.asarray(r) - self.mid) / self.half, self.coef[1])


def solve_radial(model, radii, n=2):
    """Chebyshev collocation oracle for the radial problem
    ``(r^{n-1} Psi)' = r^{n-1} F_q`` with ``Psi = F_p(|u'|, u) sign(u')``.

    ``radii = (0, R)`` collocates the profile's even extension on [-R, R],
    which carries u'(0) = 0; ``radii = (a, b)`` with a > 0 collocates [a, b].
    Newton from u = 0 solves ``Psi' + (n - 1) Psi/x = F_q`` at the interior
    nodes and u = 0 at both ends, with ``u' = D u`` and the Jacobian
    ``(D + diag((n-1)/x)) (diag(F_pp) D + diag(F_pq s)) - diag(F_pq s) D - diag(F_qq)``,
    s = sign(u') (Trefethen, ch. 14; Boyd, *Chebyshev and Fourier Spectral
    Methods*, 2001).  u' is the series of ``D u``: differentiating u's series
    would scale its rounding by up to N^2.  Raises ``EmlabError`` where
    Newton does not converge or the profile is unresolved.
    """
    a, b = float(radii[0]), float(radii[1])
    if not 0.0 <= a < b:
        raise ValueError("need 0 <= inner radius < outer radius")
    mid, half = (0.5 * (a + b), 0.5 * (b - a)) if a > 0.0 else (0.0, b)
    x = mid + half * _NODES
    D = _DIFF / half
    curv = (n - 1) / x
    u = np.zeros(len(x))
    for _ in range(RADIAL_MAX_STEPS):
        du = D @ u
        s, jet = np.sign(du), eval_jet(model, np.abs(du), u)
        psi, F_pq_s = jet.F_p * s, jet.F_pq * s
        R = D @ psi + curv * psi - jet.F_q
        B = jet.F_pp[:, None] * D + np.diag(F_pq_s)
        J = D @ B + curv[:, None] * B - F_pq_s[:, None] * D - np.diag(jet.F_qq)
        ends = [0, RADIAL_DEGREE]  # x = mid + half and x = mid - half
        R[ends], J[ends] = u[ends], np.eye(len(x))[ends]
        try:
            step = np.linalg.solve(J, -R)
        except np.linalg.LinAlgError:
            raise EmlabError("radial collocation failed: singular Newton matrix") from None
        u = u + step
        if np.max(np.abs(step)) <= RADIAL_STEP_TOL * max(1.0, np.max(np.abs(u))):
            break
    else:
        raise EmlabError("radial collocation failed: Newton did not converge")
    du = D @ u
    coef = np.array([_TO_CHEB @ u, _TO_CHEB @ du])
    tail, top = np.max(np.abs(coef[0, -8:])), np.max(np.abs(coef[0]))
    if not (np.all(np.isfinite(coef)) and tail <= RADIAL_TAIL_TOL * top):
        raise EmlabError(f"radial collocation failed: unresolved profile, its last 8 "
                         f"Chebyshev coefficients reach {tail / top:.3g} of the largest")
    parameter = (float(chebval(0.0, coef[0])) if a == 0.0 else
                 float(eval_jet(model, abs(float(du[-1])), 0.0).F_p * np.sign(du[-1])))
    return RadialProfile(mid=mid, half=half, coef=coef, parameter=parameter)
