"""Analytic 2D shapes with embedded Cartesian grids.

Nodes are classified by the exact sign of the shape's implicit description;
boundary-adjacent nodes store cut distances along grid axes, bisected to the
last bit on that same description.  Volume quadrature uses per-cell clipped
areas (chord polygons, subsample fallback), boundary quadrature uses
analytic arc-length weights at midpoint samples.  The domain also owns the
grid's sparse difference operators, built at first use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from functools import cached_property

import numpy as np

from .csr import CSR
from .errors import DegenerateGridError

# direction order used throughout: +x, -x, +y, -y
DIRS = np.array([[1, 0], [-1, 0], [0, 1], [0, -1]])
#: indices of the directions in DIRS, the columns of ``nbr`` and ``arm``
_E, _W, _N, _S = 0, 1, 2, 3

#: nodes closer than this fraction of h to the boundary along a grid axis
#: are exterior, so that no stencil gets an arm of about 1e-16 h from a node
#: that sits on the boundary up to rounding
ON_BOUNDARY_TOL = 1e-13

#: deepest boundary collar, in grid spacings, that any analysis compares
#: ``DiscreteDomain.dist`` against; the distance query stops there
MAX_COLLAR_DEPTH = 2.0


# ---------------------------------------------------------------------------
# shapes
# ---------------------------------------------------------------------------

class Shape:
    """Common interface: exact inside tests, boundary samples and the
    curvature of the sagitta correction.  Cut distances, and the cut-cell
    areas of curved shapes, are bisected on ``inside``."""

    kind = "shape"
    smooth_boundary = True

    def inside(self, x, y):
        raise NotImplementedError

    def extent(self):
        """Half-extents (ex, ey) of the bounding box around the center."""
        raise NotImplementedError

    def perimeter(self):
        raise NotImplementedError

    def boundary_components(self):
        """List of (length, sampler) pairs; sampler(n) -> (pts, nu, H, w)."""
        raise NotImplementedError

    def curvature_at(self, x, y):
        """Signed curvature of the boundary piece closest to each point of
        the arrays x, y, for the chord-sagitta correction of the cut-cell
        areas (a shape with exact ``cell_areas`` needs none)."""
        raise NotImplementedError


def _circle(cx, cy, R, sign):
    """Boundary sampler of the circle of radius R about (cx, cy); with sign
    -1 the outward normal points into the circle, where the domain is
    concave."""
    def sampler(n):
        theta = (np.arange(n) + 0.5) * (2.0 * math.pi / n)
        radial = np.column_stack([np.cos(theta), np.sin(theta)])
        pts = np.column_stack([cx + R * radial[:, 0], cy + R * radial[:, 1]])
        return pts, sign * radial, np.full(n, sign / R), np.full(n, 2.0 * math.pi * R / n)
    return sampler


def _hypot(x, y):
    """``math.hypot`` over arrays: ``np.hypot`` rounds some values
    differently, and the cut-cell areas keep the bits of the scalar one."""
    return np.frompyfunc(math.hypot, 2, 1)(x, y).astype(float)


class Disc(Shape):
    kind = "disc"

    def __init__(self, radius, center=(0.0, 0.0)):
        if radius <= 0:
            raise ValueError("disc radius must be positive")
        self.R = float(radius)
        self.cx, self.cy = float(center[0]), float(center[1])

    def inside(self, x, y):
        return (np.asarray(x) - self.cx) ** 2 + (np.asarray(y) - self.cy) ** 2 < self.R ** 2

    def extent(self):
        return self.R, self.R

    def perimeter(self):
        return 2.0 * math.pi * self.R

    def boundary_components(self):
        return [(self.perimeter(), _circle(self.cx, self.cy, self.R, 1.0))]

    def curvature_at(self, x, y):
        return np.full(np.shape(x), 1.0 / self.R)


class Annulus(Shape):
    kind = "annulus"

    def __init__(self, inner, outer, center=(0.0, 0.0)):
        if not 0 < inner < outer:
            raise ValueError("annulus needs 0 < inner < outer")
        self.a, self.b = float(inner), float(outer)
        self.cx, self.cy = float(center[0]), float(center[1])

    def inside(self, x, y):
        r2 = (np.asarray(x) - self.cx) ** 2 + (np.asarray(y) - self.cy) ** 2
        return (r2 > self.a ** 2) & (r2 < self.b ** 2)

    def extent(self):
        return self.b, self.b

    def perimeter(self):
        return 2.0 * math.pi * (self.a + self.b)

    def boundary_components(self):
        return [(2.0 * math.pi * self.b, _circle(self.cx, self.cy, self.b, 1.0)),
                (2.0 * math.pi * self.a, _circle(self.cx, self.cy, self.a, -1.0))]

    def curvature_at(self, x, y):
        r = _hypot(np.asarray(x) - self.cx, np.asarray(y) - self.cy)
        return np.where(np.abs(r - self.b) < np.abs(r - self.a), 1.0 / self.b, -1.0 / self.a)


class Ellipse(Shape):
    kind = "ellipse"

    def __init__(self, semi_x, semi_y, center=(0.0, 0.0)):
        if semi_x <= 0 or semi_y <= 0:
            raise ValueError("ellipse semi-axes must be positive")
        self.A, self.B = float(semi_x), float(semi_y)
        self.cx, self.cy = float(center[0]), float(center[1])

    def inside(self, x, y):
        return (((np.asarray(x) - self.cx) / self.A) ** 2
                + ((np.asarray(y) - self.cy) / self.B) ** 2) < 1.0

    def extent(self):
        return self.A, self.B

    def perimeter(self):
        return _ellipse_perimeter(self.A, self.B)

    def boundary_components(self):
        def sampler(n):
            theta = (np.arange(n) + 0.5) * (2.0 * math.pi / n)
            ct, st = np.cos(theta), np.sin(theta)
            pts = np.column_stack([self.cx + self.A * ct, self.cy + self.B * st])
            grad = np.column_stack([ct / self.A, st / self.B])
            nu = grad / np.linalg.norm(grad, axis=1)[:, None]
            speed = np.sqrt((self.A * st) ** 2 + (self.B * ct) ** 2)
            H = self.A * self.B / ((self.A * st) ** 2 + (self.B * ct) ** 2) ** 1.5
            w = speed * (2.0 * math.pi / n)
            return pts, nu, H, w
        return [(self.perimeter(), sampler)]

    def curvature_at(self, x, y):
        """Curvature at the boundary point of the same polar angle in the
        scaled coordinates; 0 at the centre.  Powers go through
        ``np.float_power``, which rounds as the scalar ``**`` does."""
        X, Y = (np.asarray(x) - self.cx) / self.A, (np.asarray(y) - self.cy) / self.B
        rho = _hypot(X, Y)
        with np.errstate(divide="ignore", invalid="ignore"):
            st, ct = Y / rho, X / rho
            denom = np.float_power(self.A * st, 2) + np.float_power(self.B * ct, 2)
            kappa = self.A * self.B / np.float_power(denom, 1.5)
        return np.where(rho == 0.0, 0.0, kappa)


#: pi to 40 digits, for the perimeter's AGM in 40-digit decimal arithmetic
_PI = Decimal("3.141592653589793238462643383279502884197")


def _ellipse_perimeter(semi_x, semi_y):
    """Perimeter ``4 a E(e^2)`` of the ellipse with semi-axes a >= b, by
    the arithmetic-geometric mean (Abramowitz & Stegun 17.6):
    ``2 pi (a^2 - sum_n 2^(n-1) c_n^2) / M(a, b)`` with ``c_0^2 = a^2 - b^2``
    and ``c_n = (a_(n-1) - b_(n-1)) / 2``.  Run in 40 digits, so that the
    float returned is the exact perimeter correctly rounded."""
    with localcontext() as ctx:
        ctx.prec = 40
        a, b = Decimal(max(semi_x, semi_y)), Decimal(min(semi_x, semi_y))
        total, scale = (a * a + b * b) / 2, 1
        while True:
            c = (a - b) / 2
            a, b = (a + b) / 2, (a * b).sqrt()
            total -= scale * c * c
            scale *= 2
            # the next c is below c^2 / a, past the working digits
            if c <= a.scaleb(-ctx.prec // 2):
                return float(2 * _PI * total / a)


class Rectangle(Shape):
    kind = "rectangle"
    smooth_boundary = False  # corners violate the C^{2+alpha} hypothesis

    def __init__(self, width, height, center=(0.0, 0.0)):
        if width <= 0 or height <= 0:
            raise ValueError("rectangle sides must be positive")
        self.w, self.hgt = float(width), float(height)
        self.cx, self.cy = float(center[0]), float(center[1])

    def inside(self, x, y):
        return ((np.abs(np.asarray(x) - self.cx) < self.w / 2.0)
                & (np.abs(np.asarray(y) - self.cy) < self.hgt / 2.0))

    def extent(self):
        return self.w / 2.0, self.hgt / 2.0

    def perimeter(self):
        return 2.0 * (self.w + self.hgt)

    def boundary_components(self):
        hw, hh = self.w / 2.0, self.hgt / 2.0
        edges = [  # (start, tangent, length, outward normal)
            ((self.cx - hw, self.cy - hh), (1.0, 0.0), self.w, (0.0, -1.0)),
            ((self.cx + hw, self.cy - hh), (0.0, 1.0), self.hgt, (1.0, 0.0)),
            ((self.cx + hw, self.cy + hh), (-1.0, 0.0), self.w, (0.0, 1.0)),
            ((self.cx - hw, self.cy + hh), (0.0, -1.0), self.hgt, (-1.0, 0.0)),
        ]

        def sampler(n):
            per_edge = [max(4, int(round(n * L / self.perimeter()))) for _, _, L, _ in edges]
            pts, nus, ws = [], [], []
            for (start, tang, L, nu), m in zip(edges, per_edge):
                s = (np.arange(m) + 0.5) * (L / m)
                pts.append(np.column_stack([start[0] + s * tang[0], start[1] + s * tang[1]]))
                nus.append(np.tile(nu, (m, 1)))
                ws.append(np.full(m, L / m))
            pts = np.vstack(pts)
            return pts, np.vstack(nus), np.zeros(len(pts)), np.concatenate(ws)

        return [(self.perimeter(), sampler)]

    def cell_areas(self, x, y, h):
        """Axis-aligned overlap of the cells centred at the arrays x, y;
        exact even at corners, where a chord is not."""
        h2 = h / 2.0
        wx = np.minimum(x + h2, self.cx + self.w / 2) - np.maximum(x - h2, self.cx - self.w / 2)
        wy = (np.minimum(y + h2, self.cy + self.hgt / 2)
              - np.maximum(y - h2, self.cy - self.hgt / 2))
        return np.maximum(wx, 0.0) * np.maximum(wy, 0.0)


SHAPE_KINDS = {"disc": (Disc, 1), "annulus": (Annulus, 2),
               "ellipse": (Ellipse, 2), "rectangle": (Rectangle, 2)}


def make_shape(kind, parameters, center=(0.0, 0.0)):
    if kind not in SHAPE_KINDS:
        raise ValueError(f"unknown shape kind {kind!r}; choose from {sorted(SHAPE_KINDS)}")
    cls, nparams = SHAPE_KINDS[kind]
    params = [float(x) for x in parameters]
    if len(params) != nparams:
        raise ValueError(f"shape {kind!r} expects {nparams} parameters, got {len(params)}")
    center = tuple(float(c) for c in center)
    if len(center) != 2:
        raise ValueError("shape center must be a pair of numbers")
    if not all(math.isfinite(v) for v in params + list(center)):
        raise ValueError("shape parameters and center must be finite")
    return cls(*params, center=center)


# ---------------------------------------------------------------------------
# discrete domain
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiscreteDomain:
    """Embedded Cartesian grid over a shape, immutable after build; its
    difference operators are built at first use and kept."""

    shape: Shape
    h: float
    gx0: float
    gy0: float
    nx: int
    ny: int
    interior_index: np.ndarray      # (nx, ny) -> interior id or -1
    xy: np.ndarray                  # (n_int, 2) physical coordinates
    nbr: np.ndarray                 # (n_int, 4) interior neighbor id or -1
    arm: np.ndarray                 # (n_int, 4) arm length to neighbor/boundary
    weights: np.ndarray             # (n_int,) clipped cell areas
    bpts: np.ndarray                # (nb, 2) boundary sample points
    bnu: np.ndarray                 # (nb, 2) outward unit normals
    bH: np.ndarray                  # (nb,) mean curvature
    bw: np.ndarray                  # (nb,) arc weights
    bcomp: np.ndarray               # (nb,) boundary component id
    #: (n_int,) distance to the nearest boundary sample: exact up to
    #: MAX_COLLAR_DEPTH * h, inf beyond (only the collar is ever asked about);
    #: found in the lattice windows around the samples, with no KD tree
    dist: np.ndarray
    dropped_area: float = 0.0

    @property
    def n_interior(self):
        return len(self.xy)

    @property
    def n_boundary(self):
        return len(self.bpts)

    @property
    def boundary_component_count(self):
        return int(self.bcomp.max()) + 1 if len(self.bcomp) else 0

    def core_mask(self, depth=2.0):
        """Interior nodes at least ``depth*h`` away from the boundary."""
        if depth > MAX_COLLAR_DEPTH:
            raise ValueError(f"collar depth {depth} exceeds MAX_COLLAR_DEPTH")
        return self.dist >= depth * self.h - 1e-12

    @cached_property
    def grad_ops(self):
        """Sparse (d/dx, d/dy) over interior nodes for fields that vanish on
        the boundary: centred where both neighbors are interior, else the
        second-order 3-point stencil with the bisected arm, from which the
        boundary value drops out."""
        n = self.n_interior
        ops = []
        for d_plus, d_minus in ((_E, _W), (_N, _S)):
            b, a = self.arm[:, d_plus], self.arm[:, d_minus]
            jp, jm = self.nbr[:, d_plus], self.nbr[:, d_minus]
            # f'(0) = -b/(a(a+b)) f(-a) + (b-a)/(ab) f(0) + a/(b(a+b)) f(b)
            ops.append(_stencil_matrix(n, [
                (slice(None), np.arange(n), (b - a) / (a * b)),
                (jp >= 0, jp, a / (b * (a + b))),
                (jm >= 0, jm, -b / (a * (a + b)))]))
        return tuple(ops)

    @cached_property
    def diff_ops(self):
        """Sparse (d/dx, d/dy) from interior values only: centred where both
        neighbors exist, else one-sided into the interior, second order on
        two nodes and first order on one; zero at isolated nodes.  They lose
        an order in the boundary collar, which norms downstream exclude."""
        idx, nbr = np.arange(self.n_interior), self.nbr
        ops = []
        for d_plus, d_minus in ((_E, _W), (_N, _S)):
            jp, jm = nbr[:, d_plus], nbr[:, d_minus]
            jpp = np.where(jp >= 0, nbr[jp, d_plus], -1)
            jmm = np.where(jm >= 0, nbr[jm, d_minus], -1)
            forward = (jp >= 0) & (jm < 0)
            backward = (jm >= 0) & (jp < 0)
            stencils = [  # (row mask, [(column, coefficient * h), ...])
                ((jp >= 0) & (jm >= 0), [(jp, 0.5), (jm, -0.5)]),
                (forward & (jpp >= 0), [(idx, -1.5), (jp, 2.0), (jpp, -0.5)]),
                (forward & (jpp < 0), [(idx, -1.0), (jp, 1.0)]),
                (backward & (jmm >= 0), [(idx, 1.5), (jm, -2.0), (jmm, 0.5)]),
                (backward & (jmm < 0), [(idx, 1.0), (jm, -1.0)]),
            ]
            ops.append(_stencil_matrix(self.n_interior, [
                (mask, col, c / self.h) for mask, terms in stencils for col, c in terms]))
        return tuple(ops)


def _stencil_matrix(n, terms):
    """The (n, n) CSR matrix of stencil terms ``(rows, cols, coef)``: each
    puts ``coef[i]`` at ``(i, cols[i])`` for the rows ``i`` that the index
    ``rows`` selects, a scalar ``coef`` in every one.  Terms enter in order,
    which fixes the CSR layout."""
    idx = np.arange(n)
    rows, cols, vals = zip(*[(idx[m], c[m], np.broadcast_to(v, n)[m]) for m, c, v in terms])
    return CSR.from_coo(np.concatenate(vals), np.concatenate(rows), np.concatenate(cols), (n, n))


def _clip_cell_areas(shape, x, y, h):
    """Areas of the cells [x-h/2, x+h/2] x [y-h/2, y+h/2] inside the shape,
    one per centre of the arrays ``x``, ``y``.

    Chord polygon through exact edge crossings, plus a circular-segment
    (sagitta) correction ``H L^3 / 12`` signed by the local curvature.  The
    crossings of all cells are bisected together.  Cells where a chord is
    ambiguous (saddles, no corner inside) or gives an area out of range are
    subsampled.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if hasattr(shape, "cell_areas"):  # the rectangle's are exact
        return shape.cell_areas(x, y, h)
    h2 = h / 2.0
    cx = np.column_stack([x - h2, x + h2, x + h2, x - h2])
    cy = np.column_stack([y - h2, y - h2, y + h2, y + h2])
    flags = shape.inside(cx, cy)
    n_in = flags.sum(axis=1)
    saddle = ((flags == [True, False, True, False]).all(axis=1)
              | (flags == [False, True, False, True]).all(axis=1))
    chord = (n_in > 0) & (n_in < 4) & ~saddle
    # a chord cell has exactly two crossing edges; in cell-major, edge-minor
    # order the crossings of each cell are the pairs q[0::2], q[1::2]
    edge_cut = chord[:, None] & (flags != np.roll(flags, -1, axis=1))
    ci, k0 = np.nonzero(edge_cut)
    k1 = (k0 + 1) % 4
    k_in = np.where(flags[ci, k0], k0, k1)
    k_out = np.where(flags[ci, k0], k1, k0)
    qx, qy = _bisect_crossings(shape, cx[ci, k_in], cy[ci, k_in], cx[ci, k_out], cy[ci, k_out])

    # polygon vertex slots 2k (corner k) and 2k + 1 (crossing on edge k),
    # used slots moved to the front in order and the rest filled with the
    # first vertex, so that they add exact zeros to the shoelace sum
    used = np.stack([flags, edge_cut], axis=2).reshape(-1, 8)
    vx, vy = np.repeat(cx, 2, axis=1), np.repeat(cy, 2, axis=1)
    vx[ci, 2 * k0 + 1], vy[ci, 2 * k0 + 1] = qx, qy
    c = np.nonzero(chord)[0]
    order = np.argsort(~used[c], axis=1, kind="stable")
    fill = ~np.take_along_axis(used[c], order, axis=1)
    vx = np.take_along_axis(vx[c], order, axis=1)
    vy = np.take_along_axis(vy[c], order, axis=1)
    vx, vy = np.where(fill, vx[:, :1], vx), np.where(fill, vy[:, :1], vy)
    # the shoelace terms summed one slot after another, in vertex order
    terms = vx * np.roll(vy, -1, axis=1) - np.roll(vx, -1, axis=1) * vy
    area = np.abs(np.cumsum(terms, axis=1)[:, -1]) / 2.0
    chord_len = _hypot(qx[1::2] - qx[0::2], qy[1::2] - qy[0::2])
    kappa = shape.curvature_at((qx[0::2] + qx[1::2]) / 2.0, (qy[0::2] + qy[1::2]) / 2.0)
    area = area + kappa * np.float_power(chord_len, 3) / 12.0

    areas = np.where(n_in == 4, h * h, 0.0)
    areas[c] = area
    in_range = (0.0 <= areas) & (areas <= h * h * (1.0 + 1e-9))
    ambiguous = ~chord & (n_in < 4) & ((n_in > 0) | shape.inside(x, y))
    # those are counted on 32 x 32 subsamples per cell, in one pass
    sub = np.nonzero(ambiguous | (chord & ~in_range))[0]
    offs = (np.arange(32) + 0.5) / 32 - 0.5
    hits = shape.inside(x[sub, None, None] + offs[:, None] * h, y[sub, None, None] + offs * h)
    areas[sub] = h * h * np.count_nonzero(hits, axis=(1, 2)).astype(float) / (32 * 32)
    return areas


def _bisect_crossings(shape, ax, ay, bx, by):
    """Boundary crossings on the segments from inside points (ax, ay) to
    outside points (bx, by), all bisected together in 60 steps, enough to
    reach the last bit."""
    for _ in range(60):
        mx, my = 0.5 * (ax + bx), 0.5 * (ay + by)
        inside = shape.inside(mx, my)
        ax, ay = np.where(inside, mx, ax), np.where(inside, my, ay)
        bx, by = np.where(inside, bx, mx), np.where(inside, by, my)
    return 0.5 * (ax + bx), 0.5 * (ay + by)


def build_domain(shape, spacing):
    """Classify a symmetric node lattice against the shape and precompute
    cut distances, clipped cell areas, boundary samples and the collar
    distances ``dist``, the last from lattice windows around the samples
    rather than a KD tree."""
    if spacing <= 0:
        raise ValueError("spacing must be positive")
    h = float(spacing)
    ex, ey = shape.extent()
    # a bound on the node count, inf where the extent overflows in spacings
    if not (2.0 * ex / h + 7.0) * (2.0 * ey / h + 7.0) <= np.iinfo(np.intp).max:
        raise DegenerateGridError(
            f"the lattice at spacing {h} has more nodes than numpy can index")
    mx = int(math.ceil(ex / h)) + 2
    my = int(math.ceil(ey / h)) + 2
    gx0, gy0 = shape.cx - mx * h, shape.cy - my * h
    nx, ny = 2 * mx + 1, 2 * my + 1

    xs = gx0 + np.arange(nx) * h
    ys = gy0 + np.arange(ny) * h
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    # a node on the boundary up to rounding would get an arm of about 1e-16 h:
    # count it as exterior, so that its neighbors get arms of about h instead
    interior = shape.inside(X, Y)
    for di, dj in DIRS:
        interior &= shape.inside(X + di * ON_BOUNDARY_TOL * h, Y + dj * ON_BOUNDARY_TOL * h)
    n_int = int(np.count_nonzero(interior))
    if n_int < 9:
        raise DegenerateGridError(
            f"only {n_int} interior nodes at spacing {h}; refine the grid")
    if isinstance(shape, Annulus) and shape.b - shape.a <= 3.0 * h:
        raise DegenerateGridError("annulus gap must exceed 3 grid spacings")

    interior_index = np.full((nx, ny), -1, dtype=np.int64)
    ii, jj = np.nonzero(interior)
    order = np.lexsort((ii, jj))  # scan rows bottom-to-top, left-to-right
    ii, jj = ii[order], jj[order]
    interior_index[ii, jj] = np.arange(n_int)
    xy = np.column_stack([xs[ii], ys[jj]])

    # index lookups one node beyond the lattice read -1 (exterior)
    padded_index = np.pad(interior_index, 1, constant_values=-1)
    nbr = np.column_stack([padded_index[ii + 1 + di, jj + 1 + dj] for di, dj in DIRS])
    # Shortley-Weller arms: the boundary crossing on the segment from each
    # interior node to its exterior neighbor, all bisected together on the
    # predicate that classified the nodes, so every segment has a crossing
    arm = np.full((n_int, 4), h, dtype=float)
    k, d = np.nonzero(nbr < 0)
    px, py = xy[k, 0], xy[k, 1]
    qx, qy = _bisect_crossings(shape, px, py, px + DIRS[d, 0] * h, py + DIRS[d, 1] * h)
    arm[k, d] = np.minimum(np.hypot(qx - px, qy - py), h)
    if not arm.min() > 0.0:
        # the node coordinates are too coarse, in floating point, to place
        # a crossing between a node and its neighbor
        raise DegenerateGridError(
            f"a zero-length arm at spacing {h}: the lattice coordinates cannot "
            "resolve the boundary")

    # clipped cell areas; cut cells of exterior nodes fold into the nearest
    # interior neighbor so the cells tile the full domain area
    corner_x = gx0 - h / 2.0 + np.arange(nx + 1) * h
    corner_y = gy0 - h / 2.0 + np.arange(ny + 1) * h
    CX, CY = np.meshgrid(corner_x, corner_y, indexing="ij")
    corner_in = shape.inside(CX, CY)
    cell_nin = (corner_in[:-1, :-1].astype(np.int8) + corner_in[1:, :-1]
                + corner_in[1:, 1:] + corner_in[:-1, 1:])

    weights = np.zeros(n_int)
    full = interior & (cell_nin == 4)
    fi, fj = np.nonzero(full)
    weights[interior_index[fi, fj]] = h * h

    cut_i, cut_j = np.nonzero((cell_nin > 0) & (cell_nin < 4) | (interior & (cell_nin == 0)))
    cut_areas = _clip_cell_areas(shape, xs[cut_i], ys[cut_j], h)
    kept = cut_areas > 0.0
    cut_i, cut_j, cut_areas = cut_i[kept], cut_j[kept], cut_areas[kept]
    # each cut cell goes to its own node, else to the first interior
    # neighbor in this order, else (slot n_int) to the dropped area
    cell_targets = [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1),
                    (1, 1), (-1, 1), (1, -1), (-1, -1)]
    targets = np.array([padded_index[cut_i + 1 + di, cut_j + 1 + dj]
                        for di, dj in cell_targets])
    first = np.argmax(targets >= 0, axis=0)
    target = targets[first, np.arange(len(cut_i))]
    target[target < 0] = n_int
    # np.add.at adds in cell order, as one sequential sum per slot
    acc = np.append(weights, 0.0)
    np.add.at(acc, target, cut_areas)
    weights, dropped = acc[:n_int], float(acc[n_int])

    # boundary samples, one block per component
    samples = [sampler(max(64, int(math.ceil(2.0 * length / h))))
               for length, sampler in shape.boundary_components()]
    bpts, bnu, bH, bw = (np.concatenate(parts) for parts in zip(*samples))
    bcomp = np.concatenate([np.full(len(pts), comp, dtype=np.int64)
                            for comp, (pts, *_) in enumerate(samples)])

    # every node within MAX_COLLAR_DEPTH * h of a sample lies in the
    # (2r + 1)^2 window of lattice nodes around the sample's cell: each node
    # keeps its least distance to the samples whose windows hold it
    r = int(math.ceil(MAX_COLLAR_DEPTH)) + 1
    offsets = np.arange(-r, r + 1)
    wi = np.floor((bpts[:, 0] - gx0) / h).astype(np.int64)[:, None, None] + offsets[:, None]
    wj = np.floor((bpts[:, 1] - gy0) / h).astype(np.int64)[:, None, None] + offsets
    window = interior_index[np.clip(wi, 0, nx - 1), np.clip(wj, 0, ny - 1)]
    held = window >= 0
    sample, node = np.nonzero(held)[0], window[held]
    dx, dy = xy[node, 0] - bpts[sample, 0], xy[node, 1] - bpts[sample, 1]
    dist = np.full(n_int, np.inf)
    np.minimum.at(dist, node, np.sqrt(dx * dx + dy * dy))
    dist[dist > MAX_COLLAR_DEPTH * h] = np.inf

    return DiscreteDomain(shape=shape, h=h, gx0=gx0, gy0=gy0, nx=nx, ny=ny,
                          interior_index=interior_index,
                          xy=xy, nbr=nbr, arm=arm, weights=weights,
                          bpts=bpts, bnu=bnu, bH=bH, bw=bw, bcomp=bcomp,
                          dist=dist, dropped_area=dropped)


# ---------------------------------------------------------------------------
# quadrature and geometric queries
# ---------------------------------------------------------------------------

def volume_integral(domain, fld):
    """Cell-weighted sum of a per-node array over interior nodes, in numpy's
    fixed pairwise order (a BLAS dot would split it by thread count)."""
    values = np.asarray(fld)
    if values.shape != (domain.n_interior,):
        raise ValueError("field must provide one value per interior node")
    return float(np.add.reduce(domain.weights * values))


def boundary_integral(domain, density):
    """Arc-weighted sum of a per-sample array over boundary samples, in the
    same fixed order as ``volume_integral``."""
    values = np.asarray(density)
    if values.shape != (domain.n_boundary,):
        raise ValueError("density must provide one value per boundary sample")
    return float(np.add.reduce(domain.bw * values))


def interpolate_node_field(domain, values, pts):
    """Bilinear interpolation of an interior-node field, ``(n,)`` or
    ``(n, k)`` values, at arbitrary points.

    Cells with a non-interior corner fall back to the value at their
    heaviest interior corner, so querying close to the boundary stays
    defined (at reduced order there).  A cell with no interior corner takes
    the value at the nearest interior node (``_nearest_nodes``).
    """
    values = np.asarray(values)
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    fx = (pts[:, 0] - domain.gx0) / domain.h
    fy = (pts[:, 1] - domain.gy0) / domain.h
    i0 = np.clip(np.floor(fx).astype(np.int64), 0, domain.nx - 2)
    j0 = np.clip(np.floor(fy).astype(np.int64), 0, domain.ny - 2)
    tx, ty = fx - i0, fy - j0
    ids = np.array([domain.interior_index[i0, j0], domain.interior_index[i0 + 1, j0],
                    domain.interior_index[i0, j0 + 1], domain.interior_index[i0 + 1, j0 + 1]])
    w = np.array([(1 - tx) * (1 - ty), tx * (1 - ty), (1 - tx) * ty, tx * ty])
    valid = ids >= 0
    v00, v10, v01, v11 = values[np.where(valid, ids, 0)]
    w00, w10, w01, w11 = w.reshape(w.shape + (1,) * (values.ndim - 1))
    out = w00 * v00 + w10 * v10 + w01 * v01 + w11 * v11
    # heaviest interior corner, ties to the larger node id
    w_in = np.where(valid, w, -np.inf)
    best = np.max(np.where(valid & (w_in == w_in.max(axis=0)), ids, -1), axis=0)
    partial = ~valid.all(axis=0)
    out[partial] = values[best[partial]]
    lost = best < 0
    if lost.any():
        out[lost] = values[_nearest_nodes(domain, pts[lost])]
    return out


def _nearest_nodes(domain, pts):
    """The id of the interior node nearest to each of ``pts``, the lowest id
    among equally near ones, from lattice windows around each point.

    The window of radius r holds every lattice node within r + 1 spacings of
    the point along both axes, so a node it leaves out is more than
    ``(r + 1) h`` away, and its nearest interior node within ``(r + 0.5) h``
    is the nearest of all.  From r = 1, or the point's distance to the
    lattice in spacings, r doubles until the window holds an interior node;
    when the nearest of those lies farther, one more window of that
    distance decides.
    Each point is searched on its own: the fallback serves the few cells
    with no interior corner.
    """
    h, index, xy = domain.h, domain.interior_index, domain.xy
    nearest = np.empty(len(pts), dtype=np.int64)
    for k, (x, y) in enumerate(pts):
        fx, fy = (x - domain.gx0) / h, (y - domain.gy0) / h
        r = max(1.0, -fx, fx - (domain.nx - 1), -fy, fy - (domain.ny - 1))
        while True:
            ids = index[max(math.floor(fx - r) - 1, 0):math.ceil(fx + r) + 2,
                        max(math.floor(fy - r) - 1, 0):math.ceil(fy + r) + 2]
            ids = ids[ids >= 0]
            if len(ids) == 0:
                r *= 2.0
                continue
            d2 = (xy[ids, 0] - x) ** 2 + (xy[ids, 1] - y) ** 2
            least = d2.min()
            if least <= ((r + 0.5) * h) ** 2:
                nearest[k] = ids[d2 == least].min()
                break
            r = math.sqrt(least) / h
    return nearest
