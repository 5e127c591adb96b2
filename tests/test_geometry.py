"""Domain building, normals/curvature, star margins and quadrature."""

import dataclasses
import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.spatial import cKDTree

from emlab import geometry
from emlab.errors import DegenerateGridError
from emlab.geometry import (
    DIRS,
    MAX_COLLAR_DEPTH,
    ON_BOUNDARY_TOL,
    _clip_cell_areas,
    build_domain,
    boundary_integral,
    interpolate_node_field,
    make_shape,
    star_center_margin,
    volume_integral,
)

DISC = make_shape("disc", [1.0])
ANNULUS = make_shape("annulus", [0.3, 1.0])
ELLIPSE = make_shape("ellipse", [2.0, 1.0])
RECT = make_shape("rectangle", [2.0, 1.0])


# ---------------------------------------------------------------------------
# exact shape geometry that only the tests read
# ---------------------------------------------------------------------------

def _area(shape):
    if shape.kind == "disc":
        return math.pi * shape.R ** 2
    if shape.kind == "annulus":
        return math.pi * (shape.b ** 2 - shape.a ** 2)
    if shape.kind == "ellipse":
        return math.pi * shape.A * shape.B
    return shape.w * shape.hgt


def _boundary_geometry(shape, pt, tol=1e-9):
    """Outward unit normal and mean curvature at a boundary point.

    H >= 0 where the domain is locally convex.  Raises ValueError when the
    point is off the boundary by more than ``tol`` (relative to the shape
    scale).
    """
    if shape.kind == "disc":
        rx, ry = pt[0] - shape.cx, pt[1] - shape.cy
        r = math.hypot(rx, ry)
        if abs(r - shape.R) > tol * max(1.0, shape.R):
            raise ValueError(f"point {pt} is off the disc boundary")
        return np.array([rx / r, ry / r]), 1.0 / shape.R
    if shape.kind == "annulus":
        rx, ry = pt[0] - shape.cx, pt[1] - shape.cy
        r = math.hypot(rx, ry)
        scale = max(1.0, shape.b)
        if abs(r - shape.b) <= tol * scale:
            return np.array([rx / r, ry / r]), 1.0 / shape.b
        if abs(r - shape.a) <= tol * scale:
            return np.array([-rx / r, -ry / r]), -1.0 / shape.a
        raise ValueError(f"point {pt} is off the annulus boundary")
    if shape.kind == "ellipse":
        X, Y = (pt[0] - shape.cx) / shape.A, (pt[1] - shape.cy) / shape.B
        rho = math.hypot(X, Y)
        if abs(rho - 1.0) > tol:
            raise ValueError(f"point {pt} is off the ellipse boundary")
        grad = np.array([X / shape.A, Y / shape.B])
        nu = grad / np.linalg.norm(grad)
        st, ct = Y / rho, X / rho
        H = shape.A * shape.B / ((shape.A * st) ** 2 + (shape.B * ct) ** 2) ** 1.5
        return nu, H
    hw, hh = shape.w / 2.0, shape.hgt / 2.0
    dx, dy = pt[0] - shape.cx, pt[1] - shape.cy
    scale = max(1.0, hw, hh)
    sides = [(abs(dx - hw), (1.0, 0.0)), (abs(dx + hw), (-1.0, 0.0)),
             (abs(dy - hh), (0.0, 1.0)), (abs(dy + hh), (0.0, -1.0))]
    dist, nu = min(sides, key=lambda s: s[0])
    if dist > tol * scale or abs(dx) > hw + tol * scale or abs(dy) > hh + tol * scale:
        raise ValueError(f"point {pt} is off the rectangle boundary")
    return np.array(nu), 0.0


class TestBuildDomain:
    def test_coarse_disc_has_interior_nodes(self):
        dom = build_domain(DISC, 0.5)
        assert dom.n_interior >= 9
        r = np.hypot(dom.xy[:, 0], dom.xy[:, 1])
        assert np.all(r < 1.0)

    def test_too_coarse_raises(self):
        with pytest.raises(DegenerateGridError):
            build_domain(DISC, 0.9)

    def test_tight_annulus_gap_raises(self):
        with pytest.raises(DegenerateGridError):
            build_domain(make_shape("annulus", [0.9, 1.0]), 1.0 / 16)

    @pytest.mark.parametrize("radius,spacing", [(1.0, 1e-300), (1e300, 1e-300)])
    def test_lattice_beyond_index_range_raises(self, radius, spacing):
        # more nodes than numpy can index, and an extent that overflows in
        # grid spacings: refused before anything is allocated
        with pytest.raises(DegenerateGridError, match="more nodes than numpy can index"):
            build_domain(make_shape("disc", [radius]), spacing)

    def test_unresolvable_center_raises(self):
        # at x = 1e14 the lattice coordinates are 1/64 apart: a crossing
        # between a node and its neighbor rounds onto the node
        with pytest.raises(DegenerateGridError, match="zero-length arm"):
            build_domain(make_shape("disc", [1.0], center=(1e14, 0.0)), 0.1)

    @pytest.mark.parametrize("kind,params", [("disc", [1.0]), ("ellipse", [1.0, 0.6]),
                                             ("annulus", [0.3, 1.0])])
    def test_far_center_keeps_positive_arms(self, kind, params):
        dom = build_domain(make_shape(kind, params, center=(1e9, -1e9)), 1.0 / 16)
        assert dom.arm.min() > 0.0

    def test_high_aspect_ellipse_area(self):
        shape = make_shape("ellipse", [2.0, 0.5])
        dom = build_domain(shape, 1.0 / 32)
        area = volume_integral(dom, np.ones(dom.n_interior))
        assert area == pytest.approx(_area(shape), rel=1e-6)
        assert dom.dropped_area == 0.0

    def test_offset_center_disc(self):
        shape = make_shape("disc", [0.7], center=(0.33, -0.21))
        dom = build_domain(shape, 1.0 / 32)
        area = volume_integral(dom, np.ones(dom.n_interior))
        assert area == pytest.approx(_area(shape), rel=1e-6)

    def test_annulus_has_two_boundary_components(self):
        dom = build_domain(ANNULUS, 1.0 / 64)
        assert dom.boundary_component_count == 2

    def test_cut_arms_within_one_spacing(self):
        dom = build_domain(DISC, 1.0 / 16)
        cut = (dom.nbr < 0).any(axis=1)
        assert cut.any()
        arms = dom.arm[cut]
        faces = dom.nbr[cut] < 0
        assert np.all(arms[faces] > 0.0)
        assert np.all(arms[faces] <= dom.h + 1e-12)
        # the cut endpoint sits on the boundary
        for k in np.nonzero(cut)[0][:20]:
            for d in range(4):
                if dom.nbr[k, d] < 0:
                    pt = dom.xy[k] + DIRS[d] * dom.arm[k, d]
                    nu, _ = _boundary_geometry(DISC, pt, tol=1e-9)
                    assert np.linalg.norm(nu) == pytest.approx(1.0, abs=1e-12)

    def test_weights_sum_to_area(self):
        for shape in (DISC, ELLIPSE, RECT):
            dom = build_domain(shape, 1.0 / 32)
            assert np.sum(dom.weights) == pytest.approx(_area(shape), rel=2e-4)

    def test_boundary_weights_sum_to_perimeter(self):
        for shape in (DISC, ANNULUS, ELLIPSE, RECT):
            dom = build_domain(shape, 1.0 / 32)
            assert np.sum(dom.bw) == pytest.approx(shape.perimeter(), rel=1e-6)

    def test_normals_unit_and_outward(self):
        for shape in (DISC, ANNULUS, ELLIPSE):
            dom = build_domain(shape, 1.0 / 32)
            norms = np.linalg.norm(dom.bnu, axis=1)
            assert np.max(np.abs(norms - 1.0)) < 1e-12
            # stepping along nu must leave the domain, stepping back stays in
            eps = 1e-6
            out_pts = dom.bpts + eps * dom.bnu
            in_pts = dom.bpts - eps * dom.bnu
            assert not np.any(shape.inside(out_pts[:, 0], out_pts[:, 1]))
            assert np.all(shape.inside(in_pts[:, 0], in_pts[:, 1]))


#: cut-cell areas plus the dropped area against the exact shape area
AREA_RTOL = 1e-4


def _assert_sound_build(shape, h):
    """Build, then check that every missing arm lies in
    (0.5 ON_BOUNDARY_TOL h, h] and ends on the boundary, and that the cells
    tile the shape."""
    dom = build_domain(shape, h)
    faces = dom.nbr < 0
    arms = dom.arm[faces]
    assert np.all(arms > 0.5 * ON_BOUNDARY_TOL * h)
    assert np.all(arms <= h)
    for k, d in zip(*np.nonzero(faces)):
        _boundary_geometry(shape, dom.xy[k] + DIRS[d] * dom.arm[k, d], tol=1e-9)
    area = dom.weights.sum() + dom.dropped_area
    assert area == pytest.approx(_area(shape), rel=AREA_RTOL)
    return dom


def _offset_shapes(kind, params, h, seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        yield make_shape(kind, params, center=(rng.random() * h, rng.random() * h))


class TestOffsetCenters:
    """Sub-cell center offsets put lattice nodes on the boundary up to
    rounding (the lattice is centered on the shape); such nodes must be
    exterior rather than get an arm of about 1e-16 h."""

    SHAPES = [("disc", [1.0]), ("annulus", [0.3, 1.0]),
              ("ellipse", [1.0, 0.5]), ("rectangle", [2.0, 1.0])]

    @pytest.mark.parametrize("h", [1.0 / 32, 1.0 / 64])
    @pytest.mark.parametrize("kind,params", SHAPES)
    def test_seeded_offsets_build(self, kind, params, h):
        for shape in _offset_shapes(kind, params, h, 20261018, 5):
            _assert_sound_build(shape, h)


class TestTangency:
    """Radii, semi-axes and sides that are whole multiples of h put lattice
    rows on the boundary or tangent to it, at every center offset (the
    lattice is centered on the shape).  A row tangent to the annulus's
    inner circle once left a boundary-adjacent node without a closed-form
    crossing."""

    H = 1.0 / 32

    # inner radius k h; the last case is the annulus [0.3, 1] at h = 1/40
    @pytest.mark.parametrize("inner,n", [(5 / 32, 32), (7 / 32, 32), (9 / 32, 32),
                                         (12 / 32, 32), (0.3, 40)])
    def test_annulus_inner_radius_on_lattice(self, inner, n):
        h = 1.0 / n
        for shape in _offset_shapes("annulus", [inner, 1.0], h, n, 3):
            _assert_sound_build(shape, h)

    @pytest.mark.parametrize("kind,ks", [("disc", [9]), ("disc", [16]),
                                         ("ellipse", [24, 11]), ("ellipse", [7, 16])])
    def test_disc_and_ellipse_on_lattice(self, kind, ks):
        params = [k * self.H for k in ks]
        for shape in _offset_shapes(kind, params, self.H, sum(ks), 3):
            _assert_sound_build(shape, self.H)

    @pytest.mark.parametrize("ks", [(10, 6), (18, 11), (21, 13)])
    def test_rectangle_sides_on_lattice_lines(self, ks):
        # an even multiple of h puts a side on a node line, an odd one on a
        # cell-edge line
        params = [k * self.H for k in ks]
        for shape in _offset_shapes("rectangle", params, self.H, sum(ks), 3):
            _assert_sound_build(shape, self.H)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(kind=st.sampled_from(["disc", "annulus", "ellipse", "rectangle"]),
           n=st.sampled_from([16, 20, 24, 32]),
           ks=st.tuples(st.integers(4, 12), st.integers(4, 12)),
           fractions=st.tuples(st.sampled_from([0.0, 0.5]) | st.floats(0.0, 1.0),
                               st.sampled_from([0.0, 0.5]) | st.floats(0.0, 1.0)),
           offset=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)))
    def test_random_offsets_and_radii(self, kind, n, ks, fractions, offset):
        h = 1.0 / n
        a, b = ((k + f) * h for k, f in zip(ks, fractions))
        params = {"disc": [a], "annulus": [a, a + b], "ellipse": [a, b],
                  "rectangle": [2.0 * a, 2.0 * b]}[kind]
        center = (offset[0] * h, offset[1] * h)
        _assert_sound_build(make_shape(kind, params, center=center), h)


class TestBoundaryGeometry:
    def test_disc_curvature(self):
        nu, H = _boundary_geometry(DISC, (1.0, 0.0))
        assert H == pytest.approx(1.0)
        assert nu == pytest.approx([1.0, 0.0])

    def test_annulus_inner_curvature_negative(self):
        nu, H = _boundary_geometry(ANNULUS, (0.3, 0.0))
        assert H == pytest.approx(-1.0 / 0.3)
        assert nu == pytest.approx([-1.0, 0.0])

    def test_rectangle_edge_flat(self):
        nu, H = _boundary_geometry(RECT, (1.0, 0.2))
        assert H == 0.0
        assert nu == pytest.approx([1.0, 0.0])

    def test_off_boundary_rejected(self):
        with pytest.raises(ValueError):
            _boundary_geometry(DISC, (0.5, 0.0))

    def test_ellipse_curvature_endpoints(self):
        # kappa = A*B / (A^2 sin^2 + B^2 cos^2)^{3/2}
        _, H = _boundary_geometry(ELLIPSE, (2.0, 0.0))
        assert H == pytest.approx(2.0)  # A/B^2
        _, H = _boundary_geometry(ELLIPSE, (0.0, 1.0))
        assert H == pytest.approx(1.0 / 4.0)  # B/A^2


class TestStarMargin:
    def test_disc_center(self):
        assert star_center_margin(DISC, (0.0, 0.0)) == pytest.approx(1.0, abs=1e-9)

    def test_disc_offset(self):
        assert star_center_margin(DISC, (0.5, 0.0)) == pytest.approx(0.5, abs=1e-6)

    def test_annulus_never_starshaped(self):
        for x0 in [(0.65, 0.0), (0.0, -0.5), (0.4, 0.4)]:
            assert star_center_margin(ANNULUS, x0) < 0.0


class TestQuadrature:
    def test_area_of_unit_disc(self):
        dom = build_domain(DISC, 1.0 / 64)
        val = volume_integral(dom, np.ones(dom.n_interior))
        assert val == pytest.approx(math.pi, abs=0.01)

    def test_ellipse_area_one_percent(self):
        dom = build_domain(ELLIPSE, 1.0 / 32)
        val = volume_integral(dom, np.ones(dom.n_interior))
        assert val == pytest.approx(2.0 * math.pi, rel=0.01)

    def test_unit_circle_perimeter(self):
        dom = build_domain(DISC, 1.0 / 64)
        val = boundary_integral(dom, np.ones(dom.n_boundary))
        assert val == pytest.approx(2.0 * math.pi, abs=0.01)

    def test_radial_polynomial(self):
        # 2*pi*int_0^1 r (r^2-1)/4 dr = -pi/8
        dom = build_domain(DISC, 1.0 / 64)
        x, y = dom.xy.T
        val = volume_integral(dom, (x**2 + y**2 - 1.0) / 4.0)
        assert val == pytest.approx(-math.pi / 8.0, abs=0.01)

    def test_smooth_integrand_halving_factor(self):
        def integral(dom):
            return volume_integral(dom, np.cos(1.3 * dom.xy[:, 0]) * np.exp(0.5 * dom.xy[:, 1]))

        # reference value from fine-grid quadrature
        ref = integral(build_domain(DISC, 1.0 / 256))
        errs = [abs(integral(build_domain(DISC, hh)) - ref) for hh in (1.0 / 32, 1.0 / 64)]
        assert errs[0] / errs[1] >= 1.8

    def test_core_mask_excludes_collar(self):
        dom = build_domain(DISC, 1.0 / 32)
        core = dom.core_mask()
        r = np.hypot(dom.xy[core, 0], dom.xy[core, 1])
        assert np.all(r <= 1.0 - 2.0 * dom.h + dom.h / 2)
        assert core.sum() < dom.n_interior


# ---------------------------------------------------------------------------
# per-value loops that whole-array code replaced, kept as references
# ---------------------------------------------------------------------------

def _bisect_crossing_loop(shape, p_in, p_out, iterations=60):
    ax, ay = p_in
    bx, by = p_out
    for _ in range(iterations):
        mx, my = 0.5 * (ax + bx), 0.5 * (ay + by)
        if bool(shape.inside(mx, my)):
            ax, ay = mx, my
        else:
            bx, by = mx, my
    return 0.5 * (ax + bx), 0.5 * (ay + by)


def _shoelace(poly):
    if len(poly) < 3:
        return 0.0
    s = 0.0
    for k in range(len(poly)):
        x0, y0 = poly[k]
        x1, y1 = poly[(k + 1) % len(poly)]
        s += x0 * y1 - x1 * y0
    return abs(s) / 2.0


def _subsample_cell_area(shape, x, y, h, n=32):
    offs = (np.arange(n) + 0.5) / n - 0.5
    xs = x + offs * h
    ys = y + offs * h
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    return h * h * float(np.count_nonzero(shape.inside(X, Y))) / (n * n)


def _exact_cell_area(shape, x, y, h):
    h2 = h / 2.0
    wx = min(x + h2, shape.cx + shape.w / 2) - max(x - h2, shape.cx - shape.w / 2)
    wy = min(y + h2, shape.cy + shape.hgt / 2) - max(y - h2, shape.cy - shape.hgt / 2)
    return max(wx, 0.0) * max(wy, 0.0)


def _curvature_near(shape, pt):
    if shape.kind == "disc":
        return 1.0 / shape.R
    if shape.kind == "annulus":
        r = math.hypot(pt[0] - shape.cx, pt[1] - shape.cy)
        return 1.0 / shape.b if abs(r - shape.b) < abs(r - shape.a) else -1.0 / shape.a
    X, Y = (pt[0] - shape.cx) / shape.A, (pt[1] - shape.cy) / shape.B
    rho = math.hypot(X, Y)
    if rho == 0.0:
        return 0.0
    st, ct = Y / rho, X / rho
    return shape.A * shape.B / ((shape.A * st) ** 2 + (shape.B * ct) ** 2) ** 1.5


def _clip_cell_area_branch(shape, x, y, h):
    """The branch of the cut-cell formula that a cell takes, and its area."""
    if shape.kind == "rectangle":
        return "rectangle", _exact_cell_area(shape, x, y, h)
    h2 = h / 2.0
    corners = [(x - h2, y - h2), (x + h2, y - h2), (x + h2, y + h2), (x - h2, y + h2)]
    flags = [bool(shape.inside(cx, cy)) for cx, cy in corners]
    n_in = sum(flags)
    if n_in == 4:
        return "full", h * h
    if n_in == 0:
        if bool(shape.inside(x, y)):
            return "centre", _subsample_cell_area(shape, x, y, h)
        return "empty", 0.0
    if flags in ([True, False, True, False], [False, True, False, True]):
        return "saddle", _subsample_cell_area(shape, x, y, h)
    poly, crossings = [], []
    for k in range(4):
        c0, c1 = corners[k], corners[(k + 1) % 4]
        if flags[k]:
            poly.append(c0)
        if flags[k] != flags[(k + 1) % 4]:
            p_in, p_out = (c0, c1) if flags[k] else (c1, c0)
            crossing = _bisect_crossing_loop(shape, p_in, p_out)
            poly.append(crossing)
            crossings.append(crossing)
    area = _shoelace(poly)
    if len(crossings) == 2:
        (x0, y0), (x1, y1) = crossings
        chord = math.hypot(x1 - x0, y1 - y0)
        kappa = _curvature_near(shape, ((x0 + x1) / 2.0, (y0 + y1) / 2.0))
        area += kappa * chord ** 3 / 12.0
    if not 0.0 <= area <= h * h * (1.0 + 1e-9):
        return "out_of_range", _subsample_cell_area(shape, x, y, h)
    return "chord", area


def _clip_cell_area_loop(shape, x, y, h):
    return _clip_cell_area_branch(shape, x, y, h)[1]


def _interpolate_loop(domain, values, pts):
    values = np.asarray(values)
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    out = np.empty(len(pts))
    for k, (x, y) in enumerate(pts):
        fx = (x - domain.gx0) / domain.h
        fy = (y - domain.gy0) / domain.h
        i0 = min(max(int(math.floor(fx)), 0), domain.nx - 2)
        j0 = min(max(int(math.floor(fy)), 0), domain.ny - 2)
        tx, ty = fx - i0, fy - j0
        ids = [domain.interior_index[i0, j0], domain.interior_index[i0 + 1, j0],
               domain.interior_index[i0, j0 + 1], domain.interior_index[i0 + 1, j0 + 1]]
        if all(idx >= 0 for idx in ids):
            v00, v10, v01, v11 = (values[idx] for idx in ids)
            out[k] = ((1 - tx) * (1 - ty) * v00 + tx * (1 - ty) * v10
                      + (1 - tx) * ty * v01 + tx * ty * v11)
        else:
            corners = [(i0, j0, (1 - tx) * (1 - ty)), (i0 + 1, j0, tx * (1 - ty)),
                       (i0, j0 + 1, (1 - tx) * ty), (i0 + 1, j0 + 1, tx * ty)]
            best = max(((w, domain.interior_index[i, j]) for i, j, w in corners
                        if domain.interior_index[i, j] >= 0), default=None)
            if best is None:
                _, idx = cKDTree(domain.xy).query([x, y])
                out[k] = values[idx]
            else:
                out[k] = values[best[1]]
    return out


def _circle_cut(px, py, cx, cy, R, direction, length):
    """Roots t in (0, 1] of |p + t*length*d - c| = R, smallest first."""
    dx, dy = direction[0] * length, direction[1] * length
    rx, ry = px - cx, py - cy
    a = dx * dx + dy * dy
    b = 2.0 * (rx * dx + ry * dy)
    c = rx * rx + ry * ry - R * R
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return []
    s = math.sqrt(disc)
    roots = sorted(((-b - s) / (2.0 * a), (-b + s) / (2.0 * a)))
    return [t for t in roots if 1e-14 < t <= 1.0 + 1e-12]


def _rectangle_cut(shape, x, y, direction, length):
    hw, hh = shape.w / 2.0, shape.hgt / 2.0
    if direction[0] > 0:
        t = (shape.cx + hw - x) / length
    elif direction[0] < 0:
        t = (x - (shape.cx - hw)) / length
    elif direction[1] > 0:
        t = (shape.cy + hh - y) / length
    else:
        t = (y - (shape.cy - hh)) / length
    return [t] if 0.0 < t <= 1.0 + 1e-12 else []


#: closed-form cut roots per shape: the first crossing along
#: ``(x, y) + t*length*direction`` for a point strictly inside
_AXIS_CUT_ROOTS = {
    "disc": lambda sh, x, y, d, L: _circle_cut(x, y, sh.cx, sh.cy, sh.R, d, L),
    "annulus": lambda sh, x, y, d, L: sorted(_circle_cut(x, y, sh.cx, sh.cy, sh.a, d, L)
                                             + _circle_cut(x, y, sh.cx, sh.cy, sh.b, d, L)),
    "ellipse": lambda sh, x, y, d, L: _circle_cut(
        (x - sh.cx) / sh.A, (y - sh.cy) / sh.B, 0.0, 0.0, 1.0, (d[0] / sh.A, d[1] / sh.B), L),
    "rectangle": _rectangle_cut,
}


def _axis_cut_loop(shape, x, y, direction, length):
    roots = _AXIS_CUT_ROOTS[shape.kind](shape, x, y, direction, length)
    assert roots, "expected a boundary crossing"
    return min(roots[0], 1.0)


def _cut_cells(shape, dom):
    """Centres of the cells whose areas ``build_domain`` clips: the cells
    with some corners inside, and those of interior nodes with none."""
    h = dom.h
    interior = dom.interior_index >= 0
    CX, CY = np.meshgrid(dom.gx0 - h / 2.0 + np.arange(dom.nx + 1) * h,
                         dom.gy0 - h / 2.0 + np.arange(dom.ny + 1) * h, indexing="ij")
    corner_in = shape.inside(CX, CY)
    cell_nin = (corner_in[:-1, :-1].astype(np.int8) + corner_in[1:, :-1]
                + corner_in[1:, 1:] + corner_in[:-1, 1:])
    cut_i, cut_j = np.nonzero((cell_nin > 0) & (cell_nin < 4) | (interior & (cell_nin == 0)))
    return cut_i, cut_j, cell_nin


def _cell_weights_loop(shape, dom):
    """Cut-cell areas scattered one cell at a time: to the cell's own node,
    else to the first interior neighbor in ``neighbor_pref`` order, else to
    the dropped area."""
    h, nx, ny = dom.h, dom.nx, dom.ny
    interior = dom.interior_index >= 0
    xs = dom.gx0 + np.arange(nx) * h
    ys = dom.gy0 + np.arange(ny) * h
    cut_i, cut_j, cell_nin = _cut_cells(shape, dom)
    weights = np.zeros(dom.n_interior)
    fi, fj = np.nonzero(interior & (cell_nin == 4))
    weights[dom.interior_index[fi, fj]] = h * h
    dropped = 0.0
    neighbor_pref = [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, 1), (1, -1), (-1, -1)]
    cut_areas = _clip_cell_areas(shape, xs[cut_i], ys[cut_j], h)
    for i, j, area in zip(cut_i, cut_j, cut_areas.tolist()):
        if area <= 0.0:
            continue
        if interior[i, j]:
            weights[dom.interior_index[i, j]] += area
            continue
        for di, dj in neighbor_pref:
            ni, nj = i + di, j + dj
            if 0 <= ni < nx and 0 <= nj < ny and interior[ni, nj]:
                weights[dom.interior_index[ni, nj]] += area
                break
        else:
            dropped += area
    return weights, dropped


def _clip_cell_areas_loop(shape, xs, ys, h):
    return np.array([_clip_cell_area_loop(shape, x, y, h) for x, y in zip(xs, ys)])


class _DiscWithSpecks(geometry.Disc):
    """The unit disc plus round specks ``(x, y, radius)`` beyond its rim."""

    def __init__(self, *specks):
        super().__init__(1.0)
        self.specks = specks

    def inside(self, x, y):
        x, y = np.asarray(x), np.asarray(y)
        out = super().inside(x, y)
        for sx, sy, r in self.specks:
            out = out | ((x - sx) ** 2 + (y - sy) ** 2 < r * r)
        return out


def _disc_with_speck(h):
    """A speck around one cell corner 1.5 h beyond the rim: its four cut
    cells have no interior node among their neighbors, so their areas are
    dropped."""
    return _DiscWithSpecks((1.0 + 1.5 * h, 0.5 * h, 0.2 * h))


def _seeded_shapes(h, count=3):
    rng = random.Random(20261019)
    for kind, params in TestOffsetCenters.SHAPES:
        for _ in range(count):
            yield make_shape(kind, params, center=(rng.random() * h, rng.random() * h))


class TestLoopReferences:
    @pytest.mark.parametrize("h", [1.0 / 16, 1.0 / 32])
    def test_cut_cells_equal_loop(self, h, monkeypatch):
        for shape in _seeded_shapes(h):
            dom = build_domain(shape, h)
            with monkeypatch.context() as m:
                m.setattr(geometry, "_clip_cell_areas", _clip_cell_areas_loop)
                ref = build_domain(shape, h)
            assert np.array_equal(dom.weights, ref.weights)
            assert np.array_equal(dom.arm, ref.arm)
            assert dom.dropped_area == ref.dropped_area

    @pytest.mark.parametrize("h", [1.0 / 16, 1.0 / 32])
    def test_arms_match_closed_forms(self, h):
        # bisected arms against the closed-form roots, on builds where no
        # lattice row is tangent to the boundary
        eps = np.finfo(float).eps
        for shape in _seeded_shapes(h):
            dom = build_domain(shape, h)
            k, d = np.nonzero(dom.nbr < 0)
            ref = np.array([h * _axis_cut_loop(shape, x, y, DIRS[dd], h)
                            for (x, y), dd in zip(dom.xy[k], d)])
            scale = np.maximum(1.0, np.abs(dom.xy[k]).max(axis=1))
            assert np.all(np.abs(dom.arm[k, d] - ref) <= 4.0 * eps * scale)

    @pytest.mark.parametrize("h", [1.0 / 16, 1.0 / 32])
    def test_weight_scatter_equals_loop(self, h):
        for shape in _seeded_shapes(h):
            dom = build_domain(shape, h)
            weights, dropped = _cell_weights_loop(shape, dom)
            assert np.array_equal(dom.weights, weights)
            assert dom.dropped_area == dropped

    def test_dropped_area_equals_loop(self):
        h = 1.0 / 8
        shape = _disc_with_speck(h)
        dom = build_domain(shape, h)
        weights, dropped = _cell_weights_loop(shape, dom)
        assert dropped > 0.0
        assert dom.dropped_area == dropped
        assert np.array_equal(dom.weights, weights)

    def test_crossings_equal_loop(self):
        h = 1.0 / 8
        for shape in _seeded_shapes(h, count=1):
            xs = shape.cx + h * np.arange(-12, 13)
            x, y = (a.ravel() for a in np.meshgrid(xs, xs - shape.cx + shape.cy))
            areas = _clip_cell_areas(shape, x, y, h)
            ref = [_clip_cell_area_loop(shape, a, b, h) for a, b in zip(x, y)]
            assert np.array_equal(areas, ref)

    def test_interpolation_equals_loop(self, disc64, annulus64, torsion_result):
        rng = np.random.default_rng(5)
        for dom in (disc64, annulus64):
            values = rng.standard_normal(dom.n_interior)
            near = np.concatenate([dom.bpts - s * dom.h * dom.bnu for s in (0.5, 1.5, 3.0)])
            far = rng.uniform(-1.3, 1.3, size=(500, 2))  # outside, in the hole, off the grid
            pts = np.vstack([near, far, [[0.0, 0.0], [5.0, -5.0]]])
            assert np.array_equal(interpolate_node_field(dom, values, pts),
                                  _interpolate_loop(dom, values, pts))
        grad = torsion_result.grad[:, 0]
        assert np.array_equal(interpolate_node_field(disc64, grad, [0.1, 0.2]),
                              _interpolate_loop(disc64, grad, [0.1, 0.2]))
        # lattice nodes and cell midpoints: equal corner weights, where the
        # fallback breaks ties between interior corners
        for shape in (DISC, ANNULUS):
            dom = build_domain(shape, 1.0 / 16)
            values = rng.standard_normal(dom.n_interior)
            X, Y = np.meshgrid(dom.gx0 + 0.5 * dom.h * np.arange(2 * dom.nx),
                               dom.gy0 + 0.5 * dom.h * np.arange(2 * dom.ny))
            pts = np.column_stack([X.ravel(), Y.ravel()])
            assert np.array_equal(interpolate_node_field(dom, values, pts),
                                  _interpolate_loop(dom, values, pts))


# ---------------------------------------------------------------------------
# the difference operators as they were built outside the domain, one COO
# term list per stencil branch, as references for the domain's members
# ---------------------------------------------------------------------------

def _gradient_operators_ref(domain):
    n = domain.n_interior
    ops = []
    for d_plus, d_minus in ((0, 1), (2, 3)):
        b = domain.arm[:, d_plus]
        a = domain.arm[:, d_minus]
        rows, cols, vals = [], [], []
        idx = np.arange(n)
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
    return ops


def _interior_diff_ops_ref(domain):
    n, h, nbr = domain.n_interior, domain.h, domain.nbr
    idx = np.arange(n)
    ops = []
    for d_plus, d_minus in ((0, 1), (2, 3)):
        jp, jm = nbr[:, d_plus], nbr[:, d_minus]
        jpp = np.where(jp >= 0, nbr[jp, d_plus], -1)
        jmm = np.where(jm >= 0, nbr[jm, d_minus], -1)
        forward = (jp >= 0) & (jm < 0)
        backward = (jm >= 0) & (jp < 0)
        stencils = [
            ((jp >= 0) & (jm >= 0), [(jp, 0.5), (jm, -0.5)]),
            (forward & (jpp >= 0), [(idx, -1.5), (jp, 2.0), (jpp, -0.5)]),
            (forward & (jpp < 0), [(idx, -1.0), (jp, 1.0)]),
            (backward & (jmm >= 0), [(idx, 1.5), (jm, -2.0), (jmm, 0.5)]),
            (backward & (jmm < 0), [(idx, 1.0), (jm, -1.0)]),
        ]
        rows, cols, vals = [], [], []
        for mask, terms in stencils:
            for col, c in terms:
                rows.append(idx[mask])
                cols.append(col[mask])
                vals.append(np.full(np.count_nonzero(mask), c / h))
        ops.append(sparse.csr_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(n, n)))
    return ops


class TestDomainOperators:
    @pytest.mark.parametrize("h", [1.0 / 16, 1.0 / 40])
    @pytest.mark.parametrize("shape", [DISC, ANNULUS, ELLIPSE, RECT], ids=lambda s: s.kind)
    def test_operators_equal_references(self, shape, h):
        dom = build_domain(shape, h)
        for ops, refs in ((dom.grad_ops, _gradient_operators_ref(dom)),
                          (dom.diff_ops, _interior_diff_ops_ref(dom))):
            for op, ref in zip(ops, refs, strict=True):
                assert np.array_equal(op.indptr, ref.indptr)
                assert np.array_equal(op.indices, ref.indices)
                assert np.array_equal(op.data, ref.data)

    def test_operators_built_once_at_first_use(self):
        dom = build_domain(DISC, 1.0 / 16)
        assert "grad_ops" not in vars(dom) and "diff_ops" not in vars(dom)
        assert dom.grad_ops is dom.grad_ops
        assert dom.diff_ops is dom.diff_ops

    def test_domain_is_frozen(self):
        dom = build_domain(DISC, 1.0 / 16)
        with pytest.raises(dataclasses.FrozenInstanceError):
            dom.h = 0.5
        with pytest.raises(dataclasses.FrozenInstanceError):
            dom._cache = ()

    def test_stacked_values_interpolate_column_by_column(self, annulus64):
        values = np.random.default_rng(9).standard_normal((annulus64.n_interior, 3))
        pts = np.vstack([annulus64.bpts - 3.0 * annulus64.h * annulus64.bnu,
                         [[0.0, 0.0], [5.0, -5.0]]])
        stacked = interpolate_node_field(annulus64, values, pts)
        assert stacked.shape == (len(pts), 3)
        for k in range(3):
            assert np.array_equal(stacked[:, k],
                                  interpolate_node_field(annulus64, values[:, k], pts))


#: every branch of the cut-cell formula
BRANCHES = {"rectangle", "full", "empty", "centre", "saddle", "chord", "out_of_range"}


class TestCutCellBranches:
    """Shapes that reach the fallbacks of the cut-cell formula.  No circle
    makes a saddle cell (the British flag theorem), so two specks sit on
    one cell's diagonal corners; a speck of radius 0.3 h around a node
    covers its cell's centre and no corner; a thin ellipse leaves the
    centres of its tip cells inside, and the tip curvature A / B^2 pushes
    the sagitta-corrected chord areas past h^2."""

    H = 1.0 / 8
    SHAPES = {
        "saddle": _DiscWithSpecks((8.5 * H, 8.5 * H, 0.2 * H), (9.5 * H, 9.5 * H, 0.2 * H)),
        "centre": _DiscWithSpecks((9.0 * H, -9.0 * H, 0.3 * H)),
        "thin_ellipse": make_shape("ellipse", [1.0, 0.1]),
    }

    @pytest.mark.parametrize("name,branch", [("saddle", "saddle"), ("centre", "centre"),
                                             ("thin_ellipse", "centre"),
                                             ("thin_ellipse", "out_of_range")])
    def test_fallback_equals_loop(self, name, branch, monkeypatch):
        shape, h = self.SHAPES[name], self.H
        dom = build_domain(shape, h)
        cut_i, cut_j, _ = _cut_cells(shape, dom)
        x, y = dom.gx0 + cut_i * h, dom.gy0 + cut_j * h
        branches, ref = zip(*(_clip_cell_area_branch(shape, a, b, h) for a, b in zip(x, y)))
        assert branch in branches
        assert np.array_equal(_clip_cell_areas(shape, x, y, h), ref)
        with monkeypatch.context() as m:
            m.setattr(geometry, "_clip_cell_areas", _clip_cell_areas_loop)
            loop_dom = build_domain(shape, h)
        assert np.array_equal(dom.weights, loop_dom.weights)
        assert dom.dropped_area == loop_dom.dropped_area

    def test_every_branch_equals_loop(self):
        # every lattice cell, not only the clipped ones, so full cells count
        h, hits = self.H, Counter()
        for shape in [*self.SHAPES.values(), *_seeded_shapes(h, count=1)]:
            dom = build_domain(shape, h)
            X, Y = np.meshgrid(dom.gx0 + np.arange(dom.nx) * h,
                               dom.gy0 + np.arange(dom.ny) * h, indexing="ij")
            x, y = X.ravel(), Y.ravel()
            branches, ref = zip(*(_clip_cell_area_branch(shape, a, b, h)
                                  for a, b in zip(x, y)))
            hits.update(branches)
            assert np.array_equal(_clip_cell_areas(shape, x, y, h), ref)
        assert set(hits) == BRANCHES


class TestBoundedDistance:
    def test_exact_in_collar_inf_beyond(self):
        for shape in _seeded_shapes(1.0 / 32, count=1):
            dom = build_domain(shape, 1.0 / 32)
            full, _ = cKDTree(dom.bpts).query(dom.xy)
            bound = MAX_COLLAR_DEPTH * dom.h
            near = full <= bound
            assert np.array_equal(dom.dist[near], full[near])
            assert np.all(np.isinf(dom.dist[~near]))
            for depth in (1.0, MAX_COLLAR_DEPTH):
                assert np.array_equal(dom.core_mask(depth), full >= depth * dom.h - 1e-12)
            with pytest.raises(ValueError):
                dom.core_mask(MAX_COLLAR_DEPTH + 1.0)
