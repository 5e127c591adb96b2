"""Domain building, normals/curvature, star margins and quadrature."""

import math
import random

import numpy as np
import pytest

from emlab.errors import DegenerateGridError
from emlab.geometry import (
    build_domain,
    boundary_geometry,
    boundary_integral,
    make_shape,
    star_center_margin,
    volume_integral,
)

DISC = make_shape("disc", [1.0])
ANNULUS = make_shape("annulus", [0.3, 1.0])
ELLIPSE = make_shape("ellipse", [2.0, 1.0])
RECT = make_shape("rectangle", [2.0, 1.0])


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

    def test_high_aspect_ellipse_area(self):
        shape = make_shape("ellipse", [2.0, 0.5])
        dom = build_domain(shape, 1.0 / 32)
        area = volume_integral(dom, np.ones(dom.n_interior))
        assert area == pytest.approx(shape.area(), rel=1e-6)
        assert dom.dropped_area == 0.0

    def test_offset_center_disc(self):
        shape = make_shape("disc", [0.7], center=(0.33, -0.21))
        dom = build_domain(shape, 1.0 / 32)
        area = volume_integral(dom, np.ones(dom.n_interior))
        assert area == pytest.approx(shape.area(), rel=1e-6)

    def test_annulus_has_two_boundary_components(self):
        dom = build_domain(ANNULUS, 1.0 / 64)
        assert dom.boundary_component_count == 2

    def test_cut_arms_within_one_spacing(self):
        dom = build_domain(DISC, 1.0 / 16)
        cut = dom.boundary_adjacent
        assert cut.any()
        arms = dom.arm[cut]
        faces = dom.nbr[cut] < 0
        assert np.all(arms[faces] > 0.0)
        assert np.all(arms[faces] <= dom.h + 1e-12)
        # the cut endpoint sits on the boundary
        for k in np.nonzero(cut)[0][:20]:
            for d in range(4):
                if dom.nbr[k, d] < 0:
                    from emlab.geometry import DIRS
                    pt = dom.xy[k] + DIRS[d] * dom.arm[k, d]
                    nu, _ = boundary_geometry(DISC, pt, tol=1e-9)
                    assert np.linalg.norm(nu) == pytest.approx(1.0, abs=1e-12)

    def test_weights_sum_to_area(self):
        for shape in (DISC, ELLIPSE, RECT):
            dom = build_domain(shape, 1.0 / 32)
            assert np.sum(dom.weights) == pytest.approx(shape.area(), rel=2e-4)

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


class TestOffsetCenters:
    """Sub-cell center offsets put lattice nodes on the boundary up to
    rounding (the lattice is centered on the shape); such nodes must be
    exterior rather than get an axis cut of about 1e-16 h."""

    SHAPES = [("disc", [1.0]), ("annulus", [0.3, 1.0]),
              ("ellipse", [1.0, 0.5]), ("rectangle", [2.0, 1.0])]

    @pytest.mark.parametrize("h", [1.0 / 32, 1.0 / 64])
    @pytest.mark.parametrize("kind,params", SHAPES)
    def test_seeded_offsets_build(self, kind, params, h):
        from emlab.geometry import DIRS, ON_BOUNDARY_TOL
        rng = random.Random(20261018)
        for _ in range(5):
            shape = make_shape(kind, params, center=(rng.random() * h, rng.random() * h))
            dom = build_domain(shape, h)
            faces = dom.nbr < 0
            arms = dom.arm[faces]
            assert np.all(arms > 0.5 * ON_BOUNDARY_TOL * h)
            assert np.all(arms <= h)
            # every cut arm ends on the boundary
            for k, d in zip(*np.nonzero(faces)):
                boundary_geometry(shape, dom.xy[k] + DIRS[d] * dom.arm[k, d], tol=1e-9)


class TestBoundaryGeometry:
    def test_disc_curvature(self):
        nu, H = boundary_geometry(DISC, (1.0, 0.0))
        assert H == pytest.approx(1.0)
        assert nu == pytest.approx([1.0, 0.0])

    def test_annulus_inner_curvature_negative(self):
        nu, H = boundary_geometry(ANNULUS, (0.3, 0.0))
        assert H == pytest.approx(-1.0 / 0.3)
        assert nu == pytest.approx([-1.0, 0.0])

    def test_rectangle_edge_flat(self):
        nu, H = boundary_geometry(RECT, (1.0, 0.2))
        assert H == 0.0
        assert nu == pytest.approx([1.0, 0.0])

    def test_off_boundary_rejected(self):
        with pytest.raises(ValueError):
            boundary_geometry(DISC, (0.5, 0.0))

    def test_ellipse_curvature_endpoints(self):
        # kappa = A*B / (A^2 sin^2 + B^2 cos^2)^{3/2}
        _, H = boundary_geometry(ELLIPSE, (2.0, 0.0))
        assert H == pytest.approx(2.0)  # A/B^2
        _, H = boundary_geometry(ELLIPSE, (0.0, 1.0))
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
        val = volume_integral(dom, lambda x, y: (x**2 + y**2 - 1.0) / 4.0)
        assert val == pytest.approx(-math.pi / 8.0, abs=0.01)

    def test_smooth_integrand_halving_factor(self):
        def f(x, y):
            return np.cos(1.3 * x) * np.exp(0.5 * y)

        # reference value from fine-grid quadrature
        ref = volume_integral(build_domain(DISC, 1.0 / 256), f)
        errs = [abs(volume_integral(build_domain(DISC, hh), f) - ref)
                for hh in (1.0 / 32, 1.0 / 64)]
        assert errs[0] / errs[1] >= 1.8

    def test_core_mask_excludes_collar(self):
        dom = build_domain(DISC, 1.0 / 32)
        core = dom.core_mask()
        r = np.hypot(dom.xy[core, 0], dom.xy[core, 1])
        assert np.all(r <= 1.0 - 2.0 * dom.h + dom.h / 2)
        assert core.sum() < dom.n_interior
