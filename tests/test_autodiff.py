"""Dual-number jets against central finite differences of the plain values."""

import dataclasses

import numpy as np
import pytest

from emlab.autodiff import Dual2
from emlab.lagrangian import eval_jet, make_model, make_expression_model

MODELS = [
    make_model("dirichlet_affine", [0.5, 1.0]),
    make_model("dirichlet_exponential", [1.0, 1.0]),
    make_model("dirichlet_power", [0.5, 3]),
    make_model("power_dirichlet", [4.0, 0.0, 1.0]),
    make_model("minimal_surface", [2.0, 1.0]),
    make_expression_model("0.5*p**2 + exp(q) + log(1 + p*p) - q/3", smooth_at_origin=True),
]

POINTS = [(1.0, 0.0), (0.3, -2.0), (2.0, 1.0), (0.7, 0.4)]


def fd_jet(model, p, q, step):
    """Second-order central differences of the value channel only."""
    def f(pp, qq):
        return eval_jet(model, pp, qq).F

    d = step
    return {
        "F_p": (f(p + d, q) - f(p - d, q)) / (2 * d),
        "F_q": (f(p, q + d) - f(p, q - d)) / (2 * d),
        "F_pp": (f(p + d, q) - 2 * f(p, q) + f(p - d, q)) / d**2,
        "F_qq": (f(p, q + d) - 2 * f(p, q) + f(p, q - d)) / d**2,
        "F_pq": (f(p + d, q + d) - f(p + d, q - d) - f(p - d, q + d) + f(p - d, q - d)) / (4 * d**2),
    }


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
@pytest.mark.parametrize("point", POINTS)
def test_jets_match_central_differences(model, point):
    p, q = point
    jet = eval_jet(model, p, q)
    fd = fd_jet(model, p, q, 1e-5)
    assert jet.F_p == pytest.approx(fd["F_p"], abs=1e-8)
    assert jet.F_q == pytest.approx(fd["F_q"], abs=1e-8)
    assert jet.F_pp == pytest.approx(fd["F_pp"], abs=1e-4)
    assert jet.F_qq == pytest.approx(fd["F_qq"], abs=1e-4)
    assert jet.F_pq == pytest.approx(fd["F_pq"], abs=1e-4)


@pytest.mark.parametrize("model", [MODELS[i] for i in (1, 2, 4, 5)],
                         ids=lambda m: m.name)
def test_first_derivative_fd_order_at_least_1p9(model):
    # halving the step must shrink |jet - central difference| at order >= 1.9;
    # restricted to models whose difference error is nonzero (for polynomial
    # integrands the central differences are exact and the ratio is noise)
    p, q = 0.7, 0.4
    jet = eval_jet(model, p, q)
    errs = []
    for d in (1e-2, 5e-3):
        fd = fd_jet(model, p, q, d)
        errs.append(max(abs(jet.F_p - fd["F_p"]), abs(jet.F_q - fd["F_q"])))
    order = np.log2(errs[0] / errs[1])
    assert order >= 1.9


def test_vectorized_matches_scalar():
    model = MODELS[1]
    ps = np.array([0.1, 0.9, 2.0])
    qs = np.array([-1.0, 0.0, 0.5])
    vec = eval_jet(model, ps, qs)
    for i in range(3):
        scal = eval_jet(model, ps[i], qs[i])
        for a, b in zip(dataclasses.astuple(vec), dataclasses.astuple(scal)):
            assert a[i] == pytest.approx(b, rel=1e-15)


def test_arithmetic_identities():
    x = Dual2.var_p(0.8)
    y = Dual2.var_q(-0.3)
    expr = (x * y + 1.0) / (x + 2.0) - (x - y) ** 3
    # compare against an independent hand expansion via numpy polynomials
    def f(p, q):
        return (p * q + 1.0) / (p + 2.0) - (p - q) ** 3

    d = 1e-5
    assert expr.v == pytest.approx(f(0.8, -0.3))
    assert expr.dp == pytest.approx((f(0.8 + d, -0.3) - f(0.8 - d, -0.3)) / (2 * d), abs=1e-8)
    assert expr.dpq == pytest.approx(
        (f(0.8 + d, -0.3 + d) - f(0.8 + d, -0.3 - d)
         - f(0.8 - d, -0.3 + d) + f(0.8 - d, -0.3 - d)) / (4 * d**2), abs=1e-4)


def test_negative_p_rejected():
    with pytest.raises(ValueError):
        eval_jet(MODELS[0], -0.1, 0.0)
