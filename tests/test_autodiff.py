"""Dual-number jets against central finite differences of the plain values."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_numpy_operands_lift_into_one_jet():
    # a float64 or an ndarray on the left reaches Dual2's reflected operator
    # rather than building an object array of jets
    d = Dual2(np.array([0.5, 2.0]), dp=np.array([1.0, -1.0]), dpq=np.array([0.25, 3.0]))
    for left, plain in [(np.ones(2), 1.0), (np.float64(2.0), 2.0)]:
        for out, ref in [(left * d, d * plain), (left + d, d + plain),
                         (left - d, -d + plain), (left / d, d.reciprocal() * plain)]:
            assert isinstance(out, Dual2)
            for name in Dual2.__slots__:
                assert np.array_equal(getattr(out, name), getattr(ref, name))


def test_negative_p_rejected():
    with pytest.raises(ValueError):
        eval_jet(MODELS[0], -0.1, 0.0)


def _grow(sub):
    """Expression trees one level deeper than ``sub``; every argument of
    ``/``, ``log`` and ``sqrt`` and every base of a power is kept positive,
    and the argument of ``exp`` and a variable exponent within [-1/2, 1/2]."""
    def bounded(a):
        return f"{a} / (1 + {a}*{a})"
    return st.one_of(
        st.tuples(sub, st.sampled_from("+-*"), sub).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.tuples(sub, sub).map(lambda t: f"({t[0]} / (1 + {t[1]}*{t[1]}))"),
        st.tuples(sub, st.sampled_from(["2", "3", "0.5", "1.5", "-1"])).map(
            lambda t: f"(1 + {t[0]}*{t[0]}) ** {t[1]}"),
        st.tuples(sub, sub).map(lambda t: f"(1 + {t[0]}*{t[0]}) ** ({bounded(t[1])})"),
        sub.map(lambda a: f"exp({bounded(a)})"),
        sub.map(lambda a: f"log(1 + {a}*{a})"),
        sub.map(lambda a: f"sqrt(1 + {a}*{a})"))


EXPRESSIONS = st.recursive(st.sampled_from(["p", "q", "0.5", "2"]), _grow, max_leaves=5)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(EXPRESSIONS, st.floats(0.2, 1.0), st.floats(0.2, 1.0))
def test_random_expression_jets_match_central_differences(text, p, q):
    # first-order entries against central differences of the value, second
    # order against central differences of the first-order entries
    d = 1e-6
    jet = eval_jet(make_expression_model(text), np.array([p, p + d, p - d, p, p]),
                   np.array([q, q, q, q + d, q - d]))
    scale = max(1.0, *(float(np.max(np.abs(e))) for e in dataclasses.astuple(jet)))
    for exact, fd in [(jet.F_p, jet.F), (jet.F_pp, jet.F_p), (jet.F_pq, jet.F_q)]:
        assert abs(exact[0] - (fd[1] - fd[2]) / (2 * d)) <= 1e-6 * scale
    for exact, fd in [(jet.F_q, jet.F), (jet.F_qq, jet.F_q), (jet.F_pq, jet.F_p)]:
        assert abs(exact[0] - (fd[3] - fd[4]) / (2 * d)) <= 1e-6 * scale
