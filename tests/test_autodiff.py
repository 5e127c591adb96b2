"""Dual-number jets against central finite differences of the plain values."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emlab.autodiff import Dual2
from emlab.errors import EvaluationError
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


class DenseDual2(Dual2):
    """The all-array jet algebra that ``Dual2`` replaced, kept as a reference:
    an array seed's partial is a ones array, and every term of a sum is
    formed and added, zero or not.  A subclass, so that the model
    compiler's ``exp``, ``log`` and ``sqrt`` dispatch to its methods."""

    __slots__ = ()

    @staticmethod
    def var_p(value):
        one = np.ones_like(value) if isinstance(value, np.ndarray) else 1.0
        return DenseDual2(value, dp=one)

    @staticmethod
    def var_q(value):
        one = np.ones_like(value) if isinstance(value, np.ndarray) else 1.0
        return DenseDual2(value, dq=one)

    def _lift(other):
        return other if isinstance(other, DenseDual2) else DenseDual2(other)

    def __add__(self, other):
        o = DenseDual2._lift(other)
        return DenseDual2(self.v + o.v, self.dp + o.dp, self.dq + o.dq,
                          self.dpp + o.dpp, self.dpq + o.dpq, self.dqq + o.dqq)

    __radd__ = __add__

    def __neg__(self):
        return DenseDual2(-self.v, -self.dp, -self.dq, -self.dpp, -self.dpq, -self.dqq)

    def __sub__(self, other):
        return self + (-DenseDual2._lift(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = DenseDual2._lift(other)
        return DenseDual2(
            self.v * o.v,
            self.dp * o.v + self.v * o.dp,
            self.dq * o.v + self.v * o.dq,
            self.dpp * o.v + 2.0 * self.dp * o.dp + self.v * o.dpp,
            self.dpq * o.v + self.dp * o.dq + self.dq * o.dp + self.v * o.dpq,
            self.dqq * o.v + 2.0 * self.dq * o.dq + self.v * o.dqq,
        )

    __rmul__ = __mul__

    def _chain(self, f0, f1, f2):
        return DenseDual2(
            f0,
            f1 * self.dp,
            f1 * self.dq,
            f2 * self.dp * self.dp + f1 * self.dpp,
            f2 * self.dp * self.dq + f1 * self.dpq,
            f2 * self.dq * self.dq + f1 * self.dqq,
        )

    def __truediv__(self, other):
        return self * DenseDual2._lift(other).reciprocal()

    def __pow__(self, exponent):
        if isinstance(exponent, Dual2):
            return (exponent * self.log()).exp()
        n = exponent
        if n == 0:
            return DenseDual2(np.ones_like(self.v) if isinstance(self.v, np.ndarray) else 1.0)
        if n == 1:
            return DenseDual2(self.v, self.dp, self.dq, self.dpp, self.dpq, self.dqq)
        if n == 2:
            return self * self
        v = self.v
        return self._chain(np.power(v, n), n * np.power(v, n - 1),
                           n * (n - 1) * np.power(v, n - 2))


def dense_jet(model, p, q):
    """The six entries of F's jet at (p, q) by the ``DenseDual2`` algebra,
    broadcast to the inputs' shape."""
    p_arr, q_arr = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    with np.errstate(all="ignore"):
        out = DenseDual2._lift(model.evaluator(DenseDual2.var_p(p_arr),
                                               DenseDual2.var_q(q_arr)))
    shape = np.broadcast_shapes(p_arr.shape, q_arr.shape)
    return [np.broadcast_to(np.asarray(e, dtype=float), shape)
            for e in (out.v, out.dp, out.dq, out.dpp, out.dpq, out.dqq)]


def assert_matches_dense(model, p, q):
    """Every ``eval_jet`` entry equals the dense algebra's in value (a zero
    may differ in sign); arrays in give entries of the inputs' shape, scalars
    in give floats."""
    jet = vars(eval_jet(model, p, q)).values()  # astuple would copy the entries
    shape = np.broadcast_shapes(np.shape(p), np.shape(q))
    for entry, ref in zip(jet, dense_jet(model, p, q), strict=True):
        if shape:
            assert isinstance(entry, np.ndarray) and entry.shape == shape
        else:
            assert type(entry) is float
        assert np.array_equal(entry, ref)


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
def test_jets_match_dense_algebra(model):
    ps, qs = (np.array(c) for c in zip(*POINTS))
    assert_matches_dense(model, ps, qs)
    assert_matches_dense(model, ps[:, None], qs)  # a (4, 4) grid of points
    assert_matches_dense(model, 0.5, qs)
    for p, q in POINTS:
        assert_matches_dense(model, p, q)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(EXPRESSIONS, st.floats(0.2, 1.0), st.floats(0.2, 1.0))
def test_random_expression_jets_match_dense_algebra(text, p, q):
    model = make_expression_model(text)
    assert_matches_dense(model, np.array([p, 0.5 * p, 2.0 * p]), np.array([q, -q, 0.0]))
    assert_matches_dense(model, p, q)


def test_jet_entries_never_alias_inputs():
    # F = p and F_p = q of p * q pass an input through; the jet holds copies
    p, q = np.array([0.5, 2.0]), np.array([1.0, 3.0])
    for text in ("p", "p * q"):
        jet = eval_jet(make_expression_model(text), p, q)
        for entry in vars(jet).values():
            assert not np.shares_memory(entry, p) and not np.shares_memory(entry, q)


def test_structural_zero_annihilates_a_singular_factor():
    # 0 * sqrt(p) is the constant 0, so its partials at p = 0 are zeros,
    # where the all-array algebra multiplied 0 by sqrt's infinite slope;
    # sqrt(p) itself stays singular there
    model = make_expression_model("0 * sqrt(p)")
    assert dataclasses.astuple(eval_jet(model, 0.0, 0.5)) == (0.0,) * 6
    assert np.isnan(dense_jet(model, 0.0, 0.5)[1])
    for p in (0.0, np.array([1.0, 0.0])):
        with pytest.raises(EvaluationError):
            eval_jet(make_expression_model("sqrt(p)"), p, 0.5)


@pytest.mark.parametrize("model,floats", [
    (make_model("dirichlet_affine", [0.5, 1.0]), 8),
    (make_expression_model("sqrt(1 + p**2) + q"), 13),
], ids=["dirichlet_affine", "sqrt(1 + p**2) + q"])
def test_jet_peak_memory(model, floats):
    # a partial that is constant over the field stays one float, so the jet
    # of n points peaks at a few n floats above its inputs (all-array seeds:
    # 20 n and 17 n)
    n = 50_000
    rng = np.random.default_rng(3)
    p, q = rng.uniform(0.0, 1.0, n), rng.uniform(-1.0, 1.0, n)
    eval_jet(model, p, q)
    tracemalloc.start()
    try:
        jet = eval_jet(model, p, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert jet.F.shape == (n,)
    assert peak <= floats * n * 8
