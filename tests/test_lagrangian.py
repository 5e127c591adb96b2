"""Model jets, divergence coefficients, hypothesis checks, identity residual."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emlab import autodiff as ad
from emlab.errors import EvaluationError, OriginLimitError
from emlab.lagrangian import (
    CATALOG,
    PILOT_BOX,
    candidate_p2_derivative,
    check_hypotheses,
    divergence_coefficients,
    eval_jet,
    halton_samples,
    make_expression_model,
    make_model,
    pfunction_identity_residual,
)

TORSION = make_model("dirichlet_affine", [0.5, 1.0])          # F = p^2/2 + q + 1/2
SHIFTED = make_model("dirichlet_affine", [-0.2, 1.0])         # F = p^2/2 + q - 0.2
EXP = make_model("dirichlet_exponential", [1.0, 1.0])         # F = p^2/2 + e^q
QUARTIC = make_model("power_dirichlet", [4.0, 0.0, 1.0])      # F = p^4/4 + q
MINSURF = make_model("minimal_surface", [0.0, 0.0])           # F = sqrt(1 + p^2)

def ellipticity_coefficient(model, p, q):
    """g + 2 p^2 dg/dp2, rebuilt from quotient pieces; equals F_pp analytically."""
    jet = eval_jet(model, p, q)
    g = jet.F_p / p
    dg_dp2 = (p * jet.F_pp - jet.F_p) / (2.0 * p ** 3)
    return g + 2.0 * p ** 2 * dg_dp2


CATALOG_MODELS = [TORSION, SHIFTED, EXP, QUARTIC, MINSURF,
                  make_model("dirichlet_power", [0.5, 3]),
                  make_model("minimal_surface", [2.0, 1.0])]


class TestEvalJet:
    def test_torsion_point(self):
        jet = eval_jet(TORSION, 1.0, 0.0)
        assert jet.F == pytest.approx(1.0)  # 1/2 + 0 + 1/2
        assert jet.F_p == pytest.approx(1.0)
        assert jet.F_q == pytest.approx(1.0)
        assert jet.F_pp == pytest.approx(1.0)
        assert jet.F_pq == pytest.approx(0.0, abs=1e-15)

    def test_minimal_surface_origin(self):
        jet = eval_jet(MINSURF, 0.0, 3.7)
        assert jet.F == pytest.approx(1.0)
        assert jet.F_p == pytest.approx(0.0, abs=1e-15)
        assert jet.F_pp == pytest.approx(1.0)

    def test_exponential_second_derivatives(self):
        jet = eval_jet(EXP, 2.0, 1.0)
        assert jet.F_pq == pytest.approx(0.0, abs=1e-15)
        assert jet.F_qq == pytest.approx(math.e, rel=1e-12)


class TestDivergenceCoefficients:
    def test_quadratic_family_gives_laplacian(self):
        for p in (0.0, 0.3, 2.0):
            g, h = divergence_coefficients(TORSION, p, -0.1)
            assert g == pytest.approx(1.0)
            assert h == pytest.approx(-1.0)

    def test_minimal_surface_origin_limit(self):
        g, _ = divergence_coefficients(MINSURF, 0.0, 0.0)
        assert g == pytest.approx(1.0)

    def test_quartic_origin_limit_matches_extrapolation(self):
        g0, _ = divergence_coefficients(QUARTIC, 0.0, 0.0)
        assert g0 == pytest.approx(0.0, abs=1e-15)
        # g(p) = p^2: Richardson extrapolation of samples at 1e-3, 1e-4 -> 0
        g1, _ = divergence_coefficients(QUARTIC, 1e-3, 0.0)
        g2, _ = divergence_coefficients(QUARTIC, 1e-4, 0.0)
        assert g1 == pytest.approx(1e-6, rel=1e-10)
        extrapolated = g2 + (g2 - g1) / (10.0**2 - 1.0) * 1.0
        assert abs(extrapolated) < 1e-7

    def test_non_smooth_origin_raises(self):
        model = make_expression_model("p + q*q")  # F_p(0, q) = 1 != 0
        with pytest.raises(OriginLimitError):
            divergence_coefficients(model, 0.0, 0.0)


class TestCheckHypotheses:
    def test_torsion_box(self):
        rep = check_hypotheses(TORSION, box=((0.0, 1.0), (-0.25, 0.0)))
        assert rep.convexity_ok
        assert rep.case2_ok
        assert rep.monotone_q_ok
        assert rep.min_F == pytest.approx(0.25)  # corner p=0, q=-1/4
        assert rep.min_F_pp == pytest.approx(1.0)

    def test_shifted_box_is_case3(self):
        rep = check_hypotheses(SHIFTED, box=((0.0, 0.5), (-0.25, 0.0)))
        assert rep.case3_ok
        assert not rep.case2_ok
        assert rep.max_F == pytest.approx(-0.075)
        assert rep.min_p_F_p_minus_F == pytest.approx(0.2)

    def test_minimal_surface_always_case2(self):
        rep = check_hypotheses(MINSURF, box=((0.0, 3.0), (-5.0, 5.0)))
        assert rep.case2_ok
        assert not rep.case3_ok
        assert rep.min_F >= 1.0

    def test_witnesses_reproduce(self):
        rep = check_hypotheses(QUARTIC, box=((0.0, 1.0), (-1.0, 1.0)))
        assert not rep.convexity_ok  # F_pp = 3p^2 vanishes at p = 0
        p, q, value = rep.violation_witnesses["convexity"]
        assert eval_jet(QUARTIC, p, q).F_pp == pytest.approx(value, abs=1e-15)
        assert value <= 0.0

    def test_false_origin_smoothness_claim_witnessed(self):
        # declared smooth but F_p(0, q) = 1: the claim must be caught
        model = make_expression_model("p + 0.5*p**2 + q", smooth_at_origin=True)
        rep = check_hypotheses(model, box=((0.0, 1.0), (-1.0, 1.0)))
        assert not rep.origin_smooth_ok
        _, q, value = rep.violation_witnesses["origin_smoothness"]
        assert value == pytest.approx(1.0)

    @pytest.mark.parametrize("expression, smooth, expected", [
        ("q*q - 0.5*p*p", False,
         {"convexity_ok": False, "min_F_pp": -1.0, "case2_ok": False, "min_F": -0.5,
          "case3_ok": False, "max_F": 1.0, "min_p_F_p_minus_F": -1.5,
          "monotone_q_ok": False, "min_F_q": -2.0, "origin_smooth_ok": True,
          "sample_box": ((0.0, 1.0), (-1.0, 1.0)), "samples": 521,
          "violation_witnesses": {"convexity": (0.0, -1.0, -1.0), "case2": (0.0, 0.0, 0.0),
                                  "case3": (0.0, -1.0, 1.0),
                                  "monotone_q": (0.0, -1.0, -2.0)}}),
        ("-2*p*p - 0.1", False,
         {"convexity_ok": False, "min_F_pp": -4.0, "case2_ok": False, "min_F": -2.1,
          "case3_ok": False, "max_F": -0.1, "min_p_F_p_minus_F": -1.9,
          "monotone_q_ok": True, "min_F_q": 0.0, "origin_smooth_ok": True,
          "sample_box": ((0.0, 1.0), (-1.0, 1.0)), "samples": 521,
          "violation_witnesses": {"convexity": (0.0, -1.0, -4.0), "case2": (0.0, -1.0, -0.1),
                                  "case3": (1.0, -1.0, -1.9)}}),
        ("p + q*q*q", True,
         {"convexity_ok": False, "min_F_pp": 0.0, "case2_ok": False, "min_F": -1.0,
          "case3_ok": False, "max_F": 2.0, "min_p_F_p_minus_F": -1.0,
          "monotone_q_ok": True, "min_F_q": 0.0, "origin_smooth_ok": False,
          "sample_box": ((0.0, 1.0), (-1.0, 1.0)), "samples": 521,
          "violation_witnesses": {"convexity": (0.0, -1.0, 0.0), "case2": (0.0, -1.0, -1.0),
                                  "case3": (0.0, 1.0, 1.0),
                                  "origin_smoothness": (0.0, -1.0, 1.0)}})])
    def test_pilot_box_report_pinned(self, expression, smooth, expected):
        # every witness kind, and case 3 witnessed by F >= 0 (the first and
        # third) and by p F_p - F <= 0 (the second); repr pins signed zeros.
        # The identity residual is rounding noise, so it is bounded, not pinned.
        model = make_expression_model(expression, smooth_at_origin=smooth)
        report = check_hypotheses(model, box=PILOT_BOX).as_dict()
        assert report.pop("identity_residual_max") <= 1e-13
        assert repr(report) == repr(expected)

    def test_catalog_models_origin_smooth(self):
        for model in CATALOG_MODELS:
            rep = check_hypotheses(model, box=((0.0, 1.0), (-1.0, 1.0)))
            assert rep.origin_smooth_ok

    @pytest.mark.parametrize("model", CATALOG_MODELS, ids=lambda m: m.name)
    def test_identity_residual_over_positive_p(self, model):
        # the 9 fixed points and 512 Halton samples, less the 3 fixed points
        # on the p = 0 edge, where the identity is undefined
        box = ((0.0, 2.0), (-2.0, 2.0))
        rep = check_hypotheses(model, box=box)
        assert rep.samples == 521
        fixed = [(p, q) for p in (2.0, 1.0) for q in (-2.0, 2.0, 0.0)]
        pts = np.vstack([fixed, halton_samples(512, box)])
        res = identity_residual(model, pts[:, 0], pts[:, 1])
        assert rep.identity_residual_max == float(np.max(res))
        assert rep.identity_residual_max < 1e-11


def identity_residual(model, p, q):
    return pfunction_identity_residual(p, eval_jet(model, p, q))


class TestPFunctionIdentity:
    @pytest.mark.parametrize("model", CATALOG_MODELS, ids=lambda m: m.name)
    def test_residual_at_single_points(self, model):
        assert identity_residual(model, 1.0, 0.0) < 1e-12

    def test_exponential_point(self):
        assert identity_residual(EXP, 0.3, -2.0) < 1e-12

    @pytest.mark.parametrize("model", CATALOG_MODELS, ids=lambda m: m.name)
    def test_low_discrepancy_sweep(self, model):
        pts = halton_samples(1000, ((1e-3, 2.0), (-2.0, 2.0)))
        res = identity_residual(model, pts[:, 0], pts[:, 1])
        assert float(np.max(res)) < 1e-11

    @pytest.mark.parametrize("model", CATALOG_MODELS, ids=lambda m: m.name)
    def test_ellipticity_coefficient_equals_F_pp(self, model):
        pts = halton_samples(200, ((1e-3, 2.0), (-2.0, 2.0)))
        coeff = ellipticity_coefficient(model, pts[:, 0], pts[:, 1])
        jet = eval_jet(model, pts[:, 0], pts[:, 1])
        assert float(np.max(np.abs(coeff - jet.F_pp))) < 1e-12

    @pytest.mark.parametrize("model", CATALOG_MODELS, ids=lambda m: m.name)
    def test_candidate_p2_derivative_is_half_F_pp(self, model):
        pts = halton_samples(200, ((1e-3, 2.0), (-2.0, 2.0)))
        jet = eval_jet(model, pts[:, 0], pts[:, 1])
        deriv = candidate_p2_derivative(pts[:, 0], jet)
        assert float(np.max(np.abs(deriv - 0.5 * jet.F_pp))) < 1e-12

    def test_domain_error_at_zero(self):
        with pytest.raises(ValueError):
            identity_residual(TORSION, 0.0, 0.0)


def _halton_loop(count, box):
    """One sample at a time, one digit at a time: the reference for the
    whole-array ``halton_samples``."""

    def vdc(n, base):
        x, denom = 0.0, 1.0
        while n:
            n, rem = divmod(n, base)
            denom *= base
            x += rem / denom
        return x

    (p_lo, p_hi), (q_lo, q_hi) = box
    pts = np.empty((count, 2))
    for i in range(count):
        pts[i, 0] = p_lo + (p_hi - p_lo) * vdc(i + 1, 2)
        pts[i, 1] = q_lo + (q_hi - q_lo) * vdc(i + 1, 3)
    return pts


class TestHaltonSamples:
    @pytest.mark.parametrize("box", [((1e-3, 2.0), (-2.0, 2.0)), ((0.0, 1.0), (0.0, 1.0)),
                                     ((1e-6, 0.37), (-1e-12, 3.3))])
    def test_equals_loop(self, box):
        for count in (0, 1, 2, 3, 9, 100, 512, 1000):
            pts = halton_samples(count, box)
            assert pts.shape == (count, 2)
            assert np.array_equal(pts, _halton_loop(count, box))


class TestExpressionModels:
    def test_expression_matches_catalog(self):
        custom = make_expression_model("0.5*p**2 + q + 0.5", smooth_at_origin=True)
        for p, q in [(0.0, 0.0), (1.0, -0.2), (2.0, 1.0)]:
            a = eval_jet(custom, p, q)
            b = eval_jet(TORSION, p, q)
            for x, y in zip(dataclasses.astuple(a), dataclasses.astuple(b)):
                assert x == pytest.approx(y, abs=1e-15)

    def test_rejects_unknown_names(self):
        with pytest.raises(ValueError):
            make_expression_model("p + r")

    def test_singular_evaluation_raises(self):
        from emlab.errors import EvaluationError
        model = make_expression_model("log(p) + q")
        with pytest.raises(EvaluationError):
            eval_jet(model, 0.0, 1.0)

    def test_rejects_calls(self):
        with pytest.raises(ValueError):
            make_expression_model("__import__('os').system('true')")


# The hand-written evaluators that the catalog templates replaced, kept as
# references: a template must give their jets bit for bit.
REFERENCE_EVALUATORS = {
    "dirichlet_affine": lambda a, b: lambda p, q: 0.5 * p * p + a + b * q,
    "dirichlet_exponential": lambda a, b: lambda p, q: 0.5 * p * p + a * ad.exp(b * q),
    "dirichlet_power": lambda a, k: lambda p, q: 0.5 * p * p + a * q ** k,
    "power_dirichlet": lambda m, a, b: lambda p, q: (1.0 / m) * p ** m + a + b * q,
    "minimal_surface": lambda a, b: lambda p, q: ad.sqrt(1.0 + p * p) + a + b * q,
}

TEMPLATE_CASES = ([("dirichlet_affine", [0.5, 1.0]), ("dirichlet_affine", [-0.2, -3.0]),
                   ("dirichlet_exponential", [1.0, 1.0]), ("dirichlet_exponential", [-0.3, 2.5]),
                   ("minimal_surface", [0.0, 0.0]), ("minimal_surface", [2.0, 1.0])]
                  + [("dirichlet_power", [0.5, k]) for k in (2, 3, 4)]
                  + [("power_dirichlet", [m, 0.1, 1.0]) for m in (1.5, 2.0, 2.5, 3.0, 4.0)])


def _jet_bits(model, p, q):
    """The six jet entries as raw bytes, or the type of the evaluation error."""
    try:
        jet = eval_jet(model, p, q)
    except EvaluationError as exc:
        return type(exc)
    return [np.asarray(e, dtype=float).tobytes() for e in dataclasses.astuple(jet)]


@pytest.mark.parametrize("name, params", TEMPLATE_CASES,
                         ids=["-".join([n] + [str(x) for x in p]) for n, p in TEMPLATE_CASES])
def test_catalog_template_matches_reference_bit_for_bit(name, params):
    model = make_model(name, params)
    reference = dataclasses.replace(
        model, evaluator=REFERENCE_EVALUATORS[name](*model.parameters))
    rng = np.random.default_rng(11)
    p = np.concatenate([[0.0, 1e-9, 1.0], rng.uniform(0.0, 3.0, 200)])
    q = np.concatenate([[0.0, -0.5, 2.0], rng.uniform(-2.0, 2.0, 200)])
    # whole arrays with p = 0 (singular for m < 2), without it, and each point
    for pp, qq in [(p, q), (p[1:], q[1:])] + list(zip(p[:30].tolist(), q[:30].tolist())):
        assert _jet_bits(model, pp, qq) == _jet_bits(reference, pp, qq)
    assert all(isinstance(e, float) for e in dataclasses.astuple(eval_jet(model, 1.0, 0.5)))


def test_catalog_names_stable():
    assert set(CATALOG) == {"dirichlet_affine", "dirichlet_exponential",
                            "dirichlet_power", "power_dirichlet", "minimal_surface"}


JET_MODELS = CATALOG_MODELS + [
    make_model("power_dirichlet", [3.0, 0.0, 1.0]),
    make_model("power_dirichlet", [1.5, 0.0, 1.0]),
    make_expression_model("0.5*p**2 + log(q)"),
    make_expression_model("p**2/(q*q) + sqrt(q)"),
    make_expression_model("sqrt(1 + p**2)*exp(q) - p**q"),
]


def _jet_or_error(model, p, q):
    try:
        return dataclasses.astuple(eval_jet(model, p, q))
    except Exception as exc:  # the error itself is the outcome compared
        return type(exc)


class TestScalarPath:
    """Python floats in eval_jet must give float entries with the bits, and
    the errors, of a one-point array."""

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(JET_MODELS),
           st.floats(min_value=-1.0, max_value=1e3) | st.floats(),
           st.floats(min_value=-1e3, max_value=1e3) | st.floats())
    def test_scalar_matches_array(self, model, p, q):
        scalar = _jet_or_error(model, p, q)
        array = _jet_or_error(model, np.array([p]), np.array([q]))
        if isinstance(array, type):
            assert scalar is array
        else:
            assert all(isinstance(e, float) for e in scalar)
            assert np.array_equal(np.array(scalar), np.concatenate(array))

    def test_division_by_zero_is_an_evaluation_error(self):
        from emlab.errors import EvaluationError
        singular = make_expression_model("0.5*p**2 + 1/q")
        with pytest.raises(EvaluationError):
            eval_jet(singular, 0.5, 0.0)
        with pytest.raises(ValueError):
            eval_jet(TORSION, -1e-300, 0.0)
