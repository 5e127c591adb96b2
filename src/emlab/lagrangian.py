"""Integrand models F(p, q) with exact second-order derivative jets.

``p`` stands for the gradient magnitude ``|grad u|`` and ``q`` for the field
value ``u``.  Every model is an expression compiled by one compiler: a
config's expression as given, and a catalog model from its template with the
checked parameters as named constants.  It evaluates through
:class:`~emlab.autodiff.Dual2`, so the six jet entries are exact (no divided
differences) and vectorize over numpy arrays.
"""

from __future__ import annotations

import ast
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Dual2
from .errors import EvaluationError, OriginLimitError

#: below this gradient magnitude the analytic p -> 0 limit of F_p/p is used
ORIGIN_EPS = 1e-8

#: (p, q) box of the hypothesis checks made before a solution range is known
PILOT_BOX = ((0.0, 1.0), (-1.0, 1.0))


@dataclass(frozen=True)
class Jet2:
    """Value and derivatives of F at a single (p, q), or arrays thereof."""

    F: object
    F_p: object
    F_q: object
    F_pp: object
    F_pq: object
    F_qq: object


@dataclass(frozen=True)
class LagrangianModel:
    """A concrete integrand F(p, q) plus the structural flags analyses need.

    ``smooth_at_origin`` asserts F_p(0, q) = 0, which makes F(|xi|, eta)
    twice differentiable at xi = 0 and gives F_p/p a finite limit there.
    """

    name: str
    parameters: tuple
    evaluator: object  # callable (Dual2, Dual2) -> Dual2, or float64 for a constant F
    smooth_at_origin: bool = True


@dataclass
class HypothesisReport:
    """Sampled checks of the structural hypotheses on F over a (p, q) box.

    Violations are data, not errors; each failed check carries a witness
    sample that reproduces the reported value on re-evaluation.
    """

    convexity_ok: bool
    min_F_pp: float
    case2_ok: bool          # F > 0 throughout the box
    min_F: float
    case3_ok: bool          # F < 0 and p F_p - F > 0 throughout the box
    max_F: float
    min_p_F_p_minus_F: float
    monotone_q_ok: bool     # F_q >= 0 throughout the box
    min_F_q: float
    origin_smooth_ok: bool  # F_p(0, q) = 0 wherever smooth_at_origin claims it
    identity_residual_max: float  # compatibility identity of p F_p - F, over p > 0
    sample_box: tuple
    samples: int
    violation_witnesses: dict = field(default_factory=dict)

    def as_dict(self):
        return asdict(self)


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

#: name -> (template over p, q and the named parameters, parameter names)
CATALOG = {
    "dirichlet_affine": ("0.5 * p * p + a + b * q", ("a", "b")),
    "dirichlet_exponential": ("0.5 * p * p + a * exp(b * q)", ("a", "b")),
    "dirichlet_power": ("0.5 * p * p + a * q ** k", ("a", "k")),
    "power_dirichlet": ("(1.0 / m) * p ** m + a + b * q", ("m", "a", "b")),
    "minimal_surface": ("sqrt(1.0 + p * p) + a + b * q", ("a", "b")),
}


def make_model(name, parameters):
    """Build a catalog model: its template compiled with the validated
    numeric parameters as named constants."""
    if name not in CATALOG:
        raise ValueError(f"unknown model {name!r}; choose from {sorted(CATALOG)}")
    template, names = CATALOG[name]
    params = tuple(float(x) for x in parameters)
    if len(params) != len(names):
        raise ValueError(f"model {name!r} expects {len(names)} parameters, got {len(params)}")
    if not all(math.isfinite(v) for v in params):
        raise ValueError(f"model {name!r} parameters must be finite")
    if name == "dirichlet_power":
        k = params[1]
        if k != int(k) or k < 2:
            raise ValueError("dirichlet_power exponent must be an integer >= 2")
        params = (params[0], int(k))
    if name == "power_dirichlet" and params[0] <= 1.0:
        raise ValueError("power_dirichlet exponent m must exceed 1")
    return LagrangianModel(name=name, parameters=params,
                           evaluator=_compile_expression(template, dict(zip(names, params))))


# ---------------------------------------------------------------------------
# expression models
# ---------------------------------------------------------------------------

_ALLOWED_CALLS = {"exp": ad.exp, "log": ad.log, "sqrt": ad.sqrt}
_ALLOWED_BINOPS = {ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow}

#: most levels of nested subexpressions compiled; the compiler and the
#: evaluator it builds recurse once per level, so this stays well inside
#: Python's recursion limit
MAX_EXPRESSION_DEPTH = 200


def _compile_expression(text, constants):
    """Compile a +,-,*,/,**,exp,log,sqrt expression over p, q and the names
    of ``constants`` into an evaluator (Dual2, Dual2) -> Dual2 or float64.
    A tree deeper than ``MAX_EXPRESSION_DEPTH`` is refused."""
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"cannot parse expression {text!r}: {exc}") from None
    except (RecursionError, MemoryError):  # the parser's own nesting limits
        raise ValueError("cannot parse expression: it nests too deeply") from None

    def build(node, depth=0):
        if depth > MAX_EXPRESSION_DEPTH:
            raise ValueError(f"expression nests more than {MAX_EXPRESSION_DEPTH} levels deep")
        if isinstance(node, ast.Expression):
            return build(node.body, 1)
        if isinstance(node, ast.Name) and node.id in constants:
            node = ast.Constant(constants[node.id])
        if isinstance(node, ast.Constant):
            if not isinstance(node.value, (int, float)):
                raise ValueError(f"non-numeric constant {node.value!r}")
            # float64, so that arithmetic on constants alone (1/0) gives a
            # non-finite value rather than raising ZeroDivisionError; an
            # exponent stays a number, so Dual2's integer power rules apply
            c = np.float64(node.value)
            return lambda p, q: c
        if isinstance(node, ast.Name):
            if node.id == "p":
                return lambda p, q: p
            if node.id == "q":
                return lambda p, q: q
            raise ValueError(f"unknown name {node.id!r}; only p and q are available")
        if isinstance(node, ast.UnaryOp):
            inner = build(node.operand, depth + 1)
            if isinstance(node.op, ast.USub):
                return lambda p, q: -inner(p, q)
            if isinstance(node.op, ast.UAdd):
                return inner
            raise ValueError("unsupported unary operator")
        if isinstance(node, ast.BinOp):
            if type(node.op) not in _ALLOWED_BINOPS:
                raise ValueError("unsupported binary operator")
            left, right = build(node.left, depth + 1), build(node.right, depth + 1)
            op = type(node.op)
            if op is ast.Add:
                return lambda p, q: left(p, q) + right(p, q)
            if op is ast.Sub:
                return lambda p, q: left(p, q) - right(p, q)
            if op is ast.Mult:
                return lambda p, q: left(p, q) * right(p, q)
            if op is ast.Div:
                return lambda p, q: left(p, q) / right(p, q)
            return lambda p, q: left(p, q) ** right(p, q)
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.func.id not in _ALLOWED_CALLS:
                raise ValueError("only exp, log and sqrt calls are allowed")
            if len(node.args) != 1 or node.keywords:
                raise ValueError(f"{node.func.id} takes exactly one positional argument")
            fn = _ALLOWED_CALLS[node.func.id]
            inner = build(node.args[0], depth + 1)
            return lambda p, q: fn(inner(p, q))
        raise ValueError(f"unsupported syntax element {type(node).__name__}")

    return build(tree)


def make_expression_model(expression, smooth_at_origin=False):
    """Build a custom model from an arithmetic expression string over p and q."""
    return LagrangianModel(name="expression", parameters=(),
                           evaluator=_compile_expression(expression, {}),
                           smooth_at_origin=smooth_at_origin)


# ---------------------------------------------------------------------------
# jet evaluation
# ---------------------------------------------------------------------------

def eval_jet(model, p, q):
    """Evaluate F and all partials up to second order at (p, q).

    Scalars in, scalar jet out; arrays in, array jet out.  Raises on p < 0
    and on non-finite results (singular expression at the evaluation point).

    An entry that is constant in the model's structure (F_pp = 1 of
    ``0.5 * p * p``) leaves ``Dual2`` as a scalar; it is checked once and
    returned as a read-only broadcast of the input shape, so it costs no
    array.  No entry shares memory with ``p`` or ``q``.
    """
    p_arr, q_arr = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    if np.any(p_arr < 0):
        raise ValueError("gradient magnitude p must be non-negative")
    # a point evaluates as a one-element array: a numpy scalar would read
    # as one of Dual2's structural constants
    p_in, q_in = np.atleast_1d(p_arr), np.atleast_1d(q_arr)
    with np.errstate(all="ignore"):  # singular points surface as non-finite
        out = Dual2._lift(model.evaluator(Dual2.var_p(p_in), Dual2.var_q(q_in)))
    entries = [out.v, out.dp, out.dq, out.dpp, out.dpq, out.dqq]
    if not all(np.all(np.isfinite(e)) for e in entries):
        raise EvaluationError(f"model {model.name!r} produced a non-finite jet entry")
    shape = np.broadcast_shapes(p_arr.shape, q_arr.shape)
    if not shape:  # scalars in, floats out
        return Jet2(*(float(np.ravel(e)[0]) for e in entries))
    # an entry that passed an input through (F = p) is copied, so a caller
    # that writes into its p or q later leaves the jet as it was
    return Jet2(*(np.broadcast_to(e.copy() if e is p_in or e is q_in
                                  else np.asarray(e, dtype=float), shape)
                  for e in entries))


def diffusion_coefficient(model, p, q, jet):
    """g = F_p/p from the ``jet`` at (p, q), and its limit F_pp(0, q) where
    p <= ORIGIN_EPS, which holds only where F_p(0, q) = 0: a model that does
    not claim ``smooth_at_origin`` is refused there (``OriginLimitError``).
    The limit's jet is taken at those points only.  The one place where g is
    formed."""
    g = np.asarray(jet.F_p / np.maximum(p, ORIGIN_EPS))
    small = p <= ORIGIN_EPS
    if np.any(small):
        if not model.smooth_at_origin:
            raise OriginLimitError(
                f"model {model.name!r} is not smooth at the origin; "
                "g = F_p/p has no declared p -> 0 limit")
        q_small = np.broadcast_to(q, g.shape)[small]
        g[small] = eval_jet(model, np.zeros_like(q_small), q_small).F_pp
    return g


def divergence_coefficients(model, p, q):
    """Coefficients (g, h) of the divergence form of the optimality equation.

    g = F_p/p by ``diffusion_coefficient`` and h = -F_q, from one jet at
    (p, q); scalars in, floats out.
    """
    p_arr = np.asarray(p, dtype=float)
    q_arr = np.asarray(q, dtype=float)
    jet = eval_jet(model, p_arr, q_arr)
    g, h = diffusion_coefficient(model, p_arr, q_arr, jet), -jet.F_q
    if p_arr.ndim == 0 and q_arr.ndim == 0:
        return float(g), float(h)
    return np.asarray(g, dtype=float), np.asarray(h, dtype=float)


def candidate_p2_derivative(p, jet):
    """d(p F_p - F)/d(p^2) built from quotient pieces of the jet at (p, q).

    Equals F_pp/2 analytically (the F_p terms cancel); kept unsimplified so
    the cancellation itself is checkable.
    """
    p_arr = np.asarray(p, dtype=float)
    return (jet.F_p + p_arr * jet.F_pp - jet.F_p) / (2.0 * p_arr)


def pfunction_identity_residual(p, jet):
    """Residual of the compatibility identity satisfied by phi = p F_p - F,
    from the jet at (p, q).

    With g = F_p/p and h = -F_q the candidate phi must satisfy
    ``2 (h + p^2 dg/dq) phi_{p2} = (g + 2 p^2 dg/dp2) phi_q``; the two sides
    cancel algebraically, so any returned magnitude is rounding noise.  Each
    factor is rebuilt separately from the jet rather than simplified first.
    """
    p_arr = np.asarray(p, dtype=float)
    if np.any(p_arr <= 0):
        raise ValueError("the identity residual requires p > 0")
    g = jet.F_p / p_arr
    h = -jet.F_q
    dg_dq = jet.F_pq / p_arr
    with np.errstate(over="ignore"):  # a p^3 past the float range gives 0
        dg_dp2 = (p_arr * jet.F_pp - jet.F_p) / (2.0 * p_arr ** 3)
    phi_p2 = candidate_p2_derivative(p_arr, jet)
    phi_q = p_arr * jet.F_pq - jet.F_q
    lhs = 2.0 * (h + p_arr ** 2 * dg_dq) * phi_p2
    rhs = (g + 2.0 * p_arr ** 2 * dg_dp2) * phi_q
    return np.abs(lhs - rhs)


# ---------------------------------------------------------------------------
# hypothesis checking
# ---------------------------------------------------------------------------

def halton_samples(count, box):
    """Deterministic low-discrepancy (p, q) samples over a box (bases 2 and 3)."""

    def radical_inverse(base):
        # digit by digit for all indices 1..count at once; a finished index
        # adds exact zeros
        n, x, denom = np.arange(1, count + 1), np.zeros(count), 1.0
        while n.any():
            n, digit = np.divmod(n, base)
            denom *= base
            x += digit / denom
        return x

    (p_lo, p_hi), (q_lo, q_hi) = box
    return np.column_stack([p_lo + (p_hi - p_lo) * radical_inverse(2),
                            q_lo + (q_hi - q_lo) * radical_inverse(3)])


def check_hypotheses(model, box=PILOT_BOX):
    """Sample the box deterministically and test the structural hypotheses on F.

    One jet sweep over the corners, edge midpoints and centre of the box and
    512 Halton samples: the solve's pilot and ``emlab check`` draw the same
    points.  Checks convexity F_pp > 0, positivity F > 0 (case 2), the pair
    F < 0 and p F_p - F > 0 (case 3), and monotonicity F_q >= 0, recording
    extremal values and one witness per violated check, and the maximum of
    the compatibility-identity residual over the samples with p > 0 (those
    on the p = 0 edge drop out).
    """
    (p_lo, p_hi), (q_lo, q_hi) = box
    fixed = [(a, b) for a in (p_lo, p_hi, (p_lo + p_hi) / 2.0)
             for b in (q_lo, q_hi, (q_lo + q_hi) / 2.0)]
    pts = np.vstack([fixed, halton_samples(512, box)])
    p, q = pts[:, 0], pts[:, 1]
    jet = eval_jet(model, p, q)
    phi = p * jet.F_p - jet.F
    pos = p > 0.0
    residual = pfunction_identity_residual(
        p[pos], Jet2(*(e[pos] for e in vars(jet).values())))

    witnesses = {}

    def holds(name, bad, values):
        """Whether no sample is ``bad``; else the first bad one, with its
        entry of ``values``, becomes the witness of ``name``."""
        if not bad.any():
            return True
        idx = int(np.argmax(bad))
        witnesses[name] = (float(p[idx]), float(q[idx]), float(values[idx]))
        return False

    convexity_ok = holds("convexity", jet.F_pp <= 0.0, jet.F_pp)
    case2_ok = holds("case2", jet.F <= 0.0, jet.F)
    # case 3 is witnessed by F >= 0 first, else by p F_p - F <= 0
    case3_ok = holds("case3", jet.F >= 0.0, jet.F) and holds("case3", phi <= 0.0, phi)
    monotone_q_ok = holds("monotone_q", jet.F_q < 0.0, jet.F_q)

    origin_smooth_ok = True
    if model.smooth_at_origin:
        jet0 = eval_jet(model, np.zeros_like(q), q)
        origin_bad = np.abs(jet0.F_p) > 1e-12
        origin_smooth_ok = not bool(origin_bad.any())
        if not origin_smooth_ok:
            idx = int(np.argmax(origin_bad))
            witnesses["origin_smoothness"] = (0.0, float(q[idx]), float(jet0.F_p[idx]))

    return HypothesisReport(
        convexity_ok=convexity_ok,
        min_F_pp=float(np.min(jet.F_pp)),
        case2_ok=case2_ok,
        min_F=float(np.min(jet.F)),
        case3_ok=case3_ok,
        max_F=float(np.max(jet.F)),
        min_p_F_p_minus_F=float(np.min(phi)),
        monotone_q_ok=monotone_q_ok,
        min_F_q=float(np.min(jet.F_q)),
        origin_smooth_ok=origin_smooth_ok,
        identity_residual_max=float(np.max(residual, initial=0.0)),
        sample_box=box,
        samples=len(pts),
        violation_witnesses=witnesses,
    )
