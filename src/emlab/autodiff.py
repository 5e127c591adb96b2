"""Second-order forward-mode differentiation in two variables.

A ``Dual2`` carries a truncated Taylor expansion through arithmetic: the
value, both first partials and the three second partials with respect to
the two seeded variables.  Payloads may be scalars or numpy arrays, so a
whole field of jets is evaluated in one expression sweep.

An entry that is not an array is a structural constant: the seeds are the
scalars 1.0 and 0.0, and a constant of the expression lifts with scalar
zero partials.  Arithmetic keeps such entries scalar: a term with a scalar
0.0 factor is left out of its sum, a scalar 1.0 factor passes the other
operand through, and two scalars combine as scalars (Griewank & Walther,
*Evaluating Derivatives*, 2nd ed., SIAM 2008, ch. 13, on Taylor propagation
with sparsity).  So a partial that is constant over the field costs no
array: ``0.5 * p * p + a + b * q`` builds arrays for its value and its
p-partial only, and its jet of n points peaks at 4 n floats, not 20 n.
A caller that wants whole fields broadcasts a scalar entry at its exit;
``eval_jet`` hands it out as a read-only ``np.broadcast_to`` view, n copies
of one float in no memory, which a consumer reads like any array but
cannot write into.

Leaving out a zero term changes no value, with two exceptions: a zero may
come out with the other sign, and a structural zero annihilates, so
``0 * sqrt(p)`` at p = 0 has the zero partials of the constant it is where
arrays would give 0 * inf = NaN.  Every structural constant must come from
the expression: a caller that evaluates at one point passes a one-element
array, not a numpy scalar, so that a value that happens to be zero there is
never taken for a structural one.
"""

from __future__ import annotations

import numpy as np


def _times(*factors):
    """Product of the factors from left to right; a scalar 0.0 factor gives
    the scalar 0.0 and a scalar 1.0 factor is skipped, so only an array
    operand costs an array operation."""
    out = factors[0]
    for f in factors[1:]:
        if isinstance(out, np.ndarray):
            if not isinstance(f, np.ndarray):
                if f == 0.0:
                    return 0.0
                if f == 1.0:
                    continue
        elif isinstance(f, np.ndarray):
            if out == 0.0:
                return 0.0
            if out == 1.0:
                out = f
                continue
        out = out * f
    return out


def _plus(a, b):
    """a + b, where a scalar zero summand leaves the other one as it is."""
    if isinstance(a, np.ndarray):
        if not isinstance(b, np.ndarray) and b == 0.0:
            return a
    elif isinstance(b, np.ndarray) and a == 0.0:
        return b
    return a + b


def _minus(a, b):
    """a - b, where a scalar zero on either side costs no subtraction."""
    if isinstance(a, np.ndarray):
        if not isinstance(b, np.ndarray) and b == 0.0:
            return a
    elif isinstance(b, np.ndarray) and a == 0.0:
        return -b
    return a - b


def _dot(*terms):
    """Sum of the products of ``terms`` (tuples of factors) from left to
    right, each term formed only when the sum reaches it, so at most one
    array term is held beside the running sum."""
    out = _times(*terms[0])
    for term in terms[1:]:
        out = _plus(out, _times(*term))
    return out


class Dual2:
    """Truncated second-order Taylor coefficient bundle (v, dp, dq, dpp, dpq, dqq)."""

    __slots__ = ("v", "dp", "dq", "dpp", "dpq", "dqq")

    # numpy defers to the reflected operators below: a float64 or ndarray
    # operand then lifts into one Dual2 (not an object array of jets), and
    # a float64 constant times a jet skips numpy's object-array dispatch
    __array_ufunc__ = None

    def __init__(self, v, dp=0.0, dq=0.0, dpp=0.0, dpq=0.0, dqq=0.0):
        self.v = v
        self.dp = dp
        self.dq = dq
        self.dpp = dpp
        self.dpq = dpq
        self.dqq = dqq

    # -- seeding -----------------------------------------------------------

    @staticmethod
    def var_p(value):
        """Seed the first independent variable."""
        return Dual2(value, dp=1.0)

    @staticmethod
    def var_q(value):
        """Seed the second independent variable."""
        return Dual2(value, dq=1.0)

    def _lift(other):
        return other if isinstance(other, Dual2) else Dual2(other)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        o = Dual2._lift(other)
        return Dual2(_plus(self.v, o.v), _plus(self.dp, o.dp), _plus(self.dq, o.dq),
                     _plus(self.dpp, o.dpp), _plus(self.dpq, o.dpq),
                     _plus(self.dqq, o.dqq))

    __radd__ = __add__

    def __neg__(self):
        return Dual2(-self.v, -self.dp, -self.dq, -self.dpp, -self.dpq, -self.dqq)

    def __sub__(self, other):
        o = Dual2._lift(other)
        return Dual2(_minus(self.v, o.v), _minus(self.dp, o.dp), _minus(self.dq, o.dq),
                     _minus(self.dpp, o.dpp), _minus(self.dpq, o.dpq),
                     _minus(self.dqq, o.dqq))

    def __rsub__(self, other):
        return Dual2._lift(other) - self

    def __mul__(self, other):
        o = Dual2._lift(other)
        return Dual2(
            self.v * o.v,
            _dot((self.dp, o.v), (self.v, o.dp)),
            _dot((self.dq, o.v), (self.v, o.dq)),
            _dot((self.dpp, o.v), (2.0, self.dp, o.dp), (self.v, o.dpp)),
            _dot((self.dpq, o.v), (self.dp, o.dq), (self.dq, o.dp), (self.v, o.dpq)),
            _dot((self.dqq, o.v), (2.0, self.dq, o.dq), (self.v, o.dqq)),
        )

    __rmul__ = __mul__

    def _chain(self, f0, f1, f2):
        """Compose with a scalar function given f(v), f'(v), f''(v)."""
        return Dual2(
            f0,
            _times(f1, self.dp),
            _times(f1, self.dq),
            _dot((f2, self.dp, self.dp), (f1, self.dpp)),
            _dot((f2, self.dp, self.dq), (f1, self.dpq)),
            _dot((f2, self.dq, self.dq), (f1, self.dqq)),
        )

    def reciprocal(self):
        inv = 1.0 / self.v
        return self._chain(inv, -inv * inv, 2.0 * inv * inv * inv)

    def __truediv__(self, other):
        return self * Dual2._lift(other).reciprocal()

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def __pow__(self, exponent):
        if isinstance(exponent, Dual2):
            return (exponent * self.log()).exp()
        n = exponent
        if n == 0:
            return Dual2(np.ones_like(self.v) if isinstance(self.v, np.ndarray) else 1.0)
        if n == 1:
            return Dual2(self.v, self.dp, self.dq, self.dpp, self.dpq, self.dqq)
        if n == 2:
            return self * self
        v = self.v
        # np.power rather than **: on a float64 scalar, ** rounds through the
        # C library and can differ in the last bit from numpy's array loop,
        # and a jet must not depend on how many points it is evaluated at
        return self._chain(np.power(v, n), n * np.power(v, n - 1),
                           n * (n - 1) * np.power(v, n - 2))

    def __rpow__(self, base):
        return (self * np.log(base)).exp()

    # -- transcendental functions -------------------------------------------

    def exp(self):
        e = np.exp(self.v)
        return self._chain(e, e, e)

    def log(self):
        inv = 1.0 / self.v
        return self._chain(np.log(self.v), inv, -inv * inv)

    def sqrt(self):
        s = np.sqrt(self.v)
        return self._chain(s, 0.5 / s, -0.25 / (s * self.v))

    def __repr__(self):
        return (f"Dual2(v={self.v!r}, dp={self.dp!r}, dq={self.dq!r}, "
                f"dpp={self.dpp!r}, dpq={self.dpq!r}, dqq={self.dqq!r})")


def exp(x):
    return x.exp() if isinstance(x, Dual2) else np.exp(x)


def log(x):
    return x.log() if isinstance(x, Dual2) else np.log(x)


def sqrt(x):
    return x.sqrt() if isinstance(x, Dual2) else np.sqrt(x)
