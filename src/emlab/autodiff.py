"""Second-order forward-mode differentiation in two variables.

A ``Dual2`` carries a truncated Taylor expansion through arithmetic: the
value, both first partials and the three second partials with respect to
the two seeded variables.  Payloads may be scalars or numpy arrays, so a
whole field of jets is evaluated in one expression sweep.
"""

from __future__ import annotations

import numpy as np


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
        one = np.ones_like(value) if isinstance(value, np.ndarray) else 1.0
        return Dual2(value, dp=one)

    @staticmethod
    def var_q(value):
        """Seed the second independent variable."""
        one = np.ones_like(value) if isinstance(value, np.ndarray) else 1.0
        return Dual2(value, dq=one)

    def _lift(other):
        return other if isinstance(other, Dual2) else Dual2(other)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        o = Dual2._lift(other)
        return Dual2(self.v + o.v, self.dp + o.dp, self.dq + o.dq,
                     self.dpp + o.dpp, self.dpq + o.dpq, self.dqq + o.dqq)

    __radd__ = __add__

    def __neg__(self):
        return Dual2(-self.v, -self.dp, -self.dq, -self.dpp, -self.dpq, -self.dqq)

    def __sub__(self, other):
        return self + (-Dual2._lift(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = Dual2._lift(other)
        return Dual2(
            self.v * o.v,
            self.dp * o.v + self.v * o.dp,
            self.dq * o.v + self.v * o.dq,
            self.dpp * o.v + 2.0 * self.dp * o.dp + self.v * o.dpp,
            self.dpq * o.v + self.dp * o.dq + self.dq * o.dp + self.v * o.dpq,
            self.dqq * o.v + 2.0 * self.dq * o.dq + self.v * o.dqq,
        )

    __rmul__ = __mul__

    def _chain(self, f0, f1, f2):
        """Compose with a scalar function given f(v), f'(v), f''(v)."""
        return Dual2(
            f0,
            f1 * self.dp,
            f1 * self.dq,
            f2 * self.dp * self.dp + f1 * self.dpp,
            f2 * self.dp * self.dq + f1 * self.dpq,
            f2 * self.dq * self.dq + f1 * self.dqq,
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
