"""Exact scalar arithmetic over Q and over the golden field Q(phi).

Rationals are stdlib ``fractions.Fraction`` (always reduced, positive
denominator, structural equality).  ``GoldenRational`` represents
a + b*phi with phi = (1+sqrt(5))/2, closed under ring operations via
phi**2 = phi + 1, and with an exactly decidable sign.  Both serialize
to the string formats used by every CSV/JSON emitter: ``"p/q"`` and
``"a/b+c/d*phi"``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

Rational = Fraction

_COERCIBLE = (int, Fraction)


def rat_sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


class GoldenRational:
    """Element a + b*phi of Q(phi), phi = (1+sqrt(5))/2."""

    __slots__ = ("a", "b")

    def __init__(self, a: Union[int, Fraction] = 0, b: Union[int, Fraction] = 0):
        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(self, "b", Fraction(b))

    def __setattr__(self, name, value):
        raise AttributeError("GoldenRational is immutable")

    def __reduce__(self):
        return (GoldenRational, (self.a, self.b))

    # -- ring/field operations ------------------------------------------

    @staticmethod
    def _coerce(x) -> "GoldenRational":
        if isinstance(x, GoldenRational):
            return x
        if isinstance(x, _COERCIBLE):
            return GoldenRational(x, 0)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return GoldenRational(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return GoldenRational(-self.a, -self.b)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return GoldenRational(self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        # (a1 + b1 phi)(a2 + b2 phi), phi^2 = phi + 1
        a1, b1, a2, b2 = self.a, self.b, o.a, o.b
        return GoldenRational(a1 * a2 + b1 * b2, a1 * b2 + b1 * a2 + b1 * b2)

    __rmul__ = __mul__

    def inverse(self) -> "GoldenRational":
        # conjugate of a + b*phi is (a+b) - b*phi; their product is the
        # rational norm a^2 + a*b - b^2
        n = self.a * self.a + self.a * self.b - self.b * self.b
        if n == 0:
            raise ZeroDivisionError("golden rational division by zero")
        return GoldenRational((self.a + self.b) / n, -self.b / n)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o * self.inverse()

    # -- comparisons -----------------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def sign(self) -> int:
        return golden_sign(self)

    def __lt__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return (self - o).sign() < 0

    def __le__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return (self - o).sign() <= 0

    def __gt__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return (self - o).sign() > 0

    def __ge__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return (self - o).sign() >= 0

    # -- formatting ------------------------------------------------------

    def __repr__(self):
        return f"GoldenRational({self.a!r}, {self.b!r})"

    def __str__(self):
        return format_scalar(self)


PHI = GoldenRational(0, 1)


def golden_sign(x) -> int:
    """Exact sign of a + b*(1+sqrt(5))/2 under the real embedding, for x a
    GoldenRational or a pair (a, b) of integers or rationals.

    Reduces to the sign of u + v*sqrt(5) with u = 2a+b, v = b, decided by
    comparing u^2 with 5 v^2; no floating point is involved.
    """
    a, b = (x.a, x.b) if isinstance(x, GoldenRational) else x
    u = 2 * a + b
    v = b
    su, sv = rat_sign(u), rat_sign(v)
    if sv == 0:
        return su
    if su == 0:
        return sv
    if su == sv:
        return su
    # opposite signs: |u| vs sqrt(5)|v| decides; equality impossible since
    # sqrt(5) is irrational and v != 0
    cmp = rat_sign(u * u - 5 * v * v)
    assert cmp != 0
    return su if cmp > 0 else sv


def format_rational(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def format_scalar(x) -> str:
    """Serialize a scalar: rationals as "p/q", golden as "a/b+c/d*phi"."""
    if isinstance(x, GoldenRational):
        return f"{format_rational(x.a)}+{format_rational(x.b)}*phi"
    return format_rational(Fraction(x))
