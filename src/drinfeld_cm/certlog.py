"""Certified rational enclosures for the few transcendental constants needed.

ln and sqrt of rationals are taken from mpmath's interval arithmetic and
converted to exact Fraction endpoints, then combined with plain Fraction
interval arithmetic.  Every inequality asserted downstream compares against
the safe side of the enclosure (outward/directed rounding), so no verdict
depends on floating-point luck.  Default enclosure width is far below 1e-12.

A product takes the least and greatest of the four endpoint products.  When
both factors have lo >= 0 these are always lo*lo' and hi*hi' (each factor
grows with the other's endpoint), so `Interval.__mul__` forms only those
two; Fractions are exact, so the endpoints are the same numbers either way
and stored endpoints (the `height` references) cannot move.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .errors import BadInputError, InvariantError

_PREC_BITS = 120
_EXACT_DEN = 64  # exp_q checks its enclosure exactly up to this exponent denominator


def _mpf_tuple_to_fraction(t) -> Fraction:
    sign, man, exp, _ = t
    if man == 0:
        return Fraction(0)
    out = Fraction(int(man)) * Fraction(2) ** int(exp)
    return -out if sign else out


@dataclass(frozen=True)
class Interval:
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("inverted interval")

    @staticmethod
    def point(x) -> "Interval":
        f = Fraction(x)
        return Interval(f, f)

    def __add__(self, other):
        other = _coerce(other)
        return Interval(self.lo + other.lo, self.hi + other.hi)

    __radd__ = __add__

    def __neg__(self):
        return Interval(-self.hi, -self.lo)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if self.lo >= 0 and other.lo >= 0:
            return Interval(self.lo * other.lo, self.hi * other.hi)
        prods = [self.lo * other.lo, self.lo * other.hi, self.hi * other.lo, self.hi * other.hi]
        return Interval(min(prods), max(prods))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other.lo <= 0 <= other.hi:
            raise ZeroDivisionError("interval division through zero")
        inv = Interval(min(1 / other.lo, 1 / other.hi), max(1 / other.lo, 1 / other.hi))
        return self * inv

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def certainly_le(self, other) -> bool:
        return self.hi <= _coerce(other).lo

    def certainly_ge(self, other) -> bool:
        return self.lo >= _coerce(other).hi

    def __str__(self):
        return f"[{float(self.lo):.12f}, {float(self.hi):.12f}]"

    def decimal(self, places: int = 12) -> str:
        """Deterministic midpoint rendering for reports."""
        mid = (self.lo + self.hi) / 2
        scaled = mid * 10**places
        return f"{(scaled.numerator // scaled.denominator) / 10**places:.{places}f}"


def _coerce(x) -> Interval:
    if isinstance(x, Interval):
        return x
    return Interval.point(x)


def _iv_call(fn, x: Fraction) -> Interval:
    with mpmath.workprec(_PREC_BITS):
        old = mpmath.iv.prec
        mpmath.iv.prec = _PREC_BITS
        try:
            arg = mpmath.iv.mpf(x.numerator) / mpmath.iv.mpf(x.denominator)
            val = fn(arg)
        finally:
            mpmath.iv.prec = old
    lo, hi = val._mpi_
    return Interval(_mpf_tuple_to_fraction(lo), _mpf_tuple_to_fraction(hi))


def ln(x) -> Interval:
    x = Fraction(x)
    if x <= 0:
        raise ValueError("ln of a nonpositive number")
    return _iv_call(mpmath.iv.ln, x)


def sqrt(x) -> Interval:
    x = Fraction(x)
    if x < 0:
        raise ValueError("sqrt of a negative number")
    return _iv_call(mpmath.iv.sqrt, x)


def exact_log_q(x, q: int) -> int:
    """log_q of an exact power of q (BadInputError otherwise)."""
    n = 0
    y = Fraction(x)
    while y > 1:
        y /= q
        n += 1
    while y < 1:
        y *= q
        n -= 1
    if y != 1:
        raise BadInputError(f"{x} is not a power of {q}")
    return n


def exp_q(e: Fraction, q: int) -> Interval:
    """q^e for rational e (integer e is exact).

    mpmath rounds an approximation of exp in the directed sense, which can
    miss q^e by a fraction of an ulp (3^(25/2) at 120 bits).  So each endpoint
    moves out by 16 ulps, unless e = n/d has d <= _EXACT_DEN and the exact
    test lo^d <= q^n (hi^d >= q^n) shows it on the right side.
    """
    if e.denominator == 1:
        return Interval.point(Fraction(q) ** int(e))
    with mpmath.workprec(_PREC_BITS):
        old = mpmath.iv.prec
        mpmath.iv.prec = _PREC_BITS
        try:
            val = mpmath.iv.mpf(q) ** (mpmath.iv.mpf(e.numerator) / mpmath.iv.mpf(e.denominator))
        finally:
            mpmath.iv.prec = old
    lo, hi = (_mpf_tuple_to_fraction(t) for t in val._mpi_)
    d = e.denominator
    power = Fraction(q) ** e.numerator if d <= _EXACT_DEN else None
    slack = Fraction(1, 2 ** (_PREC_BITS - 4))
    if power is None or lo**d > power:
        lo *= 1 - slack
    if power is None or hi**d < power:
        hi *= 1 + slack
    if power is not None and not lo**d <= power <= hi**d:
        raise InvariantError(f"no enclosure of {q}^({e})")  # pragma: no cover
    return Interval(lo, hi)
