from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from drinfeld_cm import certlog
from drinfeld_cm.certlog import Interval
from drinfeld_cm.errors import BadInputError

REF_BITS = 400

positive = st.builds(Fraction, st.integers(1, 10**12), st.integers(1, 10**12))
rational = st.builds(Fraction, st.integers(-(10**9), 10**9), st.integers(1, 10**9))
unit = st.fractions(min_value=0, max_value=1)  # where a point sits inside an interval


def _exact(x) -> Fraction:
    sign, man, exp, _ = mpmath.mpf(x)._mpf_
    value = Fraction(int(man)) * Fraction(2) ** int(exp)
    return -value if sign else value


def reference(fn, *args) -> Fraction:
    """fn of exact rationals, evaluated by mpmath at REF_BITS bits."""
    with mpmath.workprec(REF_BITS):
        return _exact(fn(*(mpmath.mpf(a.numerator) / a.denominator for a in args)))


def encloses(iv: Interval, x: Fraction) -> bool:
    return iv.lo <= x <= iv.hi


@settings(max_examples=60, deadline=None)
@given(positive)
def test_ln_and_sqrt_enclose(x):
    assert encloses(certlog.ln(x), reference(mpmath.ln, x))
    assert encloses(certlog.sqrt(x), reference(mpmath.sqrt, x))


@settings(max_examples=60, deadline=None)
@given(positive, st.sampled_from([2, 3, 4, 5, 9]))
def test_log_q_encloses(x, q):
    assert encloses(certlog.log_q(x, q), reference(lambda a, b: mpmath.ln(a) / mpmath.ln(b), x, Fraction(q)))


@settings(max_examples=60, deadline=None)
@given(st.builds(Fraction, st.integers(-60, 60), st.integers(1, 12)), st.sampled_from([2, 3, 4, 5, 9]))
@example(Fraction(25, 2), 3)  # mpmath's own enclosure of 3^(25/2) misses the value
@example(Fraction(25, 4), 9)
@example(Fraction(10**12 + 39, 10**10 + 19), 5)  # a denominator above certlog._EXACT_DEN
def test_exp_q_encloses(e, q):
    if e.denominator == 1:  # q^e is rational: compare with the exact value
        expected = Fraction(q) ** int(e)
    else:
        expected = reference(mpmath.power, Fraction(q), e)
    assert encloses(certlog.exp_q(e, q), expected)


def intervals():
    return st.tuples(rational, rational).map(lambda t: Interval(min(t), max(t)))


def point_in(iv: Interval, t: Fraction) -> Fraction:
    return iv.lo + t * (iv.hi - iv.lo)


@settings(max_examples=100, deadline=None)
@given(intervals(), intervals(), unit, unit)
def test_interval_ops_contain_point_results(a, b, s, t):
    x, y = point_in(a, s), point_in(b, t)
    assert encloses(a + b, x + y)
    assert encloses(a - b, x - y)
    assert encloses(a * b, x * y)
    if b.lo > 0 or b.hi < 0:
        assert encloses(a / b, x / y)
    else:
        with pytest.raises(ZeroDivisionError):
            a / b


def nonnegative_intervals():
    return st.tuples(st.fractions(min_value=0, max_value=10**6), st.fractions(min_value=0, max_value=10**6)).map(
        lambda t: Interval(min(t), max(t))
    )


@settings(max_examples=200, deadline=None)
@given(st.one_of(nonnegative_intervals(), intervals()), st.one_of(nonnegative_intervals(), intervals()))
@example(Interval(Fraction(0), Fraction(0)), Interval(Fraction(0), Fraction(3)))
@example(Interval(Fraction(0), Fraction(2)), Interval(Fraction(0), Fraction(5, 7)))
@example(Interval(Fraction(0), Fraction(2)), Interval(Fraction(-1, 3), Fraction(5)))
@example(Interval(Fraction(-1), Fraction(0)), Interval(Fraction(1), Fraction(2)))
def test_product_endpoints_are_the_least_and_greatest_endpoint_products(a, b):
    # two nonnegative factors take the fast path; every product has exactly
    # the endpoints of the four-product rule
    prods = [a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi]
    assert a * b == Interval(min(prods), max(prods))


def test_exact_log_q():
    assert certlog.exact_log_q(81, 3) == 4
    assert certlog.exact_log_q(Fraction(1, 9), 3) == -2
    for x in (6, Fraction(1, 6), 10, 0.5):
        with pytest.raises(BadInputError):
            certlog.exact_log_q(x, 3)
