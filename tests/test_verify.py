import pytest

from drinfeld_cm.ffield import field
from drinfeld_cm.verify import check_analytic_lemmas, check_counting_lemmas


@pytest.mark.parametrize("q", [3, 5])
def test_analytic_lemmas_tiny(q):
    n = 3
    rep = check_analytic_lemmas(field(q), maxdeg=n)
    assert rep["ok"] is True
    assert rep["polynomials"] == sum(q**d for d in range(1, n + 1))  # every monic of degree 1..n


@pytest.mark.parametrize("q", [3, 5])
def test_counting_lemmas_tiny(q):
    # F_3 runs the default easycounting range (deg m <= 4), F_5 deg m <= 2
    da, dd = 1, 2
    kwargs = {"max_deg_m": 2} if q == 5 else {}
    rep = check_counting_lemmas(field(q), da, dd, **kwargs)
    assert rep["ok"] is True
    # every monic a of degree <= da against every nonzero D of degree <= dd
    monic_a = sum(q**d for d in range(da + 1))
    monic_d = sum(q**d for d in range(dd + 1))
    assert rep["pairs"] == monic_a * monic_d * (q - 1)
