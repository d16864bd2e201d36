import pytest

from drinfeld_cm.ffield import field
from drinfeld_cm import polyring as pr
from drinfeld_cm.verify import EPS_LOGS, check_analytic_lemmas, check_counting_lemmas, square_roots, window_counts


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


@pytest.mark.parametrize("q", [3, 5])
def test_window_counts_match_brute_force(q):
    # the suite's path: D mod a from the residue table, scaled by a digit table,
    # then the window count over the square roots of the residue
    fld = field(q)
    rows = pr.scale_tables(fld, 2)
    for da in range(3):
        for a in pr.monic_of_degree(fld, da):
            roots = square_roots(a)
            red = pr.residue_table(a, 3) if da else None
            squares = [(b, (b * b) % a) for b in pr.all_of_degree_less(fld, da)]
            for dd in range(4):
                for Dm in pr.monic_of_degree(fld, dd):
                    for sc, row in enumerate(rows, 1):
                        r = Dm.scale(sc) % a
                        expect = [sum(1 for b, sq in squares if sq == r and b.deg < da + el) for el in EPS_LOGS]
                        code = row[red[pr.poly_code(Dm)]] if da else 0
                        assert code == pr.poly_code(r)
                        assert window_counts(roots.get(code, ()), da, q) == expect


def test_counting_lemmas_even_q_above_2():
    # eps = 1/q in the second beta case; every monic a of degree 0 against
    # every nonzero delta of degree <= 2 and mu of degree <= 3
    rep = check_counting_lemmas(field(2, 2), 0, 0, max_deg_m=1)
    assert rep == {"name": "counting", "ok": True, "pairs": 16128}
