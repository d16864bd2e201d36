from fractions import Fraction

import pytest

from drinfeld_cm.errors import BadInputError
from drinfeld_cm.ffield import field, quadratic_extension, embedding_table
from drinfeld_cm.laurent import LaurentSeries
from drinfeld_cm import polyring as pr
from drinfeld_cm.brownval import brown_prec, log_abs_j, moduli_of
from drinfeld_cm.cmpoints import enumerate_points
from drinfeld_cm.modforms import (
    EvalContext,
    eval_j,
    hilbert_poly,
    unit_check,
    verify_lemma_A1,
    verify_lemma_A2,
)
from drinfeld_cm.quadfield import order_from, order_from_discriminant, validate_field

F2 = field(2)
F3 = field(3)
F4 = field(2, 2)


def P(fld, text):
    return pr.parse_poly(fld, text)


def hayes_order():
    return order_from_discriminant(F3, P(F3, "T-T^2"))


def all_points(order):
    return enumerate_points(order)


def test_eval_j_matches_formula_hayes():
    for pt in all_points(hayes_order()):
        assert -eval_j(pt, brown_prec(pt)).v == log_abs_j(pt)


def test_eval_j_matches_formula_other_flavors():
    orders = [
        order_from_discriminant(F3, P(F3, "T")),
        order_from_discriminant(F3, P(F3, "T^3+2*T+1")),
        order_from(validate_field(F2, "even_insep"), P(F2, "T")),
        order_from(validate_field(F2, "even_sep", B=P(F2, "T+1"), C=P(F2, "T")), pr.one(F2)),
        order_from(validate_field(F2, "even_sep", B=P(F2, "T"), C=pr.one(F2)), pr.one(F2)),
    ]
    for o in orders:
        for pt in all_points(o):
            assert -eval_j(pt, brown_prec(pt)).v == log_abs_j(pt)


def test_lemma_A1_identity():
    # insep z = sqrt(T): v(t(z)) = (2 - 1/2)*2 = 3 (the worked example)
    o = order_from(validate_field(F2, "even_insep"), pr.one(F2))
    rows = verify_lemma_A1(all_points(o)[0], max_deg_a=2)
    assert all(r["ok"] for r in rows)
    assert rows[0]["v_t_computed"] == 3
    # deg a = 1 scales the valuation by q
    assert rows[1]["v_t_computed"] == 6
    seed = [p for p in all_points(hayes_order()) if p.a.is_one()][0]
    rows3 = verify_lemma_A1(seed, max_deg_a=2)
    assert all(r["ok"] for r in rows3)
    assert rows3[0]["v_t_computed"] == Fraction(9, 2)  # v(t(z)^2) = 9


def test_lemma_A2():
    seed = [p for p in all_points(hayes_order()) if p.a.is_one()][0]
    r1 = verify_lemma_A2(seed, 3, 1, 1)  # (delta=q, mu=1, nu=1)
    assert r1["ok"] and r1["expected"] == (3 - 1) * Fraction(3, 2) * 3
    r2 = verify_lemma_A2(seed, 2, 0, 0)  # (delta=q-1, nu=0): leading term of 1 - gt
    assert r2["ok"]
    with pytest.raises(BadInputError):
        verify_lemma_A2(seed, 1, 0, 1)  # delta < nu + 1
    with pytest.raises(BadInputError):
        verify_lemma_A2(seed, 3, 10**6, 1)  # mu too large


def test_hayes_product_and_branch():
    mods = moduli_of(hayes_order(), value_prec=40)
    j1, j2 = mods[0].numeric, mods[1].numeric
    prod = j1 * j2
    poly, tail = prod.polynomial_part()
    assert tail is None
    F9 = quadratic_extension(F3)
    emb = embedding_table(F3, F9)
    assert poly == (P(F3, "T-T^2") ** 4).map_coeffs(emb, F9)
    # j1 = (T-T^2)^2 * (1 + T + sqrt(T^2-T))^5 for exactly one branch
    s = LaurentSeries.from_poly(P(F3, "T^2-T"), F3).truncate(60).sqrt()
    matches = []
    for root in (s, -s):
        eta = LaurentSeries.from_poly(P(F3, "T+1"), F3) + root
        cand = LaurentSeries.from_poly(P(F3, "T-T^2") ** 2, F3) * eta**5
        codes = [emb[cand.coeff_code(e)] for e in range(cand.valuation(), 25)]
        cand9 = LaurentSeries.from_codes(F9, cand.valuation(), codes, 25)
        matches.append((j1.truncate(25) - cand9).is_zero_known())
    assert sorted(matches) == [False, True]


def test_hilbert_hayes():
    H = hilbert_poly(hayes_order())
    assert H.m == 2
    assert H.coeffs[0] == P(F3, "T-T^2") ** 4
    assert H.coeffs[2].is_one()
    assert H.coeffs[1].deg == 9  # -(j1 + j2)
    assert H.constant_term_degree() == 8
    assert unit_check(H) == ("nonunit", 8)


def test_hilbert_stability():
    H1 = hilbert_poly(hayes_order())
    H2 = hilbert_poly(hayes_order(), extra_prec=30)
    assert H1.coeffs == H2.coeffs


def test_hilbert_insep():
    o = order_from(validate_field(F2, "even_insep"), P(F2, "T"))
    H = hilbert_poly(o)
    assert H.m == 2
    x0, y0 = H.coeffs[0]
    assert (x0 * x0 + pr.T(F2) * y0 * y0).deg == 18  # |const|^2 = q^18 -> degree 9
    assert H.constant_term_degree() == 9
    assert unit_check(H)[0] == "nonunit"


def test_hilbert_h_of_j_vanishes():
    # H(j_i) = 0 to precision for each conjugate
    o = hayes_order()
    H = hilbert_poly(o)
    mods = moduli_of(o, value_prec=40)
    F9 = quadratic_extension(F3)
    for m in mods:
        j = m.numeric
        acc = LaurentSeries.zero(F9, None)
        for c in reversed(H.coeffs):
            acc = acc * j + LaurentSeries.from_poly(c, F9)
        assert acc.is_zero_known()


def test_eval_j_plan_reported():
    seed = [p for p in all_points(hayes_order()) if p.a.is_one()][0]
    jv = eval_j(seed, 25)
    assert jv.plan["max_deg_a"] >= 1 and jv.plan["e_c_terms"] >= 2


SHARED_STATE_ORDERS = {
    "inert odd": hayes_order,
    "inert even_sep": lambda: order_from(validate_field(F4, "even_sep", B=P(F4, "2*T+2"), C=P(F4, "T")), pr.one(F4)),
    "ramified odd": lambda: order_from_discriminant(F3, P(F3, "T^3+2*T+1")),
}


@pytest.mark.parametrize("name", sorted(SHARED_STATE_ORDERS))
def test_eval_j_shared_state_matches_fresh(name, monkeypatch):
    # a fresh order has a fresh QuadField, hence no held xi series
    make = SHARED_STATE_ORDERS[name]
    lo, hi = 12, 40

    def fresh(i, prec):
        monkeypatch.setattr(EvalContext, "_shared", {})
        return eval_j(enumerate_points(make())[i], prec)

    npts = len(enumerate_points(make()))
    expect = {(i, prec): fresh(i, prec) for i in range(npts) for prec in (lo, hi)}
    for precs in ((hi, lo), (lo, hi)):
        monkeypatch.setattr(EvalContext, "_shared", {})
        pts = enumerate_points(make())
        for prec in precs:
            for i, pt in enumerate(pts):
                got, want = eval_j(pt, prec), expect[(i, prec)]
                assert got.plan == want.plan
                if isinstance(got.value, LaurentSeries):
                    assert got.value == want.value
                else:
                    assert (got.value.x, got.value.y) == (want.value.x, want.value.y)
        assert 0 < len(EvalContext._shared) < 2 * npts  # some points shared a context
        if pts[0].order.field.infinite_type == "inert":
            assert pts[0].order.field._xi  # the field held its xi series
