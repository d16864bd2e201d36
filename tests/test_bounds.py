import math
from fractions import Fraction

import pytest

from drinfeld_cm.bounds import andre_oort_search, easycounting_counts
from drinfeld_cm.brownval import OrderCM
from drinfeld_cm.ffield import field
from drinfeld_cm.laurent import LaurentSeries
from drinfeld_cm.modforms import eval_j, hilbert_poly
from drinfeld_cm import polyring as pr
from drinfeld_cm.sweeps import iter_orders

F3 = field(3)


def test_truncated_value_equals_fresh_evaluation():
    # the premise of every held value read at a lower precision
    for order in iter_orders(F3, 9):
        for pt in OrderCM.of(order).points:
            high = eval_j(pt, 26).value.truncate(12)
            assert parts(high) == parts(eval_j(pt, 12).value)


def parts(value):
    return (value,) if isinstance(value, LaurentSeries) else (value.x, value.y)


def test_andre_oort_hits_at_q3_are_the_vieta_products():
    # |D| <= 9: the h = 2 orders pair their two conjugates, j1 j2 = H_O(0), and
    # the six h = 1 orders (D of degree 1) pair in all 21 ways, j1 j2 =
    # H1(0) H2(0) with H = X - j; the 15 products of two such fields are hits
    rep = andre_oort_search(F3, 9, 12)
    orders = list(iter_orders(F3, 9))
    H = {o.label(): hilbert_poly(o) for o in orders}
    h2 = [o for o, Ho in H.items() if Ho.m == 2]
    h1 = [o.label() for o in orders if o.disc_deg() == 1]
    assert all(H[o].m == 1 for o in h1)
    assert (len(h2), len(h1), rep["moduli"], rep["pairs_checked"], rep["skipped"]) == (6, 6, 21, 111, [])
    expect = {((f"{o}#1 (log|j|=-1)", f"{o}#0 (log|j|=9)"), 8, pr.format_poly(H[o].coeffs[0])) for o in h2}
    for i, o1 in enumerate(h1):
        for o2 in h1[i:]:
            pair = tuple(sorted((f"{o1}#0 (log|j|=6)", f"{o2}#0 (log|j|=6)")))
            expect.add((pair, 12, pr.format_poly(H[o1].coeffs[0] * H[o2].coeffs[0])))
    # the lower valuation comes first; equal valuations are compared unordered
    got = {
        ((h["pair"][0], h["pair"][1]) if h["degree"] == 8 else tuple(sorted(h["pair"])), h["degree"], h["gamma"])
        for h in rep["hits"]
    }
    assert len(rep["hits"]) == 27 and got == expect
    assert rep["min_hit_degree"] == 8


def test_andre_oort_search_is_exact_at_q2():
    # two products of an h = 4 and an h = 2 order agree with a polynomial to
    # 14 fractional digits (their first nonzero digit is at T^-16): no hit,
    # since h1 != h2; 4 hits pair moduli of two different ramified fields
    rep = andre_oort_search(field(2), 16, 12)
    assert (len(rep["hits"]), rep["pairs_checked"], rep["skipped"]) == (42, 40294, [])
    gammas = {h["gamma"] for h in rep["hits"]}
    assert not gammas & {"T^8+T^7+T^5+T^4+T^3", "T^8+T^7+T^6+T^4+T+1"}
    square = "even_insep f=1#0 (log|j|=3)"
    assert [square, square] in [h["pair"] for h in rep["hits"]]
    for a, b in (
        ("B=T C=1 f=1#0 (log|j|=3)", "B=T+1 C=1 f=1#0 (log|j|=3)"),
        ("B=T C=1 f=T#0 (log|j|=6)", "B=T+1 C=1 f=T+1#0 (log|j|=6)"),
    ):
        assert [f"even_sep {a}", f"even_sep {b}"] in [h["pair"] for h in rep["hits"]]
    assert all(h["degree"] == pr.parse_poly(field(2), h["gamma"]).deg for h in rep["hits"])
    keys = [(h["degree"], h["gamma"]) for h in rep["hits"]]
    assert keys == sorted(keys)


def test_andre_oort_gamma_is_printed_in_F_q_codes():
    # F_4 codes are 0-3; the class polynomials, and so each gamma, lie over F_4
    rep = andre_oort_search(field(2, 2), 16, 15)
    assert rep["hits"]
    for hit in rep["hits"]:
        codes = [int(term.split("T")[0].rstrip("*") or 1) for term in hit["gamma"].split("+")]
        assert all(c < 4 for c in codes), hit["gamma"]


def easycounting_count(m, b0, M_log) -> int:
    """|{b = b0 mod m, |b| < q^M_log}| by enumeration, one Poly product per b:
    the scalar oracle of `easycounting_counts`.  It walks b = (b0 mod m) + m t
    over the t of degree < max(0, ceil(M_log) - deg m) + 1."""
    count = 0
    r = b0 % m
    for t in pr.all_of_degree_less(m.field, max(0, math.ceil(M_log) - m.deg) + 1):
        b = r + m * t
        if b.is_zero() or b.deg < M_log:
            count += 1
    return count


def easycounting_bound_check(m, b0, M_log) -> bool:
    """|{b = b0 mod m, |b| < q^M_log}| <= max(1, q^(1 + M_log)/|m|), exhaustively."""
    q = m.field.q
    return easycounting_count(m, b0, M_log) <= max(Fraction(1), Fraction(q) ** (1 + M_log) / q**m.deg)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_easycounting_counts_match_the_scalar_oracle(q):
    # every monic m of degree <= 2 and every b0 mod m, at the suite's M_log
    # (0, 1, deg m, deg m + 1) and at non-integer and negative ones
    fld = field(2, 2) if q == 4 else field(q)
    for dm in range(3):
        for M_log in {Fraction(0), Fraction(1), Fraction(dm), Fraction(dm + 1), Fraction(3, 2), Fraction(-1, 2)}:
            counts = easycounting_counts(fld, dm, dm, M_log)
            want = [
                [easycounting_count(m, b0, M_log) for b0 in pr.all_of_degree_less(fld, dm)]
                for m in pr.monic_of_degree(fld, dm)
            ]
            assert counts.tolist() == want
            if M_log.denominator == 1 and M_log >= 0:  # the suite's bound, an exact Fraction
                bound = max(Fraction(1), Fraction(q) ** (1 + M_log) / q**dm)
                verdicts = [
                    [easycounting_bound_check(m, b0, M_log) for b0 in pr.all_of_degree_less(fld, dm)]
                    for m in pr.monic_of_degree(fld, dm)
                ]
                assert (counts <= math.floor(bound)).tolist() == verdicts


@pytest.mark.parametrize("p, r", [(2, 1), (3, 1), (2, 2), (5, 1)])
def test_height_constants_are_held_by_the_base_field(p, r, monkeypatch):
    # ln q, ln 2 and sqrt q are enclosed once per field, equal to fresh
    # enclosures; cold heights take no fresh one, and the certificate no fresh ln 2
    from drinfeld_cm import certlog
    from drinfeld_cm.bounds import field_constants, final_certificate, lower_bounds_h

    base = field(p, r)
    q = base.q
    held = field_constants(base)
    assert held == (certlog.ln(q), certlog.ln(2), certlog.sqrt(q))
    asked = []
    for name in ("ln", "sqrt"):
        real = getattr(certlog, name)
        monkeypatch.setattr(certlog, name, lambda x, real=real, name=name: asked.append((name, x)) or real(x))
    orders = [o for o in iter_orders(base, q**2) if o.f.is_one()]
    for order in orders:
        lower_bounds_h(order)
    assert orders and field_constants(base) is held
    assert [a for a in asked if a[0] == "sqrt" or a[1] in (2, q)] == []
    final_certificate(base)  # its own ln calls are on other arguments, x = q among them
    assert ("ln", 2) not in asked


@pytest.mark.parametrize("p, r, bound", [(2, 1, 32), (3, 1, 27), (2, 2, 16)])
def test_disc_and_conductor_enclosures_are_held_by_the_base_field(p, r, bound, monkeypatch):
    # |D|^(1/2) is enclosed once per deg D and ln deg f once per deg f, equal
    # to fresh enclosures; a cold height on held degrees encloses nothing afresh
    from drinfeld_cm import certlog
    from drinfeld_cm.bounds import ln_int, lower_bounds_h, sqrt_disc

    base = field(p, r)
    q = base.q
    orders = list(iter_orders(base, bound))
    ds = sorted({o.disc_deg() for o in orders} - {0})  # the easy bound needs deg D >= 1
    fs = sorted({o.f.deg for o in orders} - {0})
    assert len(ds) > 1 and fs
    asked = []
    for name in ("exp_q", "ln"):
        real = getattr(certlog, name)
        monkeypatch.setattr(certlog, name, lambda *a, real=real, name=name: asked.append((name, a[0])) or real(*a))
    for order in orders:
        lower_bounds_h(order)
    assert sorted(x for name, x in asked if name == "exp_q") == [Fraction(d, 2) for d in ds]
    assert sorted(x for name, x in asked if name == "ln") == sorted(set(fs) | {2, q})  # field_constants reads ln 2 and ln q from ln_int
    assert all(sqrt_disc(base, d) == certlog.exp_q(Fraction(d, 2), q) for d in ds)
    assert all(ln_int(base, n) == certlog.ln(n) for n in fs)
    asked.clear()
    for order in orders:
        OrderCM.of(order).height_bounds = None
        lower_bounds_h(order)
    assert asked == []
