from drinfeld_cm.bounds import andre_oort_search
from drinfeld_cm.brownval import OrderCM
from drinfeld_cm.ffield import field, quadratic_extension
from drinfeld_cm.laurent import LaurentSeries
from drinfeld_cm.modforms import eval_j, hilbert_poly
from drinfeld_cm import polyring as pr
from drinfeld_cm.quadfield import order_from_discriminant
from drinfeld_cm.sweeps import iter_orders

F3 = field(3)
F9 = quadratic_extension(F3)


def test_truncated_value_equals_fresh_evaluation():
    # the premise of every held value read at a lower precision
    for order in iter_orders(F3, 9):
        for pt in OrderCM.of(order).points:
            high = eval_j(pt, 26).value.truncate(12)
            assert parts(high) == parts(eval_j(pt, 12).value)


def test_lifted_ramified_value_equals_fresh_evaluation():
    order = order_from_discriminant(F3, pr.parse_poly(F3, "T^3+2*T+1"))  # ramified, some b = 0
    cm = OrderCM.of(order)
    assert order.field.infinite_type == "ramified" and any(p.b.is_zero() for p in cm.points)
    for prec in (6, 14):
        lifted = cm.j_values(cm.points, prec, F9)
        for pt, jv in zip(cm.points, lifted):
            fresh = eval_j(pt, prec, cdesc=F9)
            assert jv.value.x.field == F9 and parts(jv.value) == parts(fresh.value)
            assert jv.plan == fresh.plan


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
