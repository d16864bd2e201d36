from drinfeld_cm.bounds import andre_oort_search
from drinfeld_cm.brownval import OrderCM
from drinfeld_cm.ffield import field, quadratic_extension
from drinfeld_cm.laurent import LaurentSeries
from drinfeld_cm.modforms import eval_j
from drinfeld_cm import polyring as pr
from drinfeld_cm.quadfield import order_from_discriminant

from conftest import count_rows

F3 = field(3)
F9 = quadratic_extension(F3)


def test_andre_oort_search_evaluates_each_point_once(monkeypatch):
    rows = count_rows(monkeypatch)
    rep = andre_oort_search(F3, 9, 8)
    assert (rep["moduli"], rep["pairs_checked"], len(rep["hits"])) == (21, 90, 6)
    assert len(rows) == len({id(pt) for pt, _, _ in rows}) == 21
    # the premise: a truncated evaluation equals a fresh one at the lower precision
    for pt, prec, _ in list(rows):
        cdesc = None if pt.order.field.infinite_type == "inert" else F9
        high = eval_j(pt, prec, cdesc=cdesc).value.truncate(12)
        low = eval_j(pt, 12, cdesc=cdesc).value
        assert prec > 12 and parts(high) == parts(low)


def test_search_and_cross_check_evaluate_each_point_once(monkeypatch):
    # the search asks for its precisions before the moduli are certified, so
    # the cross-check reads those values, and a ramified value over F_9 is
    # the F_3 value, lifted
    rows = count_rows(monkeypatch)
    andre_oort_search(F3, 27, 8)
    assert len(rows) == len({id(pt) for pt, _, _ in rows}) == 165
    assert all(cdesc is None for _, _, cdesc in rows)


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


def test_andre_oort_gamma_is_printed_in_F_q_codes():
    # the products are read over F_16: each gamma is mapped back through the
    # embedding of F_4, whose codes are 0-3
    rep = andre_oort_search(field(2, 2), 16, 15)
    assert rep["hits"]
    for hit in rep["hits"]:
        codes = [int(term.split("T")[0].rstrip("*") or 1) for term in hit["gamma"].split("+")]
        assert all(c < 4 for c in codes), hit["gamma"]
