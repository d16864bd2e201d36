from fractions import Fraction

import pytest

from drinfeld_cm.brownval import OrderCM, moduli_of
from drinfeld_cm.errors import BadInputError
from drinfeld_cm.ffield import field
from drinfeld_cm import polyring as pr
from drinfeld_cm.classno import (
    check_class_bound,
    class_number_by_conductor,
    l_data,
    l_route,
    l_route_applies,
    maximal_class_number,
    unit_index,
)
from drinfeld_cm.quadfield import Order, order_from, order_from_discriminant, validate_field
from drinfeld_cm.sweeps import iter_orders
from drinfeld_cm.verify import check_brown_sweep, check_class_numbers

from conftest import count_rows

F2 = field(2)
F3 = field(3)
F4 = field(2, 2)
F5 = field(5)


def P(fld, text):
    return pr.parse_poly(fld, text)


def test_l_route_hayes_field():
    k = validate_field(F3, "odd", D=P(F3, "T-T^2"))
    data = l_route(k)
    assert data.g_K == 0
    assert data.lam == [1, 1]  # chi(T) = 0, chi(T+1) = 1, chi(T+2) = 0
    assert data.L == [1]  # Lambda = (1 + t) L_K
    assert data.h_K == 1 and data.h_OK == 2
    assert sum(data.lam) == 2 * data.h_K
    assert all(r == 0 for r in data.functional_equation_residual())


def test_l_route_runs_once_per_field(monkeypatch):
    from drinfeld_cm import classno
    from drinfeld_cm.sweeps import order_report

    calls = []
    real = classno.l_route
    monkeypatch.setattr(classno, "l_route", lambda field: calls.append(field) or real(field))
    base = field(3)  # the registry's F_3, emptied for this test: no field over it holds L-data yet
    o = order_from_discriminant(base, P(base, "T-T^2"))
    rep = order_report(o)  # conductor route and h_lroute read one L-data
    assert rep.h_lroute == rep.h_conductor == 2
    assert maximal_class_number(o.field) == l_data(o.field).h_OK == 2
    assert calls == [o.field]


def test_l_data_of_an_odd_field_is_held_on_the_field_of_its_D_K(monkeypatch):
    from drinfeld_cm import classno

    calls = []
    real = classno.l_route
    monkeypatch.setattr(classno, "l_route", lambda field: calls.append(field) or real(field))
    base = field(3)
    wide = order_from_discriminant(base, P(base, "2*T^4+T^3"))  # conductor T in k(sqrt(2 T^2 + T))
    assert wide.field.D_K == P(base, "2*T^2+T") and not wide.is_maximal()
    K = validate_field(base, "odd", D=wide.field.D_K)
    assert order_from_discriminant(base, P(base, "2*T^2+T")).field is K  # one QuadField per key
    assert l_data(wide.field) is l_data(K)
    assert class_number_by_conductor(wide) == OrderCM.of(wide).class_number_by_conductor()
    assert calls == [K]


def test_class_numbers_of_the_sweep_orders_run_l_route_once_per_K(monkeypatch):
    # 150 orders of F_3[T] with |D| <= 81 lie in 102 fields with a non-constant
    # D_K; the orders of one K share its L-data, whatever D defines their field
    from drinfeld_cm import classno

    calls = []
    real = classno.l_route
    monkeypatch.setattr(classno, "l_route", lambda field: calls.append(field) or real(field))
    orders = list(iter_orders(field(3), 81))
    for o in orders:
        class_number_by_conductor(o)
    assert len(orders) == 150
    assert len(calls) == len({k.D_K for k in calls}) == 102
    assert {k.D_K for k in calls} == {o.field.D_K for o in orders if not o.field.is_constant_extension}


def test_l_route_guards():
    with pytest.raises(BadInputError):
        l_route(validate_field(F3, "odd", D=P(F3, "2*T^2")))  # constant extension
    with pytest.raises(BadInputError):
        l_route(validate_field(F2, "even_insep"))


def test_l_route_applies_to_inert_separable_maximal_orders():
    one2, one3 = pr.one(F2), pr.one(F3)
    constant = validate_field(F3, "odd", D=P(F3, "2*T^2"))
    applies = [
        order_from(validate_field(F3, "odd", D=P(F3, "T-T^2")), one3),
        order_from(validate_field(F2, "even_sep", B=P(F2, "T+1"), C=P(F2, "T")), one2),
    ]
    not_applies = [
        order_from(validate_field(F3, "odd", D=P(F3, "T-T^2")), P(F3, "T")),  # not maximal
        order_from(validate_field(F3, "odd", D=P(F3, "T")), one3),  # ramified
        Order(constant, one3, constant.D_K),  # the constant extension's maximal order (order_from refuses it)
        order_from(validate_field(F2, "even_insep"), one2),  # inseparable
    ]
    assert [l_route_applies(o) for o in applies + not_applies] == [True] * 2 + [False] * 4
    for o in applies + not_applies[1:2]:  # maximal orders; the route itself covers the ramified field too
        assert l_route(o.field).h_OK == len(OrderCM.of(o).classes())


@pytest.mark.parametrize("base, d_bound", [(F3, 81), (F4, 16), (F5, 25)], ids=["q3", "q4", "q5"])
def test_ramified_l_route_matches_the_exact_class_count(base, d_bound):
    # with infinity ramified, h(O_K) = L_K(1) and Lambda = L_K has degree 2g
    maximal = [
        o
        for o in iter_orders(base, d_bound)
        if o.is_maximal() and o.field.infinite_type == "ramified" and o.field.flavor != "even_insep"
    ]
    assert maximal
    for o in maximal:
        data = l_route(o.field)
        assert data.L == data.lam and len(data.L) == 2 * data.g_K + 1
        assert all(r == 0 for r in data.functional_equation_residual())
        assert data.h_OK == data.h_K == len(OrderCM.of(o).classes()), o.label()


def test_l_route_even_sep():
    k = validate_field(F2, "even_sep", B=P(F2, "T+1"), C=P(F2, "T"))
    data = l_route(k)
    assert data.g_K == 0
    assert data.h_OK == 2
    assert len(OrderCM.of(order_from(k, pr.one(F2))).classes()) == 2


def test_triple_agreement_hayes():
    o = order_from_discriminant(F3, P(F3, "T-T^2"))
    assert len(OrderCM.of(o).classes()) == 2
    assert class_number_by_conductor(o) == 2
    assert len(moduli_of(o)) == 2
    assert l_route(o.field).h_OK == 2


def test_insep_conductor_route():
    k = validate_field(F2, "even_insep")
    o = order_from(k, P(F2, "T"))
    assert class_number_by_conductor(o) == 2  # h = |f|, all chi = 0
    assert len(moduli_of(o)) == 2
    assert maximal_class_number(k) == 1
    assert len(OrderCM.of(order_from(k, pr.one(F2))).classes()) == 1  # cross-check h(O_F) = 1


def test_constant_extension_unit_index():
    # K = F_9(T) via D = 2T^2: h = |f| prod(1 - chi/|P|)/(q+1) = 3*(4/3)/4 = 1
    o = order_from_discriminant(F3, P(F3, "2*T^2"))
    assert unit_index(o) == 4
    assert maximal_class_number(o.field) == 1
    assert len(moduli_of(o)) == 1


def test_conductor_route_nonmaximal_odd():
    # D = T^3 has D_K = T, f = T: ramified field, L-route on the maximal order
    o = order_from_discriminant(F3, P(F3, "T^3"))
    assert o.f == P(F3, "T")
    assert class_number_by_conductor(o) == len(OrderCM.of(o).classes()) == len(moduli_of(o))


def test_class_bound():
    o = order_from_discriminant(F3, P(F3, "T-T^2"))
    rep = check_class_bound(o, len(moduli_of(o)))
    assert rep["holds"] and rep["h"] == 2
    assert Fraction(rep["bound"]) == Fraction(37, 8) * 3 * 4
    with pytest.raises(BadInputError):
        check_class_bound(order_from_discriminant(F3, P(F3, "T")), 1)  # ramified


def test_class_bound_sweep_small():
    for dd in (2, 4):
        for code in range(3**dd):
            coeffs = []
            t = code
            for _ in range(dd):
                t, c = divmod(t, 3)
                coeffs.append(c)
            D = pr.Poly(F3, coeffs + [2])
            try:
                o = order_from_discriminant(F3, D)
            except BadInputError:
                continue
            rep = check_class_bound(o, len(moduli_of(o)))
            assert rep["holds"]


def test_class_numbers_reuse_the_checked_reports(monkeypatch):
    # the Brown sweep already evaluated every point: the class-number suite,
    # class bound included, reads h from the cached reports (below |D| = 81 a
    # fresh class-number computation makes no j-evaluation either)
    check_brown_sweep(F3, 81)
    rows = count_rows(monkeypatch)
    rep = check_class_numbers(F3, 81)
    assert rep["ok"] and rep["bounds"] > 0
    assert rows == []
