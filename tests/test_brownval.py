from collections import Counter
from fractions import Fraction

import pytest

from drinfeld_cm.errors import BadInputError, InvariantError, PrecisionError
from drinfeld_cm.ffield import field
from drinfeld_cm import brownval, classno, cli
from drinfeld_cm import polyring as pr
from drinfeld_cm.brownval import (
    OrderCM,
    brown_prec,
    log_abs_j,
    moduli_of,
    pgl2_moves,
    ramified_nonunit_certificate,
    weil_height,
)
from drinfeld_cm.cmpoints import enumerate_points
from drinfeld_cm.quadfield import order_from, order_from_discriminant, validate_field

from conftest import count_rows

F2 = field(2)
F3 = field(3)


def P(fld, text):
    return pr.parse_poly(fld, text)


def hayes_order():
    return order_from_discriminant(F3, P(F3, "T-T^2"))


def test_log_abs_j_examples():
    pts = enumerate_points(hayes_order())
    by_a = {(str(p.a), str(p.b)): p for p in pts}
    assert log_abs_j(by_a[("1", "0")]) == 9  # q^(n+1), n = 1
    assert log_abs_j(by_a[("T", "0")]) == -1  # q + (q+1) log dist = 3 - 4
    # insep q=2 f=1: z = sqrt(T): n = 1: (q+1)q/2 = 3
    o = order_from(validate_field(F2, "even_insep"), pr.one(F2))
    assert log_abs_j(enumerate_points(o)[0]) == 3


def test_moduli_hayes():
    mods = moduli_of(hayes_order())
    assert [m.log_j for m in mods] == [9, -1]
    assert [len(m.points) for m in mods] == [1, 4]


def test_weil_height_hayes():
    h = weil_height(moduli_of(hayes_order()))
    assert h == Fraction(9, 2)
    # easy lower bound |D|^(1/2)/h = 3/2
    assert h >= Fraction(3, 2)


def test_ramified_heights_floor():
    q = 3
    for d in ["T", "T^3+2*T+1", "2*T^3+T"]:
        o = order_from_discriminant(F3, P(F3, d))
        mods = moduli_of(o)
        for m in mods:
            assert m.log_j >= Fraction(q * (q + 1), 2)
        assert weil_height(moduli_of(o)) >= Fraction(q * (q + 1), 2)


def test_certificate():
    cert = ramified_nonunit_certificate(order_from_discriminant(F3, P(F3, "T")))
    assert cert["nonunit"] and int(cert["norm_degree"]) >= 6
    o2 = order_from(validate_field(F2, "even_insep"), P(F2, "T"))
    cert2 = ramified_nonunit_certificate(o2)
    assert cert2["nonunit"]
    assert all(Fraction(v) >= 3 for v in cert2["conjugate_valuations"])
    with pytest.raises(BadInputError):
        ramified_nonunit_certificate(hayes_order())  # inert


def test_product_degree():
    mods = moduli_of(hayes_order())
    assert mods[0].log_j + mods[1].log_j == 8  # log_q |j_1 j_2| of the Hayes pair: q^2 - 1
    assert mods[0].log_j + mods[0].log_j == 18


def test_insep_class_and_heights():
    o = order_from(validate_field(F2, "even_insep"), P(F2, "T"))
    mods = moduli_of(o)
    assert len(mods) == 2  # h = |f| = 2
    assert sorted(m.log_j for m in mods) == [3, 6]
    assert weil_height(moduli_of(o)) == Fraction(9, 2)


# -- exact conjugate classes ----------------------------------------------------

F4 = field(2, 2)
F5 = field(5)


def sample_orders():
    """Orders over F_3, F_4 and F_5 covering every flavor and both infinite types."""

    def sep4(B, C):
        return validate_field(F4, "even_sep", B=P(F4, B), C=P(F4, C))

    return [
        hayes_order(),  # F_3 odd inert, classes of 1 and 4 points
        order_from_discriminant(F3, P(F3, "2*T^2+2")),  # F_3 odd inert
        order_from_discriminant(F3, P(F3, "T^3")),  # F_3 odd ramified, two conjugates of equal valuation
        order_from(sep4("2*T+2", "T"), pr.one(F4)),  # F_4 even_sep inert, a class of 5 points
        order_from(sep4("T", "1"), P(F4, "T")),  # F_4 even_sep ramified, two of equal valuation
        order_from(validate_field(F4, "even_insep"), P(F4, "T")),  # F_4 even_insep
        order_from_discriminant(F5, P(F5, "2*T^2+2")),  # F_5 odd inert, a class of 6 points
        order_from_discriminant(F5, P(F5, "T^3")),  # F_5 odd ramified
    ]


def pkey(p):
    return (p.a.coeffs, p.b.coeffs)


def numeric_partition(points, digits=24):
    """Points grouped by agreement of j on `digits` digits past the valuation."""
    from drinfeld_cm.modforms import eval_j

    classes = []  # (valuation, value, [keys])
    for p in points:
        lg = log_abs_j(p)
        val = eval_j(p, int(-lg) + digits).value
        for cls in classes:
            if cls[0] == lg and (cls[1] - val).is_zero_known():
                cls[2].append(pkey(p))
                break
        else:
            classes.append((lg, val, [pkey(p)]))
    return sorted(tuple(c[2]) for c in classes)


@pytest.mark.parametrize("order", sample_orders(), ids=lambda o: f"q{o.field.q}-{o.label()}")
def test_exact_partition_matches_numeric(order):
    cm = OrderCM.of(order)
    exact = sorted(tuple(map(pkey, cls)) for cls in cm.classes())
    assert exact == numeric_partition(cm.points)
    assert len(moduli_of(order)) == len(exact)
    assert all(len(c) in (1, order.field.q + 1) for c in exact)


def test_pgl2_moves_count():
    for fld in (F2, F3, F4, F5):
        q = fld.q
        moves = pgl2_moves(fld)
        assert len(moves) == len(set(moves)) == q * (q * q - 1)


def test_dropped_move_is_caught(monkeypatch):
    order = hayes_order()
    cm = OrderCM(order)
    big = next(cls for cls in cm.classes() if len(cls) > 1)
    moves = pgl2_moves(F3)
    # the one move that takes the first point of the class to the second
    key = tuple(c.coeffs for c in brownval._integral_data(big[1])[:2])
    joining = [mv for mv in moves if brownval._orbit_keys(big[0], [mv]) == [key]]
    assert len(joining) == 1
    monkeypatch.setattr(brownval, "pgl2_moves", lambda base: [mv for mv in moves if mv != joining[0]])
    with pytest.raises(InvariantError):  # the orbits no longer partition the points
        moduli_of(order)


def test_wrong_expected_is_caught(monkeypatch, capsys):
    # every answer that rests on the moduli counts them against the conductor route
    real = classno.class_number_by_conductor
    monkeypatch.setattr(classno, "class_number_by_conductor", lambda order: real(order) + 1)
    for cmd in ("hilbert", "height", "class-number"):
        monkeypatch.setattr(brownval, "_store", {})
        assert cli.main([cmd, "--q", "3", "--flavor", "odd", "--D", "T-T^2"]) == 1
        assert capsys.readouterr().err.startswith("invariant violation: distinct-moduli count 2 disagrees")
    with pytest.raises(InvariantError, match="distinct-moduli count"):
        ramified_nonunit_certificate(order_from_discriminant(F3, P(F3, "T^3")))


def test_wrongly_split_class_exhausts_precision(monkeypatch):
    # equal j-values never show a nonzero digit: exit code 2, not a wrong answer
    real = brownval.conjugate_classes

    def split(points):
        return [part for cls in real(points) for part in ((cls[:1], cls[1:]) if len(cls) > 1 else (cls,))]

    monkeypatch.setattr(brownval, "conjugate_classes", split)
    monkeypatch.setattr(classno, "class_number_by_conductor", lambda order: 3)  # the split count
    with pytest.raises(PrecisionError):
        moduli_of(hayes_order())


def test_wrongly_merged_class_is_caught_by_known_values(monkeypatch):
    o = order_from_discriminant(F3, P(F3, "T^3"))
    real = brownval.conjugate_classes

    def merge(points):
        classes = real(points)
        twins = [cls for cls in classes if log_abs_j(cls[0]) == 6]
        assert len(twins) == 2
        return [cls for cls in classes if cls not in twins] + [twins[0] + twins[1]]

    monkeypatch.setattr(brownval, "conjugate_classes", merge)
    cm = OrderCM.of(o)
    cm._h_conductor = len(cm.classes())  # the merged count, so the count check passes
    cm.j_values(cm.points, brown_prec)
    with pytest.raises(InvariantError, match="different j-values"):
        moduli_of(o)


def test_brown_check_evaluates_each_point_once(monkeypatch):
    from drinfeld_cm import sweeps

    rows = count_rows(monkeypatch)
    rep = sweeps.order_report(hayes_order(), check_brown=True)
    calls = Counter(pkey(pt) for pt, _ in rows)
    assert sorted(calls) == sorted(map(pkey, rep.points))
    assert set(calls.values()) == {1}
    assert rep.h_orbit == 2


def test_report_cache_serves_unchecked_from_checked(monkeypatch):
    from drinfeld_cm import sweeps

    rows = count_rows(monkeypatch)
    asked = []
    real_j_values = OrderCM.j_values

    def recording(cm, points, prec):
        asked.extend((pkey(pt), prec(pt) if callable(prec) else prec) for pt in points)
        return real_j_values(cm, points, prec)

    def moduli(rep):
        return [(m.log_j, [pkey(p) for p in m.points]) for m in rep.moduli]

    order = order_from_discriminant(F3, P(F3, "T^3"))  # equal-valuation classes: an unchecked build evaluates j
    fresh = sweeps.order_report(order, check_brown=False)
    assert rows and not fresh.brown_checked
    # a checked request after an unchecked one asks for every point at the
    # Brown precision; the store evaluates only the points not yet held
    monkeypatch.setattr(OrderCM, "j_values", recording)
    checked = sweeps.order_report(order, check_brown=True)
    assert checked.brown_checked
    assert sorted(asked) == sorted((pkey(p), brown_prec(p)) for p in checked.points)
    calls = Counter(pkey(pt) for pt, _ in rows)
    assert sorted(calls) == sorted(map(pkey, checked.points))
    assert set(calls.values()) == {1}  # across both requests every point is evaluated exactly once
    assert moduli(checked) == moduli(fresh)
    monkeypatch.setattr(brownval, "_store", {})
    checked = sweeps.order_report(order, check_brown=True)
    rows.clear()
    assert sweeps.order_report(order, check_brown=False) is checked
    assert not rows
