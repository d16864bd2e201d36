from collections import Counter
from fractions import Fraction

import pytest

from drinfeld_cm.errors import BadInputError, InvariantError
from drinfeld_cm.certlog import exact_log_q
from drinfeld_cm.ffield import field, quadratic_extension
from drinfeld_cm import polyring as pr
from drinfeld_cm.cmpoints import (
    c_epsilon_set,
    elliptic_floor_log,
    enumerate_points,
    majb_check,
)
from drinfeld_cm.laurent import LaurentSeries
from drinfeld_cm.quadfield import embed, order_from, order_from_discriminant, validate_field
from drinfeld_cm.sweeps import iter_orders
from test_quadfield import conjugate, imag_part_log, lattice_dist_log

F2 = field(2)
F3 = field(3)
FIELDS = {2: F2, 3: F3, 4: field(2, 2), 5: field(5)}


def P(fld, text):
    return pr.parse_poly(fld, text)


def hayes_order():
    return order_from_discriminant(F3, P(F3, "T-T^2"))


def test_enumerate_hayes_points():
    pts = enumerate_points(hayes_order())
    pairs = {(str(p.a), str(p.b)) for p in pts}
    assert pairs == {("1", "0"), ("T", "0"), ("T+2", "0"), ("T+1", "1"), ("T+1", "2")}
    for p in pts:
        # defining identity replay
        assert p.b * p.b - p.a.scale(4 % 3) * p.c == p.order.D_O
        assert (p.b.is_zero() or p.b.deg < p.a.deg) and p.a.deg <= p.c.deg
    seed = [p for p in pts if p.a.is_one()]
    assert len(seed) == 1 and seed[0].n == 1 and seed[0].eps == 0


def test_enumerate_ramified_seed():
    o = order_from_discriminant(F3, P(F3, "T"))
    pts = enumerate_points(o)
    assert any(p.a.is_one() and p.b.is_zero() for p in pts)
    for p in pts:
        assert p.eps == Fraction(1, 2)  # ramified: half-integer size
        assert p.n >= 1


def test_elliptic_neighbors_hayes():
    pts = enumerate_points(hayes_order())
    with_e = [p for p in pts if p.dist_e_log is not None]
    assert len(with_e) == 4  # the four n = 0 points
    for p in with_e:
        assert p.n == 0
        assert p.dist_e == Fraction(1, 3)  # exactly the floor 1/sqrt|D|
        f9 = field(3, 1, 2)
        # e^2 = sgn(D)/4 = 2 (4 = 1 mod 3)
        from drinfeld_cm.ffield import embedding_table

        assert f9.mul(p.e_code, p.e_code) == embedding_table(F3, f9)[2]
    ram = [p for p in enumerate_points(order_from_discriminant(F3, P(F3, "T")))]
    assert all(p.dist_e_log is None for p in ram)  # ramified flavor: never


def series_neighbor(pt):
    """(e, log_q|z - e|) read from the flattened series of z, as the
    enumeration once did: e is the constant digit and the distance the
    valuation of z - e, resolved below the distance floor."""
    flat = embed([pt.z], elliptic_floor_log(pt.order) + 8)
    e_code = flat.coeff_code(0)
    v = (flat - LaurentSeries.constant(flat.field, e_code, None)).valuation()
    assert v is not None
    return e_code, -v


@pytest.mark.parametrize("q, bound", [(2, 64), (3, 81), (4, 16), (5, 25)])
def test_elliptic_data_is_exact_and_matches_the_series(q, bound, monkeypatch):
    # enumeration embeds nothing: e and |z - e| come from the integer data,
    # and they equal what the flattened series of each n = 0 point reads
    from drinfeld_cm import cmpoints, quadfield

    calls = []

    def counting(zs, prec, **kwargs):
        calls.append(len(zs))
        return real(zs, prec, **kwargs)

    real = quadfield.embed
    monkeypatch.setattr(quadfield, "embed", counting)  # cmpoints imports no embed
    assert not hasattr(cmpoints, "embed")
    base = FIELDS[q]
    pools = [(o, enumerate_points(o)) for o in iter_orders(base, bound)]
    assert calls == []
    near = 0
    for order, pts in pools:
        inert = order.field.infinite_type == "inert"
        for p in pts:
            assert (p.dist_e_log is not None) == (inert and p.n == 0)
            if p.dist_e_log is not None:
                near += 1
                assert (p.e_code, p.dist_e_log) == series_neighbor(p)
    assert near > 0


@pytest.mark.parametrize(
    "make",
    [
        hayes_order,
        lambda: order_from_discriminant(F3, P(F3, "T")),
        lambda: order_from(validate_field(F3, "odd", D=P(F3, "T^3")), pr.one(F3)),  # w = f/g = 1/T
        lambda: order_from(validate_field(F2, "even_sep", B=P(F2, "T+1"), C=P(F2, "T")), pr.one(F2)),
        lambda: order_from(validate_field(F2, "even_insep"), P(F2, "T")),
    ],
    ids=["odd inert", "odd ramified", "odd, g = T", "even_sep", "even_insep"],
)
def test_enumerate_replays_each_point_valuation(make, monkeypatch):
    # a numerator that does not match (a, b, c) changes |z|, and the exact
    # replay of |z|^2 = |c|/|a| from the norm must catch it
    from drinfeld_cm import cmpoints

    order = make()
    assert enumerate_points(order)
    real = cmpoints.point_form

    def perturbed(order, a, b, c):
        A, x, C, beta = real(order, a, b, c)
        return A, x + A * pr.T(A.field), C, beta  # z + T, and |z + T| = q where |z| < q

    monkeypatch.setattr(cmpoints, "point_form", perturbed)
    with pytest.raises(InvariantError, match="valuation"):
        enumerate_points(order)


def test_elliptic_floor_sweep():
    # Lemma floor: dist >= 1/sqrt|D| for all odd-flavor points, |D| <= 3^6
    for dd in (2, 4):
        for dcode in range(3**dd):
            coeffs = []
            t = dcode
            for _ in range(dd):
                t, c = divmod(t, 3)
                coeffs.append(c)
            D = pr.Poly(F3, coeffs + [2])
            try:
                o = order_from_discriminant(F3, D)
            except BadInputError:
                continue
            for p in enumerate_points(o):
                if p.dist_e_log is not None:
                    assert -p.dist_e_log <= D.deg // 2


def test_insep_points():
    k = validate_field(F2, "even_insep")
    o = order_from(k, P(F2, "T"))
    pts = enumerate_points(o)
    assert len(pts) == 2
    by_a = {str(p.a): p for p in pts}
    assert by_a["1"].n == 2 and by_a["1"].eps == Fraction(1, 2)
    assert by_a["T+1"].n == 1
    assert all(p.dist_e_log is None for p in pts)


def test_even_sep_inert_points():
    k = validate_field(F2, "even_sep", B=P(F2, "T+1"), C=P(F2, "T"))
    o = order_from(k, pr.one(F2))
    pts = enumerate_points(o)
    assert len(pts) == 4
    seed = [p for p in pts if p.a.is_one()][0]
    assert seed.n == 1 and seed.eps == 0
    near = [p for p in pts if p.dist_e_log is not None]
    assert len(near) == 3
    for p in near:
        assert p.dist_e == Fraction(1, 2)  # floor 1/|fG| attained
        f4 = field(2, 2)
        assert f4.add(f4.mul(p.e_code, p.e_code), p.e_code) == 1  # e^2 + e = sgn(B)


def test_c_epsilon():
    o = hayes_order()
    pts = enumerate_points(o)
    all_near = c_epsilon_set(pts, Fraction(1))
    assert len(all_near) == 4
    none_near = c_epsilon_set(pts, Fraction(1, 3))  # strict: distance exactly 1/3 excluded
    assert none_near == []
    with pytest.raises(BadInputError):
        c_epsilon_set(pts, Fraction(2))


def test_majb():
    o = hayes_order()
    pts = [p for p in enumerate_points(o) if p.dist_e_log is not None]
    for p in pts:
        res = majb_check(p, Fraction(1))
        assert all(res.values()), res
    k = validate_field(F2, "even_sep", B=P(F2, "T+1"), C=P(F2, "T"))
    o2 = order_from(k, pr.one(F2))
    for p in enumerate_points(o2):
        if p.dist_e_log is not None:
            res = majb_check(p, Fraction(1))
            assert all(res.values()), res


def series_majb(pt, eps):
    """`majb_check`'s closeness tests read from the embedded series of z, as
    `majb_check` once read them: its oracle."""
    order = pt.order
    k = order.field
    base = k.base
    out = {"a_matches_sqrtD": 2 * pt.a.deg == order.D_O.deg}
    eps_a_log = exact_log_q(eps, base.q) + pt.a.deg  # log_q(eps |a|)
    out["b_small"] = pt.b.is_zero() or pt.b.deg < eps_a_log
    p = elliptic_floor_log(order) + 12
    desc2 = quadratic_extension(base)
    flat = embed([pt.z], p)
    a_s = LaurentSeries.from_poly(pt.a, desc2)
    b_s = LaurentSeries.from_poly(pt.b, desc2)
    if k.flavor == "odd":
        two = LaurentSeries.constant(desc2, 2 % base.p, None)
        sqrtD = two * a_s * flat + b_s
        e_inv = desc2.inv(desc2.mul(2 % base.p, pt.e_code))
        v = (sqrtD.scale(e_inv) - a_s).valuation()
        out["sqrtD_over_2e_close"] = v is None or -v < eps_a_log
    else:
        fG = order.f * k.G
        fg_s = LaurentSeries.from_poly(fG, desc2)
        v1 = (fg_s - a_s).valuation()
        out["fG_close"] = v1 is None or -v1 < eps_a_log
        xi = (flat * a_s - b_s) * fg_s.truncate(p + fG.deg + 2).inverse()
        beta = xi - LaurentSeries.constant(desc2, pt.e_code, None)
        assert (beta - conjugate(beta)).is_zero_known()  # xi - e lies in k_infinity
        v2 = (b_s + beta * fg_s).valuation()
        out["b_beta_close"] = v2 is None or -v2 < eps_a_log
    return out


@pytest.mark.parametrize("q, bound", [(2, 64), (3, 81), (4, 16), (5, 25)])
def test_majb_from_the_integer_data_matches_the_series(q, bound):
    # every near point and every eps in {1, 1/q, 1/q^2} that it lies within
    checked = Counter()
    for order in iter_orders(FIELDS[q], bound):
        for p in enumerate_points(order):
            for eps in (Fraction(1), Fraction(1, q), Fraction(1, q * q)):
                if p.dist_e_log is not None and p.dist_e < eps:
                    got = majb_check(p, eps)
                    assert got == series_majb(p, eps), (order.label(), p.a, p.b, eps)
                    assert got["a_matches_sqrtD"] and all(v for k, v in got.items() if k.endswith("close"))
                    checked[eps] += 1
    assert checked[1] > 0 and (q > 3 or checked[Fraction(1, q)] > 0)


def fundamental_domain_check(pt) -> bool:
    """|z| = |z|_i = |z|_A >= 1, computed from the embedding."""
    size = Fraction(pt.c.deg - pt.a.deg, 2)  # log_q |z|
    ze = embed([pt.z], int(2 * size) + 10)
    if imag_part_log(ze) != size:
        return False
    return lattice_dist_log(ze, int(size) + 1, pt.order.field.base) == size and size >= 0


def test_fundamental_domain():
    for o in [
        hayes_order(),
        order_from_discriminant(F3, P(F3, "T")),
        order_from(validate_field(F2, "even_insep"), P(F2, "T")),
        order_from(validate_field(F2, "even_sep", B=P(F2, "T+1"), C=P(F2, "T")), pr.one(F2)),
    ]:
        for p in enumerate_points(o):
            assert fundamental_domain_check(p)


def test_tsv_row():
    p = enumerate_points(hayes_order())[0]
    row = p.tsv_row()
    assert row.split("\t")[0] == "1"
