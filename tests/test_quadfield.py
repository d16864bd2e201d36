import random
from fractions import Fraction

import pytest

from drinfeld_cm.errors import BadInputError, InvariantError, PrecisionError
from drinfeld_cm.ffield import embedding_table, field, quadratic_extension
from drinfeld_cm import laurent
from drinfeld_cm.laurent import LaurentSeries
from drinfeld_cm import polyring as pr
from drinfeld_cm.quadfield import (
    Order,
    QuadElement,
    QuadField,
    QuadSeries,
    QuadSeriesContext,
    RatFunc,
    embed,
    order_from,
    order_from_discriminant,
    round_to_A,
    validate_field,
    _square,
    xi_series,
)

from conftest import empty_registry

F2 = field(2)
F3 = field(3)


def P(fld, text):
    return pr.parse_poly(fld, text)


def el(k, x, y, den="1"):
    """The exact element (x + y xi)/den of k, from the polynomials' text."""
    return QuadElement(k, P(k.base, x), P(k.base, y), P(k.base, den))


def rand_poly(fld, rng, lo, hi):
    return pr.Poly(fld, [rng.randrange(fld.order) for _ in range(rng.randint(lo, hi))])


def rand_element(k, rng):
    """(x + y xi)/den with random x, y and den; every other one has a random
    factor common to all three."""
    fld = k.base
    den = pr.zero(fld)
    while den.is_zero():
        den = rand_poly(fld, rng, 1, 3)
    x, y = rand_poly(fld, rng, 0, 4), rand_poly(fld, rng, 0, 4)
    if rng.random() < 0.5:
        g = pr.T(fld) + pr.one(fld).scale(rng.randrange(fld.order))
        x, y, den = x * g, y * g, den * g
    return QuadElement(k, x, y, den)


# -- validation -----------------------------------------------------------------


def test_validate_odd_examples():
    assert validate_field(F3, "odd", D=P(F3, "T")).infinite_type == "ramified"
    k = validate_field(F3, "odd", D=P(F3, "T-T^2"))
    assert k.infinite_type == "inert"
    with pytest.raises(BadInputError):
        validate_field(F3, "odd", D=P(F3, "T^2"))
    with pytest.raises(BadInputError):
        validate_field(F3, "odd", D=P(F3, "T^2+1"))  # sgn 1 square, deg even: not imaginary
    with pytest.raises(BadInputError):
        validate_field(F2, "odd", D=P(F2, "T"))


def test_validate_odd_constant_extension():
    k = validate_field(F3, "odd", D=P(F3, "2*T^2"))
    assert k.is_constant_extension and k.infinite_type == "inert"
    assert k.D_K == P(F3, "2")


def test_validate_even_sep():
    k = validate_field(F2, "even_sep", B=P(F2, "T+1"), C=P(F2, "T"))
    assert k.infinite_type == "inert"
    assert k.G == P(F2, "T") and k.radG == P(F2, "T")
    assert k.G * k.G == k.C * k.radG
    assert k.D_K == P(F2, "T^2")
    r = validate_field(F2, "even_sep", B=P(F2, "T"), C=P(F2, "1"))
    assert r.infinite_type == "ramified"
    with pytest.raises(BadInputError):
        validate_field(F2, "even_sep", B=P(F2, "T^2"), C=P(F2, "1"))  # deg B - deg C even
    with pytest.raises(BadInputError):
        validate_field(F2, "even_sep", B=P(F2, "T"), C=P(F2, "T"))  # gcd != 1
    with pytest.raises(BadInputError):
        validate_field(F2, "even_sep", B=P(F2, "T^2+1"), C=P(F2, "T^2"))  # even exponent in C


def test_validate_even_insep():
    k = validate_field(F2, "even_insep")
    assert k.infinite_type == "ramified"
    assert k.v_xi() == Fraction(-1, 2)


# -- orders -----------------------------------------------------------------------


def test_order_from_examples():
    k = validate_field(F2, "even_sep", B=P(F2, "T+1"), C=P(F2, "T"))
    o = order_from(k, pr.one(F2))
    assert o.D_O == k.D_K  # maximal order: D_O = G^2
    k3 = validate_field(F3, "odd", D=P(F3, "T"))
    o3 = order_from(k3, pr.one(F3))
    assert o3.D_O == P(F3, "T")
    ki = validate_field(F2, "even_insep")
    oi = order_from(ki, P(F2, "T"))
    assert oi.D_O is None and oi.disc_deg() == 3  # |f^2 T| proxy


def test_validate_field_gives_one_field_per_key():
    # the field holds K's data (xi series, contexts, L-data), so one K is one
    # object, held by the one descriptor of its base
    B, C = P(F2, "T^2+T+1"), P(F2, "T^2+T")
    assert validate_field(field(2), "even_sep", B=B, C=C) is validate_field(field(2, 1), "even_sep", C=C, B=B)
    k = validate_field(field(3), "odd", D=P(F3, "2*T^2+T"))
    assert order_from_discriminant(field(3), P(F3, "2*T^2+T")).field is k
    assert order_from_discriminant(field(3), P(F3, "2*T^4+T^3")).field is not k  # defined by another D


def test_order_from_discriminant():
    o = order_from_discriminant(F3, P(F3, "2*T^2"))
    assert o.f == P(F3, "T") and o.D_O == P(F3, "2*T^2")
    with pytest.raises(BadInputError):
        order_from_discriminant(F3, P(F3, "2"))  # constant: j = 0 order
    with pytest.raises(BadInputError):
        order_from(validate_field(F3, "odd", D=P(F3, "2*T^2")), pr.one(F3))


def test_order_nonmonic_conductor():
    k = validate_field(F3, "odd", D=P(F3, "T"))
    with pytest.raises(BadInputError):
        order_from(k, P(F3, "2*T"))


def test_even_disc_monic():
    k = validate_field(F2, "even_sep", B=P(F2, "T+1"), C=P(F2, "T"))
    for f in ["1", "T", "T+1", "T^2+T+1"]:
        o = order_from(k, P(F2, f))
        assert o.D_O.is_monic()
        assert o.D_O == P(F2, f) ** 2 * k.D_K


# -- exact elements -----------------------------------------------------------------


def test_nonmonic_denominator_is_normalised():
    k = validate_field(F3, "odd", D=P(F3, "T-T^2"))
    z = el(k, "T+1", "2", "2*T^2+1")
    assert (z.x, z.y, z.den) == (P(F3, "2*T+2"), P(F3, "1"), P(F3, "T^2+2"))  # all divided by 2
    assert z == el(k, "2*T+2", "1", "T^2+2")
    with pytest.raises(ZeroDivisionError):
        el(k, "1", "1", "0")


def test_v_infinity_reads_the_norm_numerator():
    # N((x + y xi)/den) = (t_den (x^2 + s x y) - t_num y^2) / (t_den den^2)
    k = validate_field(F2, "even_sep", B=P(F2, "T^2+T+1"), C=P(F2, "T^2+T"))
    assert el(k, "0", "1").v_infinity() == 0  # |t| = 1: |xi| = 1
    assert el(k, "T", "1").v_infinity() == -1  # |T| = q beats |xi|
    assert el(k, "T", "T", "T^3").v_infinity() == 2
    assert el(k, "0", "0", "T").v_infinity() is None
    ki = validate_field(F2, "even_insep")
    assert el(ki, "0", "1").v_infinity() == Fraction(-1, 2)  # |sqrt(T)| = q^(1/2)
    assert el(ki, "T+1", "1", "T^2+T").v_infinity() == Fraction(1)


def test_defining_relation():
    # the embedding of xi satisfies xi^2 = s xi + t in every flavor: as a
    # flat series when infinity is inert, as the coordinates (0, 1) otherwise
    for k in [
        validate_field(F3, "odd", D=P(F3, "T")),
        validate_field(F3, "odd", D=P(F3, "T-T^2")),
        validate_field(F2, "even_sep", B=P(F2, "T+1"), C=P(F2, "T")),
        validate_field(F2, "even_sep", B=P(F2, "T^2+T+1"), C=P(F2, "T^2+T")),
        validate_field(F2, "even_sep", B=P(F2, "T^3+T+1"), C=P(F2, "T^2+T")),
        validate_field(F2, "even_insep"),
    ]:
        xi = embed([el(k, "0", "1")], 30)
        if k.infinite_type == "inert":
            rel = xi * xi - k.t.to_series(xi.field, 40)
            if k.s:
                rel = rel - xi
            assert rel.prec >= 25 and rel.is_zero_known()
        else:
            assert xi.x.is_zero_known() and (xi.y - LaurentSeries.one(k.base)).is_zero_known()
            sq = xi * xi
            assert (sq.y - xi.y.scale(k.s)).is_zero_known() and (sq.x - xi.ctx.t).truncate(25).is_zero_known()


# -- embeddings -----------------------------------------------------------------------


def test_embed_odd_inert_flat():
    k = validate_field(F3, "odd", D=P(F3, "T-T^2"))
    z = el(k, "0", "1")  # z = xi = sqrt(T-T^2)
    flat = embed([z], 25)
    assert flat.valuation() == -1  # |z| = 3
    f9 = quadratic_extension(F3)
    e = flat.sgn_code()
    # e^2 = sgn(D) = -1 = 2 embedded in F_9
    from drinfeld_cm.ffield import embedding_table

    assert f9.mul(e, e) == embedding_table(F3, f9)[2]
    # xi^2 = D to precision
    D_s = LaurentSeries.from_poly(P(F3, "T-T^2"), f9)
    assert ((flat * flat) - D_s).is_zero_known()


def test_embed_insep():
    k = validate_field(F2, "even_insep")
    z = el(k, "0", "1")  # sqrt(T)
    e = embed([z], 20)
    assert e.valuation() == Fraction(-1, 2)
    assert z.v_infinity() == Fraction(-1, 2)  # |z| = q^(1/2)


def test_embed_matches_norm():
    rng = random.Random(29)
    fields_ = [
        validate_field(F3, "odd", D=P(F3, "T")),
        validate_field(F3, "odd", D=P(F3, "T-T^2")),
        validate_field(F2, "even_sep", B=P(F2, "T"), C=P(F2, "1")),
        validate_field(F2, "even_sep", B=P(F2, "T+1"), C=P(F2, "T")),
        validate_field(F2, "even_sep", B=P(F2, "T^2+T+1"), C=P(F2, "T^2+T")),  # deg C = 2, inert
        validate_field(F2, "even_sep", B=P(F2, "T^3+T+1"), C=P(F2, "T^2+T")),  # deg C = 2, ramified
        validate_field(F2, "even_insep"),
    ]
    for k in fields_:
        done = shared = 0
        while done < 25:
            z = rand_element(k, rng)
            v_exact = z.v_infinity()
            if v_exact is None:
                continue
            ze = embed([z], int(v_exact) + 15)
            assert ze.valuation() == v_exact  # |z|^2 = |N(z)|
            done += 1
            shared += pr.gcd_many([z.x, z.y, z.den]).deg > 0
        assert shared  # some rows' den shares a factor with x and y


def test_embed_even_sep_inert_relation():
    k = validate_field(F2, "even_sep", B=P(F2, "T+1"), C=P(F2, "T"))
    f4 = quadratic_extension(F2)
    xi = xi_series(k, f4, 30)
    rel = k.t.to_series(f4, 30)
    assert ((xi * xi + xi) - rel).is_zero_known()
    e = xi.coeff_code(0)
    # e^2 + e = sgn(B) = 1 and e not in F_2
    assert f4.add(f4.mul(e, e), e) == 1
    assert e not in (0, 1)


@pytest.mark.parametrize("flavor, data", [("odd", {"D": "T-T^2"}), ("even_sep", {"B": "T+1", "C": "T"})])
def test_xi_series_held_at_highest_precision(flavor, data):
    def fresh_field():
        empty_registry()  # a fresh base field, hence a fresh QuadField that holds no xi series
        base = field(3 if flavor == "odd" else 2)
        return validate_field(base, flavor, **{k: P(base, v) for k, v in data.items()})

    desc2 = quadratic_extension(fresh_field().base)
    fresh = {prec: xi_series(fresh_field(), desc2, prec) for prec in (10, 40)}
    for order in ((40, 10), (10, 40)):
        k = fresh_field()
        for prec in order:
            assert xi_series(k, desc2, prec) == fresh[prec]
        assert k._held[("xi", desc2)] == fresh[40]


@pytest.mark.parametrize("flavor, data", [("odd", {"D": "T-T^2"}), ("even_sep", {"B": "T+1", "C": "T"})])
def test_xi_series_rising_requests_take_log_many_roots(flavor, data, monkeypatch):
    # a request beyond the held precision takes the root at least at twice it
    base = F3 if flavor == "odd" else F2
    desc2 = quadratic_extension(base)
    want = xi_series(validate_field(base, flavor, **{key: P(base, v) for key, v in data.items()}), desc2, 80)
    empty_registry()
    base = field(base.p)  # a fresh base field, hence a fresh QuadField that holds no xi series
    k = validate_field(base, flavor, **{key: P(base, v) for key, v in data.items()})
    roots = []
    for name in ("sqrt", "artin_schreier_root"):
        real = getattr(LaurentSeries, name)
        monkeypatch.setattr(LaurentSeries, name, lambda self, real=real: roots.append(self.prec) or real(self))
    for prec in range(10, 81):
        assert xi_series(k, desc2, prec) == want.truncate(prec)
    assert roots == [12, 22, 42, 82]  # held at 10, 20, 40 and 80 (t carries 2 more digits)


def test_quad_series_arithmetic():
    k = validate_field(F2, "even_insep")
    ctx = QuadSeriesContext(k, F2, 30)
    xs = LaurentSeries.from_poly(P(F2, "T+1"), F2).truncate(30)
    ys = LaurentSeries.one(F2, 30)
    z = QuadSeries(ctx, xs, ys)  # (T+1) + sqrt(T)
    zi = z.inverse()
    prod = z * zi
    assert prod.y.is_zero_known()
    one_ = prod.x - LaurentSeries.one(F2, None)
    assert one_.is_zero_known()
    # Frobenius: z^2 = norm when q = 2 (inseparable collapse)
    fr = z.frobenius_q()
    assert fr.y.is_zero_known()
    assert (fr.x - z.norm().truncate(fr.x.prec)).is_zero_known()


def test_quad_series_frobenius_odd():
    k = validate_field(F3, "odd", D=P(F3, "T"))
    ctx = QuadSeriesContext(k, F3, 25)
    xs = LaurentSeries.from_poly(P(F3, "T^2+1"), F3).truncate(25)
    ys = LaurentSeries.one(F3, 25)
    z = QuadSeries(ctx, xs, ys)
    fr = z.frobenius_q()
    cube = z * z * z
    assert (fr.x - cube.x.truncate(fr.x.prec)).is_zero_known()
    assert (fr.y - cube.y.truncate(fr.y.prec)).is_zero_known()


F4 = field(2, 2)

RAMIFIED = {
    "odd F3": (lambda: validate_field(F3, "odd", D=P(F3, "T")), "T^2+1", "1"),
    "even_sep F4": (lambda: validate_field(F4, "even_sep", B=P(F4, "T"), C=P(F4, "1")), "2*T^2+3", "3*T+2"),
    "even_insep F4": (lambda: validate_field(F4, "even_insep"), "T+2", "3"),
}


@pytest.mark.parametrize("name", sorted(RAMIFIED))
def test_quad_series_frobenius_and_norm_every_flavor(name):
    # frobenius_q is x^q + alpha y^q + beta y^q xi and norm is x^2 + s x y -
    # t y^2: check them against z^q as q - 1 products and against z conj(z),
    # over the field's own F_q and over F_{q^2}
    make, x, y = RAMIFIED[name]
    k = make()
    for cdesc in (k.base, quadratic_extension(k.base)):
        ctx = QuadSeriesContext(k, cdesc, 40)
        coords = [LaurentSeries.from_poly(P(k.base, c), cdesc).truncate(40) for c in (x, y)]
        w = QuadSeries(ctx, *coords)
        power = w
        for _ in range(k.q - 1):
            power = power * w
        fr = w.frobenius_q()
        assert fr.prec >= 20 and power.prec >= 20
        assert (fr.x - power.x).is_zero_known() and (fr.y - power.y).is_zero_known()
        zc = w * w.conj()
        n = w.norm()
        assert n.prec >= 20 and zc.y.is_zero_known() and (zc.x - n).is_zero_known()


def conjugate(x: LaurentSeries) -> LaurentSeries:
    """Coefficientwise x -> x^q, the exponents kept: over F_{q^2} the
    conjugate of x under Gal(F_{q^2}/F_q)."""
    frob = laurent._tensors(x.field)["frob"]
    return LaurentSeries(x.field, x.n0, (frob @ x.comps) % x.field.p, x.prec)


def imag_part_log(z) -> Fraction | None:
    """log_q |z|_i: the distance from a flat z to k_infinity; None when z is in k_infinity.

    A flat z over F_{q^2} has the distance of its xi-part, and that of
    z - zbar (zbar the coefficientwise conjugate) since u - ubar is a unit
    for any u outside F_q."""
    if isinstance(z, LaurentSeries):
        v = (z - conjugate(z)).valuation()
        return -Fraction(v) if v is not None else None
    vy = z.y.valuation()
    if vy is None:
        return None
    return -(Fraction(vy) + z.ctx.v_xi)


def lattice_dist_log(z, deg_bound: int, base) -> Fraction:
    """log_q |z|_A = log of the min over a in A = base[T] (deg a <= deg_bound) of |z - a|."""
    best = None
    for d in range(-1, deg_bound + 1):
        cands = [pr.zero(base)] if d < 0 else [
            p_.scale(s) for p_ in pr.monic_of_degree(base, d) for s in range(1, base.order)
        ]
        for a in cands:
            if isinstance(z, LaurentSeries):
                diff = z - LaurentSeries.from_poly(a, z.field)
            else:
                diff = QuadSeries(z.ctx, z.x - LaurentSeries.from_poly(a, z.ctx.cdesc), z.y)
            v = diff.valuation()
            if v is None:
                raise PrecisionError("z - a indistinguishable from 0")
            log = -Fraction(v)
            if best is None or log < best:
                best = log
    return best


def test_imag_and_lattice_size():
    # z = sqrt(T-T^2): |z| = |z|_i = |z|_A = 3
    k = validate_field(F3, "odd", D=P(F3, "T-T^2"))
    z = el(k, "0", "1")
    flat = embed([z], 25)
    assert imag_part_log(flat) == 1
    assert lattice_dist_log(flat, 2, F3) == 1
    # ramified: z = sqrt(T)
    k2 = validate_field(F3, "odd", D=P(F3, "T"))
    z2 = el(k2, "0", "1")
    e2 = embed([z2], 25)
    assert imag_part_log(e2) == Fraction(1, 2)
    assert lattice_dist_log(e2, 2, F3) == Fraction(1, 2)


@pytest.mark.parametrize("base", [F3, field(3, 2, 1, (2, 1, 1)), field(2, 2)])
def test_round_to_a_reads_coefficients_in_the_base_presentation(base):
    # a flat value over F_{q^2} rounds to the Poly over the order's F_q whose
    # embedded coefficients it has; a coefficient outside F_q is an error
    ext = quadratic_extension(base)
    emb = embedding_table(base, ext)
    rng = random.Random(base.order)
    for _ in range(20):
        poly = pr.Poly(base, [rng.randrange(base.order) for _ in range(4)])
        s = LaurentSeries.from_poly(poly, ext).truncate(8)
        assert round_to_A(s, base) == (poly, 8)
        outside = next(c for c in rng.sample(range(ext.order), ext.order) if c not in emb)
        with pytest.raises(InvariantError, match="Galois-stable"):
            round_to_A(s + LaurentSeries.constant(ext, outside), base)


@pytest.mark.parametrize("name", ["even_sep F4", "even_insep F4"])
def test_char2_squares_are_frobenius_images_at_the_product_precision(name):
    # norm and the even_sep alpha square by frobenius_p, cut to prec + v:
    # the same series, to the same precision, as the products they replace
    k = RAMIFIED[name][0]()
    rng = random.Random(17)
    for cdesc in (k.base, quadratic_extension(k.base)):
        ctx = QuadSeriesContext(k, cdesc, 30)
        sigma, term = LaurentSeries.zero(cdesc, ctx.t.prec), ctx.t
        for _ in range(k.base.r * k.base.m):
            sigma, term = sigma + term, (term * term).truncate(ctx.t.prec)
        if k.flavor == "even_sep":
            assert ctx.alpha == sigma
        for _ in range(20):
            x, y = (rand_series(cdesc, rng, rng.randint(-3, 3), rng.randint(0, 25)) for _ in "xy")
            for a in (x, y, x.truncate(x.n0 + 1), LaurentSeries.from_poly(P(k.base, "T^3+T"), cdesc)):
                assert _square(a) == a * a
            want = x * x + (x * y if k.s else LaurentSeries.zero(cdesc)) - (y * y) * ctx.t
            got = QuadSeries(ctx, x, y).norm()
            assert got == want and got.prec == want.prec


def rand_series(fld, rng, n0, length):
    """A one-row series of valuation n0 known to n0 + length + 1 (digits random)."""
    codes = [rng.randrange(1, fld.order)] + [rng.randrange(fld.order) for _ in range(length)]
    return LaurentSeries.from_codes(fld, n0, codes, n0 + length + 1)


def sep4(B, C):
    return validate_field(F4, "even_sep", B=P(F4, B), C=P(F4, C))


EMBED_ORDERS = {
    "odd inert": lambda: order_from_discriminant(F3, P(F3, "T-T^2")),
    "odd ramified": lambda: order_from_discriminant(F3, P(F3, "T^3+T")),
    "even_sep inert": lambda: order_from(sep4("2*T+2", "T"), pr.one(F4)),
    "even_sep inert, deg C = 2": lambda: order_from(
        validate_field(F2, "even_sep", B=P(F2, "T^2+T+1"), C=P(F2, "T^2+T")), P(F2, "T+1")
    ),
    "even_sep ramified": lambda: order_from(sep4("T", "1"), P(F4, "T+2")),
    "even_insep": lambda: order_from(validate_field(F4, "even_insep"), P(F4, "T^2")),
}


def _embed_reference(z, prec):
    """z embedded through its coordinates x/den and y/den, each reduced to
    lowest terms first."""
    qf = z.field
    wide = prec + 30
    x, y = RatFunc(z.x, z.den), RatFunc(z.y, z.den)
    if qf.infinite_type == "inert":
        desc2 = quadratic_extension(qf.base)
        xi = xi_series(qf, desc2, wide)
        return (x.to_series(desc2, wide) + y.to_series(desc2, wide) * xi).truncate(prec)
    ctx = QuadSeriesContext(qf, qf.base, wide)
    return QuadSeries(ctx, x.to_series(qf.base, wide), y.to_series(qf.base, wide)).truncate(prec)


def _same_value(got, want) -> bool:
    if isinstance(want, LaurentSeries):
        return got == want
    return (got.x, got.y) == (want.x, want.y)


def _embed_rows(order) -> list:
    """The order's points, then xi (den = 1, x = 0), 1/T + xi/(T+1) and
    (T^2 + T + (T+1) xi)/(T+1)^2 (den shares the factor T+1 with x and y)."""
    from drinfeld_cm.cmpoints import enumerate_points

    k = order.field
    g = P(k.base, "T+1")
    extra = [el(k, "0", "1"), el(k, "T+1", "T", "T^2+T"), QuadElement(k, pr.T(k.base) * g, g, g * g)]
    return [pt.z for pt in enumerate_points(order)] + extra


@pytest.mark.parametrize("name", sorted(EMBED_ORDERS))
def test_embed_equals_coordinates_over_their_own_denominators(name):
    # embed expands 1/den once for each row's own (unreduced) den, for all
    # rows of a stack at once; the reference expands x/den and y/den of each
    # element in lowest terms
    zs = _embed_rows(EMBED_ORDERS[name]())
    assert any(z.den.is_one() for z in zs)
    assert any(z.x.is_zero() for z in zs)
    assert any(RatFunc(z.x, z.den).den != RatFunc(z.y, z.den).den for z in zs)
    assert any(pr.gcd_many([z.x, z.y, z.den]).deg > 0 for z in zs)
    for prec in (3, 12, 40):
        stack = embed(zs, prec)
        for r, z in enumerate(zs):
            want = _embed_reference(z, prec)
            assert want.prec == prec
            assert _same_value(embed([z], prec), want)
            assert _same_value(stack.take([r]), want)


@pytest.mark.parametrize("name", sorted(EMBED_ORDERS))
def test_a_stack_inverts_its_denominators_once(name, monkeypatch):
    zs = _embed_rows(EMBED_ORDERS[name]())
    k = zs[0].field
    polys = [el(k, "T", "1"), el(k, "0", "1")]  # T + xi, xi
    embed(zs, 20)  # the field's xi and t at this precision are now held
    calls = []
    real = LaurentSeries.inverse

    def counting(self):
        calls.append(self.rows)
        return real(self)

    monkeypatch.setattr(LaurentSeries, "inverse", counting)
    embed(zs, 20)
    assert calls == [len(zs)]  # one Newton call for every row of the stack
    calls.clear()
    embed(polys, 20)
    assert calls == []  # every A = 1: nothing to invert


@pytest.mark.parametrize("fld, B, C", [(F4, "T^2", "T+1"), (F2, "T^2+T+1", "T^2+T")])
def test_a_denominator_that_divides_its_numerators_is_not_inverted(fld, B, C, monkeypatch):
    # with C != 1 the point a = G, b = 0 is held as (0 + G xi)/G: such a row
    # is embedded from the exact quotients, and only the other rows' dens
    # are inverted
    from drinfeld_cm.cmpoints import enumerate_points

    k = validate_field(fld, "even_sep", B=P(fld, B), C=P(fld, C))
    zs = [pt.z for pt in enumerate_points(order_from(k, pr.one(fld)))]
    divided = [z for z in zs if z.den.deg > 0 and (z.x % z.den).is_zero() and (z.y % z.den).is_zero()]
    assert divided
    want = [_embed_reference(z, 20) for z in divided]
    embed(zs, 20)  # the field's xi and t at this precision are now held
    calls = []
    real = LaurentSeries.inverse

    def counting(self):
        calls.append(self.rows)
        return real(self)

    monkeypatch.setattr(LaurentSeries, "inverse", counting)
    stack = embed(divided, 20)
    assert calls == []
    assert all(_same_value(stack.take([r]), w) for r, w in enumerate(want))
    embed(zs, 20)
    assert calls == [len(zs)]  # the remaining dens, inverted once for the stack


def test_the_field_holds_its_series_contexts(monkeypatch):
    # t = B/C is expanded once per coefficient field and precision: repeated
    # embeddings reuse the relation the field holds
    from drinfeld_cm.cmpoints import enumerate_points

    k = sep4("T^2+1", "T")
    zs = [pt.z for pt in enumerate_points(order_from(k, pr.one(F4)))]
    assert len(zs) == 8
    calls = []
    real = LaurentSeries.inverse

    def counting(self):
        calls.append(self.rows)
        return real(self)

    monkeypatch.setattr(LaurentSeries, "inverse", counting)
    first = embed(zs, 20)
    assert embed(zs, 20).ctx is first.ctx
    embed(zs, 20)
    assert calls == [8, 1, 8, 8]  # the dens of each embedding, and one t over F_4


def test_ratfunc_rejects_a_non_monic_denominator():
    assert RatFunc(P(F3, "T"), P(F3, "T^2+1")).den == P(F3, "T^2+1")
    for num in ("T", "0"):
        with pytest.raises(InvariantError):
            RatFunc(P(F3, num), P(F3, "2*T+1"))
