import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import count_products
from drinfeld_cm.errors import BadInputError, InvariantError, PrecisionError
from drinfeld_cm.ffield import embedding_table, field, quadratic_extension, sqrt as ff_sqrt
from drinfeld_cm import laurent
from drinfeld_cm.laurent import LaurentSeries, _packing, _raw_mul, pi_power_qm1
from drinfeld_cm.modforms import EvalContext
from drinfeld_cm import polyring as pr

F2 = field(2)
F3 = field(3)
F9 = field(3, 1, 2)
F4 = field(2, 2)


def series_of(fld, text, prec=None):
    return LaurentSeries.from_poly(pr.parse_poly(fld, text), fld).truncate(prec) if prec else LaurentSeries.from_poly(
        pr.parse_poly(fld, text), fld
    )


def rand_series(fld, rng, prec=25):
    n0 = rng.randint(-6, 6)
    codes = [rng.randrange(fld.order) for _ in range(prec - n0)]
    if not any(codes):
        codes[0] = 1
    return LaurentSeries.from_codes(fld, n0, codes, prec)


def test_geometric_inverse():
    x = series_of(F3, "1") - LaurentSeries.t_power(F3, -1)  # 1 - 1/T
    inv = x.truncate(10).inverse()
    for e in range(0, 10):
        assert inv.coeff_code(e) == 1  # 1 + 1/T + 1/T^2 + ...


def test_valuation_multiplicative():
    rng = random.Random(3)
    for _ in range(100):
        x, y = rand_series(F9, rng), rand_series(F9, rng)
        assert (x * y).valuation() == x.valuation() + y.valuation()
        assert (x * y).sgn_code() == F9.mul(x.sgn_code(), y.sgn_code())


def test_inverse_identity_q2():
    x = series_of(F2, "T^2+T+1").truncate(20)
    prod = x * x.inverse()
    assert prod.valuation() == 0
    assert prod.coeff_code(0) == 1
    _, tail = prod.polynomial_part()
    assert tail is None


def test_inverse_of_zero_rejected():
    with pytest.raises(PrecisionError):
        LaurentSeries.zero(F3, 10).inverse()


def test_sqrt_example():
    x = (series_of(F3, "1") - LaurentSeries.t_power(F3, -1)).truncate(15)
    y = x.sqrt()
    assert [y.coeff_code(e) for e in range(4)] == [1, 1, 1, 2]
    sq = y * y
    diff = sq - x
    assert diff.is_zero_known()


def test_sqrt_t2():
    x = series_of(F3, "T^2").truncate(12)
    y = x.sqrt()
    assert y.valuation() == -1 and y.coeff_code(-1) == 1
    assert (y * y - x).is_zero_known()


def test_sqrt_random_f9():
    rng = random.Random(5)
    count = 0
    while count < 100:
        x = rand_series(F9, rng)
        if x.valuation() % 2:
            continue
        from drinfeld_cm.ffield import is_square

        if not is_square(F9, x.sgn_code()):
            continue
        y = x.sqrt()
        assert (y * y - x).is_zero_known()
        count += 1


def test_sqrt_guards():
    with pytest.raises(BadInputError):
        LaurentSeries.t_power(F3, 1, 10).sqrt()  # odd valuation
    from drinfeld_cm.ffield import field as _f

    x = LaurentSeries.constant(F3, 2, 10)
    with pytest.raises(BadInputError):
        x.sqrt()  # 2 is not a square in F_3


def test_artin_schreier_series():
    s = LaurentSeries.zero(F2, 12)
    y = s.artin_schreier_root()
    assert y.is_zero_known()  # canonical root of y^2+y=0 is 0
    rng = random.Random(7)
    for _ in range(30):
        codes = [0] + [rng.randrange(4) for _ in range(11)]
        s = LaurentSeries.from_codes(F4, 0, codes, 12)
        y = s.artin_schreier_root()
        assert ((y * y + y) - s).is_zero_known()
        y2 = y + LaurentSeries.one(F4, 12)
        assert ((y2 * y2 + y2) - s).is_zero_known()  # the other root works too


def test_artin_schreier_needs_f4():
    s = LaurentSeries.constant(F2, 1, 10)  # constant term 1 has trace 1 in F_2
    with pytest.raises(BadInputError):
        s.artin_schreier_root()
    s4 = LaurentSeries.constant(F4, 1, 10)
    y = s4.artin_schreier_root()
    assert ((y * y + y) - s4).is_zero_known()


@pytest.mark.parametrize("fld", [F2, F3, F4])
def test_pi_qm1_valuation(fld):
    pi = pi_power_qm1(fld, 15)
    assert pi.valuation() == -fld.q


def test_pi_q2_digits():
    # q = 2: pi itself; known expansion T^2 + T + 1 + 0/T + ...
    pi = pi_power_qm1(F2, 10)
    assert [pi.coeff_code(e) for e in range(-2, 2)] == [1, 1, 1, 0]


@pytest.mark.parametrize("fld", [F2, F3])
def test_pi_product_identity(fld):
    # pi^(q-1) * prod(1 - T^(1-q^k))^(q-1) = -T^q to precision
    q = fld.q
    prec = 40
    pi = pi_power_qm1(fld, prec)
    prod = LaurentSeries.one(fld, prec + q + 1)
    k = 1
    while q**k - 1 <= prec + q + 1:
        tk = LaurentSeries.from_codes(fld, 0, [1] + [0] * (q**k - 2) + [fld.neg(1)], prec + q + 1)
        prod = prod * tk ** (q - 1)
        k += 1
    lhs = pi * prod
    target = LaurentSeries.t_power(fld, q).scale(fld.neg(1))
    assert (lhs - target).is_zero_known()


def carlitz_d(fld, i: int) -> pr.Poly:
    """D_i = prod_{k=0}^{i-1} (T^(q^i) - T^(q^k)); D_0 = 1: the oracle of the Carlitz coefficients."""
    out = pr.one(fld)
    q = fld.q
    for k in range(i):
        coeffs = [0] * (q**i + 1)
        coeffs[q**k] = fld.neg(1)
        coeffs[q**i] = fld.add(coeffs[q**i], 1)
        out = out * pr.Poly(fld, coeffs)
    return out


def test_carlitz_d():
    assert carlitz_d(F2, 0).is_one()
    assert carlitz_d(F2, 1) == pr.parse_poly(F2, "T^2+T")
    assert carlitz_d(F3, 1) == pr.parse_poly(F3, "T^3-T")


@pytest.mark.parametrize("fld", [F2, F3])
def test_carlitz_coefficient_series(fld):
    q = fld.q
    rel = 40
    ctx = EvalContext(fld, fld, rel)
    # cross-check against exact polynomials: c_i * D_i = pi^(q^i - 1)
    pi = pi_power_qm1(fld, 80)
    pw = LaurentSeries.one(fld, 80)
    for i in range(1, 4):
        c = ctx.coeff(i)
        assert c.valuation() == i * q**i - q * (q**i - 1) // (q - 1)
        assert c.prec - c.valuation() == rel
        pw = (pw.frobenius_q() * pi).truncate(80)
        lhs = c * LaurentSeries.from_poly(carlitz_d(fld, i), fld)
        assert pw.prec >= lhs.prec > lhs.valuation()
        assert (lhs - pw.truncate(lhs.prec)).is_zero_known()


def basis_tensor_mul(fld, A, B, ncols=None):
    """The s^2 convolutions of every pair of coordinates, combined through the
    products of basis elements: the product formula the packed kernel replaces."""
    s = fld.s
    out = np.zeros((s, A.shape[1] + B.shape[1] - 1), dtype=np.int64)
    for i in range(s):
        for j in range(s):
            conv = np.convolve(A[i], B[j])
            for k, c in enumerate(fld.coords(fld._mul_raw(fld.p**i, fld.p**j))):  # g^i g^j on the power basis
                out[k] += c * conv
    return (out % fld.p)[:, :ncols]


F16 = field(2, 2, 2)
F25 = field(5, 1, 2)
F27 = field(3, 3)


def test_packing_bound():
    # F_16 (p = 2, s = 4): 7 digits of b bits, b = bit length of 4 * L
    assert _packing(2, 4, 63) == (4, 4, 8)
    assert _packing(2, 4, 64) == (4, 1, 7)
    # F_9 and F_25 pack both operands whole up to far beyond series lengths in use
    assert _packing(3, 2, 10_000)[:2] == (2, 2)
    assert _packing(5, 2, 10_000)[:2] == (2, 2)
    assert _packing(5, 2, 40_000)[:2] == (2, 1)


@pytest.mark.parametrize("word_bits", [62, 16, 5])
@pytest.mark.parametrize("fld", [F4, F9, F16, F25, F27], ids=lambda f: f"F{f.order}")
def test_raw_mul_matches_basis_tensor(fld, word_bits, monkeypatch):
    # 62 is the real word; fewer bits push every field past the packing bound.
    # Operands are stacks: every row of the product must be the product of
    # its rows, and a one-row operand is shared by every row of the other.
    monkeypatch.setattr(laurent, "_WORD_BITS", word_bits)
    rng = np.random.default_rng(fld.order + word_bits)
    for la, lb in [(1, 1), (1, 7), (5, 3), (30, 30), (63, 63), (64, 64), (64, 100), (130, 70)]:
        for ra, rb in [(1, 1), (3, 3), (1, 4), (4, 1)]:
            A = rng.integers(0, fld.p, (ra, fld.s, la))
            B = rng.integers(0, fld.p, (rb, fld.s, lb))
            A[:, :, -1] = fld.p - 1  # the largest coordinate, so digit sums reach their bound
            for ncols in (None, 1, min(la, lb), la + lb - 1, la + lb + 3):
                got = _raw_mul(fld, A, B, ncols)
                assert got.shape[0] == max(ra, rb)
                for r in range(got.shape[0]):
                    want = basis_tensor_mul(fld, A[min(r, ra - 1)], B[min(r, rb - 1)], ncols)
                    assert np.array_equal(got[r], want)
    ones = np.full((2, fld.s, 80), fld.p - 1)
    want = basis_tensor_mul(fld, ones[0], ones[0])
    assert all(np.array_equal(row, want) for row in _raw_mul(fld, ones, ones))


@pytest.mark.parametrize("fld", [F3, F4, F9, F16])
def test_reduced_constructor_equals_checked(fld):
    rng = np.random.default_rng(fld.order)
    for _ in range(40):
        n0 = int(rng.integers(-5, 5))
        L = int(rng.integers(0, 12))
        rows = int(rng.integers(1, 4))
        comps = rng.integers(0, fld.p, (rows, fld.s, L))
        if L:
            comps[:, :, L - int(rng.integers(0, L)) :] = 0  # trailing known zeros
            comps[:, :, : int(rng.integers(0, L))] = 0  # leading zeros in every row
        for prec in (None, n0 + L, n0 + L + 3):
            trusted = LaurentSeries(fld, n0, comps, prec, reduced=True)
            assert trusted == LaurentSeries(fld, n0, comps, prec)
            assert trusted.comps.shape[2] == 0 or (trusted.comps[:, :, 0].any() and trusted.comps[:, :, -1].any())


def test_frobenius():
    rng = random.Random(11)
    for fld in (F4, F9):
        for _ in range(20):
            x = rand_series(fld, rng, prec=12)
            y = x.frobenius_q()
            assert y.valuation() == fld.q * x.valuation()
            xq = x
            for _ in range(fld.q.bit_length() - 1):
                pass
            # compare against repeated multiplication
            z = LaurentSeries.one(fld, None)
            for _ in range(fld.q):
                z = z * x
            assert (y - z.truncate(y.prec)).is_zero_known()


def test_precision_soundness_metamorphic():
    rng = random.Random(13)
    for _ in range(30):
        n0 = rng.randint(-4, 4)
        codes = [rng.randrange(3) for _ in range(40 - n0)]
        if not any(codes):
            codes[0] = 1
        hi = LaurentSeries.from_codes(F3, n0, codes, 40)
        lo = hi.truncate(18)
        other = rand_series(F3, rng, prec=30)
        a = (hi * other).truncate(12)
        b = (lo * other).truncate(12)
        assert (a - b).is_zero_known()
        inv_hi = hi.inverse().truncate(8)
        inv_lo = lo.inverse().truncate(8)
        assert (inv_hi - inv_lo).is_zero_known()


def test_mul_precision_rule():
    x = LaurentSeries.from_codes(F3, -2, [1, 1], 10)  # v=-2, prec 10
    y = LaurentSeries.from_codes(F3, 3, [2], 7)  # v=3, prec 7
    z = x * y
    assert z.prec == min(10 + 3, 7 - 2)
    assert z.valuation() == 1


def test_debug_format():
    x = LaurentSeries.from_codes(F3, -1, [1, 2], 9)
    assert repr(x) == "v=-1 prec=9 coeffs=[1,2]"


@pytest.mark.parametrize("e", [0, 1, 2, 3, 6, 9])
def test_series_power_makes_only_the_needed_products(e, monkeypatch):
    x = LaurentSeries.from_codes(F9, -1, [1, 2, 0, 5, 7], 6)
    want = LaurentSeries.one(F9)
    for _ in range(e):
        want = want * x
    calls = []
    real = LaurentSeries.__mul__
    monkeypatch.setattr(LaurentSeries, "__mul__", lambda a, b: calls.append(1) or real(a, b))
    got = x**e
    assert got == want and got.prec == want.prec
    assert len(calls) == (e.bit_length() - 1 + bin(e).count("1") - 1 if e else 0)


# -- Frobenius descent ---------------------------------------------------------


def newton_inverse(x: LaurentSeries) -> LaurentSeries:
    """1/x by Newton's iteration y <- y + y (1 - u y), the precision doubling
    each step: the method `LaurentSeries.inverse` replaced, kept as its oracle."""
    fld, v = x.field, x.n0
    ell = x.prec - v
    U = x.comps
    lead = (U[:, :, 0] @ laurent._tensors(fld)["codes"]).tolist()
    y = np.array([fld.coords(fld.inv(c)) for c in lead], dtype=np.int64)[:, :, None]
    one = np.array(fld.coords(1), dtype=np.int64)
    known = 1
    while known < ell:
        known = min(2 * known, ell)
        r = (-_raw_mul(fld, U[:, :, :known], y, known)) % fld.p
        r[:, :, 0] = (r[:, :, 0] + one) % fld.p
        corr = _raw_mul(fld, y, r, known)
        ynew = np.zeros(corr.shape, dtype=np.int64)
        ynew[:, :, : y.shape[2]] = y
        y = (ynew + corr) % fld.p
    return LaurentSeries(fld, -v, y, x.prec - 2 * v)


def newton_sqrt(x: LaurentSeries) -> LaurentSeries:
    """The canonical square root of a one-row x by Newton's iteration for
    r = u^(-1/2), r <- r + r (1 - u r^2)/2, then u r: the oracle of `sqrt`."""
    fld, v = x.field, x.n0
    ell = x.prec - v
    U = x.comps
    root0 = ff_sqrt(fld, x.sgn_code())
    inv2 = laurent._scalar_matrix(fld, fld.inv(2 % fld.p))
    one = np.array(fld.coords(1), dtype=np.int64)
    r = np.array(fld.coords(fld.inv(root0)), dtype=np.int64).reshape(1, fld.s, 1)
    known = 1
    while known < ell:
        known = min(2 * known, ell)
        r2 = _raw_mul(fld, r, r, known)
        e = (-_raw_mul(fld, U[:, :, :known], r2, known)) % fld.p
        e[:, :, 0] = (e[:, :, 0] + one) % fld.p
        corr = _raw_mul(fld, r, (inv2 @ e) % fld.p, known)
        rnew = np.zeros(corr.shape, dtype=np.int64)
        rnew[:, :, : r.shape[2]] = r
        r = (rnew + corr) % fld.p
    unit = LaurentSeries(fld, 0, U, ell) * LaurentSeries(fld, 0, r, ell)
    return LaurentSeries(fld, v // 2, unit.comps, x.prec - v // 2)


# q != p on field(2, 2), field(3, 2), F16 and field(5, 2): the p-power and q-power maps differ
DESCENT_FIELDS = [F2, F3, F4, field(5), field(7), field(3, 2), F9, F16, field(5, 2), F25]


def unit_stack(fld, rows, ell, seed, n0=0, square_lead=False):
    """A stack of `rows` random rows of valuation n0, known to n0 + ell, each
    with a nonzero (for square_lead, a square) leading digit."""
    rng = np.random.default_rng(seed)
    comps = rng.integers(0, fld.p, (rows, fld.s, ell))
    for r in range(rows):
        c = int(rng.integers(1, fld.order))
        comps[r, :, 0] = fld.coords(fld.mul(c, c) if square_lead else c)
    return LaurentSeries(fld, n0, comps, n0 + ell)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(DESCENT_FIELDS), st.integers(1, 6), st.integers(1, 80), st.integers(-5, 5), st.integers(0, 2**32))
def test_descent_inverse_equals_newton(fld, rows, ell, n0, seed):
    x = unit_stack(fld, rows, ell, seed, n0)
    inv = x.inverse()
    want = newton_inverse(x)
    assert (inv.n0, inv.prec) == (want.n0, want.prec) == (-n0, n0 + ell - 2 * n0)
    assert np.array_equal(inv.comps, want.comps)
    prod = x * inv
    assert prod.prec == ell and (prod - LaurentSeries.one(fld)).is_zero_known()


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([f for f in DESCENT_FIELDS if f.p > 2]), st.integers(1, 80), st.integers(-3, 3), st.integers(0, 2**32))
def test_descent_sqrt_equals_newton(fld, ell, half_v, seed):
    x = unit_stack(fld, 1, ell, seed, 2 * half_v, square_lead=True)
    y = x.sqrt()
    want = newton_sqrt(x)
    assert (y.n0, y.prec) == (want.n0, want.prec) == (half_v, x.prec - half_v)
    assert np.array_equal(y.comps, want.comps)
    assert y * y == x
    assert y.sgn_code() == ff_sqrt(fld, x.sgn_code())  # the canonical branch


@pytest.mark.parametrize(
    "fld, ell, products",
    [
        (F2, 1, 0),
        (F2, 2, 1),
        (F2, 80, 7),  # lengths 80 40 20 10 5 3 2 1; u^1 costs nothing
        (F4, 33, 6),  # 33 17 9 5 3 2 1
        (F3, 1, 0),
        (F3, 3, 2),  # 3 1, and u^2
        (F3, 80, 5),  # 80 27 9 3 1, and u^2
        (field(5), 80, 5),  # 80 16 4 1, and u^2, u^4
        (field(7), 80, 6),  # 80 12 2 1, and u^2, u^3, u^6
        (F25, 26, 5),  # 26 6 2 1, and u^2, u^4
    ],
)
def test_descent_inverse_product_count(fld, ell, products, monkeypatch):
    x = unit_stack(fld, 3, ell, ell)
    want = newton_inverse(x)
    calls = count_products(monkeypatch)
    assert x.inverse() == want
    assert len(calls) == products


@pytest.mark.parametrize(
    "fld, ell, products",
    [(F3, 80, 5), (field(5), 80, 5), (field(7), 80, 6), (F9, 9, 3)],  # levels, u^((p-1)/2), and u r
)
def test_descent_sqrt_product_count(fld, ell, products, monkeypatch):
    x = unit_stack(fld, 1, ell, ell, square_lead=True)
    calls = count_products(monkeypatch)
    x.sqrt()
    assert len(calls) == products


@pytest.mark.parametrize("fld", [F2, F3, F4, F9, F16, field(3, 2), field(5, 2)], ids=lambda f: f"p{f.p}q{f.q}s{f.s}")
def test_frobenius_p_is_the_p_th_power(fld):
    rng = random.Random(fld.order + fld.q)
    for _ in range(10):
        x = rand_series(fld, rng, prec=14)
        want = LaurentSeries.one(fld)
        for _ in range(fld.p):
            want = want * x
        y = x.frobenius_p()
        assert y.prec == fld.p * x.prec and y.n0 == fld.p * x.n0
        assert y.truncate(want.prec) == want


@pytest.mark.parametrize("base", [F3, F4, field(3, 2), field(3, 2, 1, (2, 1, 1))], ids=lambda f: f"q{f.q}s{f.s}")
def test_conj_is_the_galois_conjugation_and_fixes_exactly_the_base(base):
    # over F_{q^2}: conj is a ring map of order 2 that fixes the series over
    # F_q; to_subfield maps those back digit by digit and refuses any other
    ext = quadratic_extension(base)
    emb = embedding_table(base, ext)
    rng = random.Random(base.order)
    for _ in range(10):
        x, y = rand_series(ext, rng, prec=12), rand_series(ext, rng, prec=12)
        assert x.conj().conj() == x
        assert (x * y).conj() == x.conj() * y.conj() and (x + y).conj() == x.conj() + y.conj()
        fixed = x + x.conj()
        down = fixed.to_subfield(base)
        assert down.field == base and down.prec == fixed.prec and down.n0 == fixed.n0
        assert [emb[down.coeff_code(e)] for e in range(down.n0, 12)] == [fixed.coeff_code(e) for e in range(down.n0, 12)]
        assert down.conj() == down and down.to_subfield(base) is down
        outside = next(c for c in rng.sample(range(ext.order), ext.order) if c not in emb)
        with pytest.raises(InvariantError, match="Galois-stable"):
            (fixed + LaurentSeries.constant(ext, outside).mul_t_power(-3)).to_subfield(base)
