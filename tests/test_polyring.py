import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from drinfeld_cm.errors import BadInputError, InvariantError
from drinfeld_cm.ffield import field
from drinfeld_cm import polyring as pr
from drinfeld_cm.quadfield import validate_field

F2 = field(2)
F3 = field(3)
F4 = field(2, 2)
F5 = field(5)
F8 = field(2, 3)


def P(fld, text):
    return pr.parse_poly(fld, text)


def arith_stats(a):
    """omega(a), d(a) and sigma_1(a) = sum of |d| over the monic divisors d of
    a nonzero polynomial, from its factorization: the oracle of `pr.sieve_stats`."""
    if a.is_zero():
        raise BadInputError("arith_stats(0)")
    _, items = pr.factor(a)
    q = a.field.q
    dcount = sigma1 = 1
    for p_, e in items:
        dcount *= e + 1
        sigma1 *= sum(q ** (p_.deg * j) for j in range(e + 1))
    return {"omega": len(items), "d": dcount, "sigma1": sigma1}


def divisors(a):
    """All monic divisors of a nonzero polynomial: the oracle of `arith_stats`."""
    _, items = pr.factor(a)
    out = [pr.one(a.field)]
    for p_, e in items:
        out = [d * p_**k for k in range(e + 1) for d in out]
    return out


def mertens_product(f):
    """Exact prod_{P | f} (1 - 1/|P|)^{-1} for non-constant monic f: the oracle of `pr.sieve_stats`."""
    if f.deg < 1:
        raise BadInputError("mertens_product needs deg f >= 1")
    out = Fraction(1)
    for p_, _ in pr.factor(f)[1]:
        out *= Fraction(f.field.q**p_.deg, f.field.q**p_.deg - 1)
    return out


def random_poly(fld, maxdeg, rng):
    return pr.Poly(fld, [rng.randrange(fld.order) for _ in range(rng.randint(0, maxdeg + 1))])


def test_gcd_example():
    assert pr.gcd(P(F3, "T^2-T"), P(F3, "T")) == P(F3, "T")


def test_divmod_example():
    q, r = divmod(P(F2, "T^2+T"), P(F2, "T+1"))
    assert q == P(F2, "T") and r.is_zero()


def test_mul_example():
    a = P(F3, "T-T^2")
    assert a * a == P(F3, "T^4+T^3+T^2")


def test_divmod_postcondition():
    rng = random.Random(0)
    for _ in range(200):
        a = random_poly(F3, 6, rng)
        b = random_poly(F3, 4, rng)
        if b.is_zero():
            continue
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.is_zero() or r.deg < b.deg


DIVMOD_FIELDS = [F3, field(2, 2), field(3, 1, 2), field(3, 3, 2)]  # F_3, F_4, F_9, F_729


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(DIVMOD_FIELDS),
    st.lists(st.integers(0, 728), max_size=8),
    st.lists(st.integers(0, 728), min_size=1, max_size=5),
)
def test_divmod_postcondition_hypothesis(fld, ca, cb):
    a = pr.Poly(fld, [c % fld.order for c in ca])
    b = pr.Poly(fld, [c % fld.order for c in cb])
    assume(not b.is_zero())
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.is_zero() or r.deg < b.deg


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(DIVMOD_FIELDS),
    st.lists(st.integers(0, 728), max_size=8),
    st.lists(st.integers(0, 728), min_size=1, max_size=5),
)
def test_unchecked_results_equal_checked_construction(fld, ca, cb):
    # products and divmod results skip the copy and trim of Poly.__init__
    a = pr.Poly(fld, [c % fld.order for c in ca])
    b = pr.Poly(fld, [c % fld.order for c in cb])
    assume(not b.is_zero())
    results = list(divmod(a, b))
    if not a.is_zero():
        schoolbook = [0] * (len(a.coeffs) + len(b.coeffs) - 1)
        for i, ai in enumerate(a.coeffs):
            for j, bj in enumerate(b.coeffs):
                schoolbook[i + j] = fld.add(schoolbook[i + j], fld.mul(ai, bj))
        prod = a * b
        assert prod == pr.Poly(fld, schoolbook)
        results.append(prod)
    for r in results:
        assert type(r.coeffs) is tuple
        assert r == pr.Poly(fld, list(r.coeffs))
        assert not r.coeffs or r.coeffs[-1] != 0


def test_factor_examples():
    sgn, items = pr.factor(P(F3, "T-T^2"))
    assert sgn == 2
    assert items == ((P(F3, "T"), 1), (P(F3, "T+2"), 1))
    assert pr.is_irreducible(P(F2, "T^2+T+1"))
    sgn2, items2 = pr.factor(P(F2, "T^4"))
    assert sgn2 == 1 and items2 == ((P(F2, "T"), 4),)


def test_factor_zero_rejected():
    with pytest.raises(BadInputError):
        pr.factor(pr.zero(F3))


@pytest.mark.parametrize("fld,maxdeg", [(F2, 8), (F3, 5)])
def test_factor_roundtrip_exhaustive(fld, maxdeg):
    # re-multiplying factors with sgn reproduces the input
    for d in range(1, maxdeg + 1):
        for a in pr.monic_of_degree(fld, d):
            for s in range(1, fld.order):
                b = a.scale(s)
                sgn, items = pr.factor(b)
                prod = pr.one(fld).scale(sgn)
                for p_, e in items:
                    prod = prod * p_**e
                assert prod == b
                assert all(p_.is_monic() for p_, _ in items)


def test_factor_char2_power_exponents():
    # exercise the p-th root path
    a = P(F2, "T^2+1")  # (T+1)^2
    _, items = pr.factor(a)
    assert items == ((P(F2, "T+1"), 2),)
    b = (P(F2, "T^2+T+1")) ** 4
    _, items = pr.factor(b)
    assert items == ((P(F2, "T^2+T+1"), 4),)


@pytest.mark.parametrize("fld, text", [(F3, "T^3+T"), (F2, "T^3+T^2+T")])
def test_equal_degree_split_bad_input_ends(fld, text):
    # T (T^2 + 1) over F_3 and T (T^2 + T + 1) over F_2: irreducible factors of
    # degrees 1 and 2, so no split into degree-1 factors exists
    with pytest.raises(InvariantError):
        pr._equal_degree_split(P(fld, text), 1, random.Random(0))


def test_gcd2_examples():
    assert pr.gcd2(P(F3, "T^4"), P(F3, "T^6")) == P(F3, "T^2")
    assert pr.gcd2(P(F3, "T^3"), P(F3, "T") * P(F3, "T+1") ** 2).is_one()
    a = P(F2, "T^4") * P(F2, "T+1") ** 3
    d = pr.gcd2(a, a)
    # largest d with d^2 | a: T^2 (T+1)
    assert d == P(F2, "T^2") * P(F2, "T+1")


def test_arith_stats_example():
    a = P(F2, "T^2") * P(F2, "T+1")
    st_ = arith_stats(a)
    assert st_ == {"omega": 2, "d": 6, "sigma1": 21}
    assert arith_stats(pr.one(F2)) == {"omega": 0, "d": 1, "sigma1": 1}
    f = P(F2, "T^2")
    s = arith_stats(f)["sigma1"]
    assert Fraction(s, 4) == Fraction(7, 4) and Fraction(s, 4) <= 3


def test_sigma1_oracle_matches_divisor_enumeration():
    rng = random.Random(1)
    for _ in range(40):
        a = random_poly(F3, 5, rng)
        if a.is_zero():
            continue
        stats = arith_stats(a)
        divs = divisors(a)
        assert stats["d"] == len(divs)
        assert stats["sigma1"] == sum(3**d.deg for d in divs)


def test_count_monic_irreducibles():
    assert pr.count_monic_irreducibles(1, 2) == 2
    assert pr.count_monic_irreducibles(1, 3) == 3
    assert pr.count_monic_irreducibles(2, 2) == 1
    assert pr.count_monic_irreducibles(2, 3) == 3
    # cross-check exhaustively for q=3, n=2
    count = sum(1 for a in pr.monic_of_degree(F3, 2) if pr.is_irreducible(a))
    assert count == 3


def test_a_moebius_sum_off_a_multiple_of_n_is_an_invariant_error(monkeypatch):
    # every n/d read as squarefree: for n = 4, q = 3 the sum is 81 - 9 - 3 = 69,
    # which 4 does not divide; the check must hold under python -O too
    monkeypatch.setattr(pr, "factor_int", lambda m: [(m, 1)] if m > 1 else [])
    with pytest.raises(InvariantError, match="Moebius sum 69"):
        pr.count_monic_irreducibles(4, 3)


def test_an_bounds():
    # a_n <= q^n/n + 2/3 q^(n/2) and a_n <= q^n, certified rationally
    for q in (2, 3):
        for n in range(1, 13):
            an = pr.count_monic_irreducibles(n, q)
            assert an <= q**n
            lhs = 3 * n * an - 3 * q**n
            if lhs > 0:
                assert lhs * lhs <= 4 * n * n * q**n


def test_chi_examples():
    K = validate_field(F3, "odd", D=P(F3, "T-T^2"))
    assert pr.chi(P(F3, "T"), K) == 0
    assert pr.chi(P(F3, "T+1"), K) == 1
    assert pr.chi(P(F3, "T+2"), K) == 0  # T+2 = T-1 divides T-T^2


def test_chi_multiplicativity():
    # the L-route extends chi from the primes through the sieve's smallest
    # factors; Lambda must be the sum of prod chi(P)^e over the factorisation
    from drinfeld_cm.classno import l_route

    for base, flavor, data in [
        (F3, "odd", {"D": "T-T^2"}),
        (F3, "odd", {"D": "2*T^4+T+1"}),
        (F3, "odd", {"D": "T^3+T"}),
        (F2, "even_sep", {"B": "T+1", "C": "T"}),
        (F2, "even_sep", {"B": "T^2+T+1", "C": "T^2+T"}),
        (field(2, 2), "even_sep", {"B": "2*T+2", "C": "T"}),
        (field(2, 2), "even_sep", {"B": "T^2+1", "C": "T"}),
    ]:
        k = validate_field(base, flavor, **{key: P(base, v) for key, v in data.items()})
        lam = l_route(k).lam
        want = []
        for d in range(len(lam)):
            total = 0
            for a in pr.monic_of_degree(base, d):
                prod = 1
                for p_, e in pr.factor(a)[1] if d else ():
                    prod *= pr.chi(p_, k) ** e
                total += prod
            want.append(total)
        assert lam == want, (base, data)


def test_chi_requires_irreducible():
    with pytest.raises(BadInputError):
        pr.chi(P(F3, "T^2-T"), validate_field(F3, "odd", D=P(F3, "T")))


def _residues(Pm):
    return list(pr.all_of_degree_less(Pm.field, Pm.deg))


def _primes(fld, maxdeg):
    return [Pm for d in range(1, maxdeg + 1) for Pm in pr.monic_of_degree(fld, d) if pr.is_irreducible(Pm)]


@pytest.mark.parametrize("fld,maxdeg", [(F2, 4), (field(2, 2), 3)], ids=["F2", "F4"])
def test_artin_schreier_solvable_mod_matches_brute_force(fld, maxdeg):
    # x^2 + x = num/den is solvable in A/P exactly when num = den (x^2 + x) mod P
    # for some x; every numerator is tried over 1, and every constant over every
    # nonzero denominator, which again reaches every quotient num/den
    for Pm in _primes(fld, maxdeg):
        residues = _residues(Pm)
        images = {(x * x + x) % Pm for x in residues}
        for num in residues:
            assert pr.artin_schreier_solvable_mod(Pm, num, pr.one(fld)) == (num in images)
        for den in residues[1:]:
            solvable = {(den * y) % Pm for y in images}
            for num in residues[: fld.order]:  # the constants
                assert pr.artin_schreier_solvable_mod(Pm, num, den) == (num in solvable), (Pm, num, den)


@pytest.mark.parametrize(
    "fld,B,C",
    [
        (F2, "T^2+T+1", "T^2+T"),
        (F2, "[1,1,1,1,1]", "[0,1,1,1,1]"),
        (F2, "T^2+1", "T"),
        (field(2, 2), "[3,3,3,3]", "[1,3,2,1]"),
        (field(2, 2), "2*T+2", "T"),
    ],
)
def test_chi_even_sep_counts_artin_schreier_roots(fld, B, C):
    # chi(P) = 1 when X^2 + X - B/C has its two roots mod P, -1 when it has none
    k = validate_field(fld, "even_sep", B=P(fld, B), C=P(fld, C))
    for Pm in _primes(fld, 3):
        if Pm.divides(k.C):
            assert pr.chi(Pm, k) == 0
            continue
        roots = sum(((k.C * (x * x + x) - k.B) % Pm).is_zero() for x in _residues(Pm))
        assert pr.chi(Pm, k) == roots - 1, (Pm, roots)


@pytest.mark.parametrize("D", ["T^3+T^2", "2*T^4+2*T^3", "2*T^5+2*T^3"])
def test_chi_odd_reads_the_fundamental_discriminant(D):
    # D = g^2 D_K with g != 1: at a prime dividing g but not D_K, chi is the
    # Legendre symbol of D_K, not the 0 that D itself would give (D = T^2 (T + 1)
    # has chi(T) = 1 from D_K = T + 1)
    k = validate_field(F3, "odd", D=P(F3, D))
    assert k.D_K != k.D
    for Pm in _primes(F3, 3):
        if Pm.divides(k.D_K):
            assert pr.chi(Pm, k) == 0
            continue
        squares = {(x * x) % Pm for x in _residues(Pm)[1:]}
        assert pr.chi(Pm, k) == (1 if k.D_K % Pm in squares else -1), Pm


def test_mertens_examples():
    assert mertens_product(P(F2, "T")) == 2
    assert 2 <= 37 * 1
    assert mertens_product(P(F2, "T^2+T")) == 4
    # prime powers: value independent of the exponent
    assert mertens_product(P(F2, "T^3")) == mertens_product(P(F2, "T"))
    with pytest.raises(BadInputError):
        mertens_product(pr.one(F2))


@pytest.mark.parametrize("fld", [F2, F3])
def test_mertens_bound_sweep(fld):
    for d in range(1, 9):
        for f in pr.monic_of_degree(fld, d):
            assert mertens_product(f) <= 37 * d


SIEVE_FIELDS = {"F2": F2, "F3": F3, "F4": F4, "F5": F5, "F8": F8}  # F_4 and F_8 have codes that are not F_p digits


@pytest.mark.parametrize(
    "fld, maxdeg",
    [*((fld, 6) for fld in SIEVE_FIELDS.values()), (field(3, 2), 4)],  # F_9 adds digits mod 3 through tables
    ids=[*SIEVE_FIELDS, "F9"],
)
def test_spf_table_marks_exactly_the_irreducibles(fld, maxdeg):
    # every entry with spf[c] != c is checked to be P * m with both degrees >= 1,
    # so it is reducible; then equal counts make the marked codes of each degree
    # exactly its irreducibles, and with P prime and P <= spf[m], P is the least
    # prime factor of P * m by induction on the degree
    o = fld.order
    spf, cof = pr.spf_table(fld, maxdeg)
    codes = np.arange(len(spf))
    monic = np.zeros(len(spf), dtype=bool)
    for d in range(1, maxdeg + 1):
        block = codes[o**d : 2 * o**d]
        monic[block] = True
        marked = block[spf[block] == block]
        assert len(marked) == pr.count_monic_irreducibles(d, fld.q)
        assert (cof[marked] == 1).all()
    assert not spf[~monic].any() and not cof[~monic].any()
    for c in np.flatnonzero(monic & (spf != codes)).tolist():
        P, m = int(spf[c]), int(cof[c])
        assert spf[P] == P and m > 1 and P <= spf[m], c
        assert pr.code_poly(fld, P) * pr.code_poly(fld, m) == pr.code_poly(fld, c)


def _stats_at_every_code(fld, table, maxdeg) -> dict:
    """code -> (omega, d, sigma_1, Mertens product) from `pr.sieve_stats`."""
    out = {}
    for _, first, *stats in pr.sieve_stats(fld, table, maxdeg):
        for i, (omega, dcount, sigma1, mnum, mden) in enumerate(zip(*(s.tolist() for s in stats))):
            out[first + i] = (omega, dcount, sigma1, Fraction(mnum, mden))
    return out


def test_spf_table_agrees_with_factor():
    # every monic of degree <= 6 over F_2 .. F_5; over F_8 every monic of
    # degree <= 4 and 300 seeded samples of each of degrees 5 and 6
    rng = random.Random(0)
    for name, fld in SIEVE_FIELDS.items():
        o = fld.order
        table = pr.spf_table(fld, 6)
        stats = _stats_at_every_code(fld, table, 6)
        assert sorted(stats) == [c for d in range(1, 7) for c in range(o**d, 2 * o**d)]
        for d in range(1, 7):
            codes = range(o**d, 2 * o**d)
            if name == "F8" and d > 4:
                codes = rng.sample(codes, 300)
            for c in codes:
                a = pr.code_poly(fld, c)
                items = pr.factor_with_spf(c, table)
                _, expect = pr.factor(a)
                assert items == sorted((pr.poly_code(P), e) for P, e in expect)  # increasing code order
                want = arith_stats(a)
                assert stats[c] == (want["omega"], want["d"], want["sigma1"], mertens_product(a)), (name, a)


def test_sieve_stats_reach_d_of_two_to_the_maxdeg():
    # T^7 - T over F_7 is the product of the 7 monic linears: d = 2^7 = 128 sits
    # at the edge of the least dtype for d(a) <= 2^maxdeg
    F7 = field(7)
    c = pr.poly_code(P(F7, "T^7+6*T"))
    stats = None
    for _, first, *run in pr.sieve_stats(F7, pr.spf_table(F7, 7), 7):
        if first <= c < first + len(run[0]):
            stats = [int(s[c - first]) for s in run]
    assert stats == [7, 2**7, 8**7, 7**7, 6**7]


def test_factor_with_spf_rejects_codes_outside_the_table():
    table = pr.spf_table(F3, 2)
    with pytest.raises(BadInputError):
        pr.factor_with_spf(pr.poly_code(P(F3, "2*T+1")), table)


@pytest.mark.parametrize("fld", [F3, field(2, 2)])
def test_residue_table_agrees_with_division(fld):
    polys = list(pr.all_of_degree_less(fld, 7 if fld.p == 3 else 5))  # every mu code of the lemma suites
    moduli = [a for da in range(4) for a in pr.monic_of_degree(fld, da)] + [pr.one(fld).scale(2)]
    moduli += [a.scale(2) for a in pr.monic_of_degree(fld, 2)]  # non-monic: T^i mod a divides by the sign
    for a in moduli:
        red = pr.residue_table(a, len(polys))
        assert isinstance(red, np.ndarray) and red.dtype == np.int64
        assert red.tolist() == [pr.poly_code(D % a) for D in polys]
    assert pr.residue_table(pr.T(fld), 1).tolist() == [0]
    # a length that is no power of the field order ends in a partial top digit
    assert pr.residue_table(pr.T(fld), 5).tolist() == [c % fld.order for c in range(5)]


def test_residue_table_mod_zero_raises_like_division():
    zero = pr.zero(F3)
    with pytest.raises(ZeroDivisionError):
        P(F3, "T+1") % zero
    with pytest.raises(ZeroDivisionError):
        pr.residue_table(zero, 5)
    with pytest.raises(ZeroDivisionError):
        pr.reduce_rows(pr.digit_rows(F3, np.arange(5), 2), zero)


def test_parse_format_roundtrip():
    for text in ["T^2+2*T+1", "T", "1", "0", "[1,2,0,1]"]:
        a = P(F3, text)
        assert pr.parse_poly(F3, f"[{','.join(map(str, a.coeffs))}]") == a
        assert pr.parse_poly(F3, pr.format_poly(a)) == a


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 2), max_size=6), st.lists(st.integers(0, 2), max_size=6))
def test_ring_axioms_hypothesis(ca, cb):
    a, b = pr.Poly(F3, ca), pr.Poly(F3, cb)
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * a == a * a + b * a


def test_deg_marker():
    assert pr.zero(F3).deg == pr.NEG_INF
    assert pr.zero(F3).deg < 0


def products_of_power(e: int) -> int:
    """The products square-and-multiply needs for x^e, e >= 1: one squaring per
    bit below the top one, and one product by x per further set bit."""
    return e.bit_length() - 1 + bin(e).count("1") - 1


@pytest.mark.parametrize("e", [0, 1, 2, 3, 4, 5, 7, 8, 13, 16, 31])
def test_poly_power_makes_only_the_needed_products(e, monkeypatch):
    a = P(F3, "T^2+2*T+1")
    want = pr.one(F3)
    for _ in range(e):
        want = want * a
    calls = []
    real = pr.Poly.__mul__
    monkeypatch.setattr(pr.Poly, "__mul__", lambda x, y: calls.append(1) or real(x, y))
    assert a**e == want
    assert len(calls) == (products_of_power(e) if e else 0)
