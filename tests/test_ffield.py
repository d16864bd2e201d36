import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drinfeld_cm.errors import BadInputError
from drinfeld_cm.ffield import (
    artin_schreier_solve,
    embedding_table,
    factor_int,
    field,
    is_square,
    quadratic_extension,
    sqrt,
)

DESCS = [field(2), field(3), field(2, 2), field(5), field(2, 1, 2), field(3, 1, 2), field(2, 2, 2), field(5, 1, 2)]


def test_arith_examples():
    f3 = field(3)
    assert f3.mul(2, 2) == 1  # (-1)^2 = 1
    f4 = field(2, 2)
    w = 2  # the class of x: code p
    assert f4.mul(w, w) == f4.add(w, 1)  # w^2 = w + 1 for the lex-least modulus
    f9 = field(3, 1, 2)
    for x in range(1, 9):
        assert f9.mul(x, f9.inv(x)) == 1


def test_every_spelling_of_a_field_gives_one_descriptor():
    # the descriptor owns the field's held data, so one field is one object
    assert field(3) is field(3, 1) is field(3, 1, 1, None) is field(p=3, m=1)
    assert field(3, 2, 1, [2, 1, 1]) is field(3, 2, 1, (2, 1, 1)) != field(3, 2)
    assert field(3, 1, 2).held("probe", list) is field(3, m=2).held("probe", dict)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        field(3).inv(0)
    with pytest.raises(ZeroDivisionError):
        field(3, 3, 2).inv(0)  # no tables: the power route


@pytest.mark.parametrize("desc", DESCS)
def test_unit_group_order(desc):
    # x^(q^m - 1) = 1 exhaustively (all orders here are <= 81... small anyway)
    for x in range(1, desc.order):
        assert desc.pow(x, desc.order - 1) == 1


@pytest.mark.parametrize("desc", [field(3), field(5), field(3, 1, 2), field(5, 1, 2)])
def test_is_square_oracle(desc):
    squares = {desc.mul(y, y) for y in range(desc.order)}
    for x in range(desc.order):
        assert is_square(desc, x) == (x in squares)


def test_is_square_examples():
    f3 = field(3)
    assert not is_square(f3, 2)
    assert is_square(f3, 1)
    f9 = field(3, 1, 2)
    emb = embedding_table(f3, f9)
    for x in range(1, 3):
        assert is_square(f9, emb[x])


def test_is_square_even_q_rejected():
    with pytest.raises(BadInputError):
        is_square(field(2), 1)


def test_sqrt_fq2():
    # every element of F_q is a square in F_{q^2}; the non-squares of F_q
    # have their roots outside it
    for f in (field(3), field(5)):
        f2 = quadratic_extension(f)
        emb = embedding_table(f, f2)
        for x in range(1, f.order):
            r = sqrt(f2, emb[x])
            assert r is not None and f2.mul(r, r) == emb[x]
            assert (r in set(emb)) == is_square(f, x)
    assert sqrt(field(3), 2) is None


def test_sqrt_canonical_is_min():
    for f in (field(3, 1, 2), field(5)):
        for x in range(f.order):
            r = sqrt(f, x)
            if r is None:
                continue
            assert f.mul(r, r) == x
            assert r <= f.neg(r)
    f4 = field(2, 2)
    assert [f4.mul(sqrt(f4, x), sqrt(f4, x)) for x in range(4)] == [0, 1, 2, 3]  # char 2: Frobenius inverse


def test_artin_schreier_examples():
    f2 = field(2)
    assert artin_schreier_solve(f2, 0) == (0, 1)
    assert artin_schreier_solve(f2, 1) is None  # trace 1
    f4 = field(2, 2)
    r = artin_schreier_solve(f4, 1)
    assert r is not None
    r1, r2 = r
    assert r2 == r1 ^ 1
    for root in (r1, r2):
        assert f4.add(f4.mul(root, root), root) == 1


@pytest.mark.parametrize("desc", [field(2), field(2, 2), field(2, 1, 2), field(2, 2, 2)])
def test_artin_schreier_trace_criterion(desc):
    for c in range(desc.order):
        res = artin_schreier_solve(desc, c)
        solvable = any(desc.add(desc.mul(y, y), y) == c for y in range(desc.order))
        assert (res is not None) == solvable
        assert solvable == (desc.trace_to_prime(c) == 0)
        if res:
            r1, r2 = res
            assert desc.add(desc.mul(r1, r1), r1) == c
            assert r2 == desc.add(r1, 1)


@pytest.mark.parametrize("r,m", [(r, m) for m in (1, 2) for r in range(1, 8 // m + 1)])
def test_artin_schreier_roots_match_brute_force(r, m):
    # every char-2 field of order <= 256: the trace formula's roots are the
    # roots found by squaring every element
    desc = field(2, r, m)
    roots = {}
    for y in range(desc.order):
        roots.setdefault(desc.add(desc.mul(y, y), y), []).append(y)
    for c in range(desc.order):
        assert artin_schreier_solve(desc, c) == (tuple(roots[c]) if c in roots else None)


def test_embedding_is_ring_hom():
    f3 = field(3)
    f9 = field(3, 1, 2)
    emb = embedding_table(f3, f9)
    for a in range(3):
        for b in range(3):
            assert emb[f3.add(a, b)] == f9.add(emb[a], emb[b])
            assert emb[f3.mul(a, b)] == f9.mul(emb[a], emb[b])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 24), st.integers(0, 24), st.integers(0, 24))
def test_field_axioms_f25(a, b, c):
    f = field(5, 1, 2)
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.mul(a, b) == f.mul(b, a)
    assert f.add(a, f.neg(a)) == 0
    assert f.sub(a, b) == f.add(a, f.neg(b))
    assert f.add(f.sub(a, b), b) == a


def _coord_ops(desc):
    """add, sub, neg and mul on coordinate vectors mod p, written out here."""
    p, s = desc.p, desc.s
    modulus = desc.modulus

    def add(a, b):
        return [(x + y) % p for x, y in zip(a, b)]

    def sub(a, b):
        return [(x - y) % p for x, y in zip(a, b)]

    def neg(a):
        return [-x % p for x in a]

    def mul(a, b):
        prod = [0] * (2 * s - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] += x * y
        for k in range(2 * s - 2, s - 1, -1):  # x^s = -(m_0 + ... + m_{s-1} x^{s-1})
            top, prod[k] = prod[k], 0
            for i in range(s):
                prod[k - s + i] -= top * modulus[i]
        return [c % p for c in prod[:s]]

    return add, sub, neg, mul


TABLED = [field(2), field(3), field(2, 2), field(5), field(3, 1, 2), field(2, 2, 2), field(5, 1, 2), field(3, 3)]


@pytest.mark.parametrize("desc", TABLED, ids=lambda d: f"F{d.order}")
def test_tables_match_coordinate_arithmetic(desc):
    assert desc._add_table is not None and desc._mul_table is not None
    add, sub, neg, mul = _coord_ops(desc)
    vecs = [desc.coords(a) for a in range(desc.order)]
    for a, va in enumerate(vecs):
        assert desc.coords(desc.neg(a)) == neg(va)
        for b, vb in enumerate(vecs):
            assert desc.coords(desc.add(a, b)) == add(va, vb)
            assert desc.coords(desc.sub(a, b)) == sub(va, vb)
            assert desc.coords(desc.mul(a, b)) == mul(va, vb)


F729 = field(3, 3, 2)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 728), st.integers(0, 728))
def test_digit_loop_matches_coordinate_arithmetic_f729(a, b):
    # order 729 > 256: no tables, every operation takes the digit loop
    assert F729._add_table is None and F729._mul_table is None
    add, sub, neg, mul = _coord_ops(F729)
    va, vb = F729.coords(a), F729.coords(b)
    assert F729.coords(F729.add(a, b)) == add(va, vb)
    assert F729.coords(F729.sub(a, b)) == sub(va, vb)
    assert F729.coords(F729.neg(a)) == neg(va)
    assert F729.coords(F729.mul(a, b)) == mul(va, vb)


def test_header_roundtrip():
    d = field(2, 1, 2)
    assert d.header() == "2,1,2,[1,1,1]"


def test_size_guard():
    with pytest.raises(BadInputError):
        field(2, 17)


def _least_irreducible_by_trial_division(p, s):
    """The least monic of degree s over F_p, by the base-p value of (c_0, ...,
    c_{s-1}), with no monic factor of degree <= s/2 (integer lists, low-to-high)."""

    def monics(d):
        for v in range(p**d):
            yield [v // p**i % p for i in range(d)] + [1]

    def rem(f, g):
        f, d = list(f), len(g) - 1
        for top in range(len(f) - 1, d - 1, -1):
            c = f[top]
            for i, gi in enumerate(g, top - d):
                f[i] = (f[i] - c * gi) % p
        return f[:d]

    for f in monics(s):
        if all(any(rem(f, g)) for d in range(1, s // 2 + 1) for g in monics(d)):
            return tuple(f)


SMALL_EXTENSIONS = [(p, s) for p in (2, 3, 5, 7, 11, 13) for s in range(2, 9) if p**s <= 256]


@pytest.mark.parametrize("p, s", SMALL_EXTENSIONS + [(3, 6), (2, 10)])
def test_default_moduli_are_least_irreducibles(p, s):
    assert field(p, s).modulus == _least_irreducible_by_trial_division(p, s)


def test_factor_int():
    assert [factor_int(n) for n in (-3, 0, 1, 2, 12, 97, 360)] == [
        [], [], [], [(2, 1)], [(2, 2), (3, 1)], [(97, 1)], [(2, 3), (3, 2), (5, 1)]
    ]
    for n in range(2, 500):
        items = factor_int(n)
        assert [q for q, _ in items] == sorted({q for q, _ in items})
        assert all(e >= 1 and all(q % d for d in range(2, q)) for q, e in items)
        assert math.prod(q**e for q, e in items) == n
