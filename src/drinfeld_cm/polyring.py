"""Arithmetic and arithmetic-function toolkit for A = F_q[T].

Polynomials are immutable dense coefficient tuples (element codes,
low-to-high) over a FieldDesc.  The zero polynomial is the empty tuple and
its degree is the distinguished marker NEG_INF.  Coefficient arithmetic goes
through the FieldDesc's add/sub/neg/mul, which the hot loops bind once per
call; how the field computes them (tables or digit loops) stays inside
`ffield`.

Besides ring arithmetic this module provides factorization (squarefree split
+ distinct-degree + equal-degree splitting, its random choices seeded by the
input), gcd_2, the count of monic irreducibles, and the quadratic character
chi attached to an imaginary quadratic extension.  In characteristic 2 one
helper, `trace_mod`, sums w + w^2 + ... + w^(2^(e-1)) mod f: it splits
equal-degree factors, and it decides every Artin-Schreier question
x^2 + x = c mod P, since a root exists exactly when the trace of c to F_2
vanishes.  For odd q, chi reads the fundamental discriminant D_K that the
field holds.

For exhaustive sweeps this module works on numpy arrays of coefficient rows
(the digits of integer poly codes) through flat code tables of F_q: row
products, reduction mod a by the rows of T^i mod a, residue tables, and a
linear smallest-prime sieve built one degree at a time, from which
`sieve_stats` reads omega(a), d(a), sigma_1(a) and the Mertens product
prod_{P | a} |P|/(|P| - 1) for every monic a.
"""

from __future__ import annotations

import random
from functools import lru_cache

import numpy as np

from .errors import BadInputError, InvariantError
from .ffield import FieldDesc, factor_int, is_square as ff_is_square

NEG_INF = float("-inf")
SPLIT_TRIALS = 64  # each trial splits a valid input with probability about 1/2
FACTOR_CACHE_SIZE = 4096  # factorizations kept, least recently used dropped first
CHUNK = 1 << 16  # rows of one array operation in the code tables and sieves; bounds their temporaries


class Poly:
    """Element of F_q[T] (dense, low-to-high coefficient codes)."""

    __slots__ = ("field", "coeffs")

    def __init__(self, fld: FieldDesc, coeffs):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "field", fld)
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def _of_trimmed(cls, fld: FieldDesc, coeffs: tuple) -> "Poly":
        """Wrap a coefficient tuple whose last entry is nonzero (or that is empty),
        without the copy and trim of __init__."""
        out = object.__new__(cls)
        object.__setattr__(out, "field", fld)
        object.__setattr__(out, "coeffs", coeffs)
        return out

    def __setattr__(self, *a):  # immutability
        raise AttributeError("Poly is immutable")

    # -- basics -------------------------------------------------------------

    @property
    def deg(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return self.coeffs == (1,)

    @property
    def sgn(self) -> int:
        """Leading coefficient code (0 for the zero polynomial)."""
        return self.coeffs[-1] if self.coeffs else 0

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def monic(self) -> "Poly":
        if self.is_zero():
            raise BadInputError("monic() of zero polynomial")
        if self.is_monic():
            return self
        inv = self.field.inv(self.sgn)
        return Poly(self.field, [self.field.mul(inv, c) for c in self.coeffs])

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __eq__(self, other):
        return isinstance(other, Poly) and self.field == other.field and self.coeffs == other.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    # -- ring operations ------------------------------------------------------

    def _check(self, other):
        if self.field is not other.field and self.field != other.field:
            raise BadInputError("polynomials over different fields")

    def __add__(self, other):
        self._check(other)
        add = self.field.add
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = add(out[i], c)
        return Poly(self.field, out)

    def __neg__(self):
        neg = self.field.neg
        return Poly(self.field, [neg(c) for c in self.coeffs])

    def __sub__(self, other):
        self._check(other)
        sub = self.field.sub
        a, b = self.coeffs, other.coeffs
        out = list(a) + [0] * (len(b) - len(a))
        for i, c in enumerate(b):
            out[i] = sub(out[i], c)
        return Poly(self.field, out)

    def __mul__(self, other):
        self._check(other)
        f = self.field
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly(f, ())
        add, mul = f.add, f.mul
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b, i):
                    if bj:
                        out[j] = add(out[j], mul(ai, bj))
        return Poly._of_trimmed(f, tuple(out))  # a field has no zero divisors: the top entry is nonzero

    def scale(self, code: int) -> "Poly":
        f = self.field
        if code == 0:
            return Poly(f, ())
        mul = f.mul
        return Poly(f, [mul(code, c) for c in self.coeffs])

    def __divmod__(self, other):
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        f = self.field
        mul, sub = f.mul, f.sub
        rem = list(self.coeffs)
        low = other.coeffs[:-1]  # the leading term cancels by construction
        db = len(low)
        lead_inv = f.inv(other.sgn)
        quot = [0] * max(0, len(rem) - db)
        while len(rem) > db:
            shift = len(rem) - 1 - db
            factor = mul(rem.pop(), lead_inv)
            quot[shift] = factor
            for i, c in enumerate(low, shift):
                if c:
                    rem[i] = sub(rem[i], mul(factor, c))
            while rem and rem[-1] == 0:
                rem.pop()
        # quot[-1] is the first factor taken, nonzero; the loop leaves rem trimmed
        return Poly._of_trimmed(f, tuple(quot)), Poly._of_trimmed(f, tuple(rem))

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __pow__(self, e: int):
        if e < 0:
            raise BadInputError("negative polynomial power")
        return binary_power(self, e) if e else Poly._of_trimmed(self.field, (1,))

    def divides(self, other: "Poly") -> bool:
        return (other % self).is_zero()

    def map_coeffs(self, table, fld2: FieldDesc) -> "Poly":
        """Push coefficients through a code table into another field."""
        return Poly(fld2, [table[c] for c in self.coeffs])

    def derivative(self) -> "Poly":
        f = self.field
        out = []
        for i, c in enumerate(self.coeffs[1:], start=1):
            out.append(f.mul(i % f.p, c))
        return Poly(f, out)

    # -- formatting -----------------------------------------------------------

    def __repr__(self):
        return f"Poly({format_poly(self)})"

    def __str__(self):
        return format_poly(self)


def binary_power(x, e: int):
    """x^e for an integer e >= 1 by squaring from the top bit down: bit_length(e) - 1
    squarings and popcount(e) - 1 products by x, so x^1 costs no product."""
    result = x
    for bit in bin(e)[3:]:
        result = result * result
        if bit == "1":
            result = result * x
    return result


def T(fld: FieldDesc) -> Poly:
    return Poly(fld, (0, 1))


def one(fld: FieldDesc) -> Poly:
    return Poly(fld, (1,))


def zero(fld: FieldDesc) -> Poly:
    return Poly(fld, ())


def gcd(a: Poly, b: Poly) -> Poly:
    while not b.is_zero():
        a, b = b, a % b
    if a.is_zero():
        return a
    return a.monic()


def gcd_many(ps) -> Poly:
    it = iter(ps)
    g = next(it)
    for x in it:
        g = gcd(g, x)
    return g


def xgcd(a: Poly, b: Poly):
    """(g, u, v) with g = u*a + v*b, g monic (or zero)."""
    f = a.field
    r0, r1 = a, b
    s0, s1 = one(f), zero(f)
    t0, t1 = zero(f), one(f)
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero():
        return r0, s0, t0
    inv = f.inv(r0.sgn)
    return r0.monic(), s0.scale(inv), t0.scale(inv)


def powmod(a: Poly, e: int, m: Poly) -> Poly:
    result = one(a.field)
    base = a % m
    while e:
        if e & 1:
            result = (result * base) % m
        base = (base * base) % m
        e >>= 1
    return result


def trace_mod(w: Poly, f: Poly, e: int) -> Poly:
    """w + w^2 + ... + w^(2^(e-1)) mod f (p = 2): the trace to F_2 of w when
    A/f is the field F_{2^e}, and that trace in each residue field of a
    squarefree f whose prime factors all have that residue degree."""
    t = w = w % f
    for _ in range(e - 1):
        w = (w * w) % f
        t = t + w
    return t


# ---------------------------------------------------------------------------
# factorization


def _pth_root(a: Poly) -> Poly:
    """p-th root of a polynomial whose exponents are all multiples of p."""
    f = a.field
    p = f.p
    out = []
    for i in range(0, len(a.coeffs), p):
        c = a.coeffs[i]
        # p-th root of c: c^(p^(s-1))
        out.append(f.pow(c, f.order // p))
    return Poly(f, out)


def _rng_for(a: Poly) -> random.Random:
    key = (a.field.p, a.field.r, a.field.m) + a.coeffs
    return random.Random(repr(key))


def _equal_degree_split(f: Poly, d: int, rng: random.Random):
    """Split a squarefree product of degree-d irreducibles (Cantor-Zassenhaus).

    An input that is not such a product may never split; it raises
    InvariantError after SPLIT_TRIALS random trials.
    """
    fld = f.field
    q = fld.q
    n = f.deg
    if n == d:
        return [f]
    for _ in range(SPLIT_TRIALS):
        r = Poly(fld, [rng.randrange(fld.order) for _ in range(n)] + [1])
        g = gcd(r, f)
        if 1 <= g.deg < n:
            pass
        elif fld.p == 2:
            g = gcd(trace_mod(r, f, d * fld.s), f)  # the trace to F_2 of each residue field F_{q^d}
        else:
            w = powmod(r, (q**d - 1) // 2, f)
            g = gcd(w - one(fld), f)
        if 1 <= g.deg < n:
            return _equal_degree_split(g, d, rng) + _equal_degree_split(f // g, d, rng)
    raise InvariantError(f"no equal-degree split of {f} into degree-{d} factors after {SPLIT_TRIALS} trials")


def _factor_squarefree(f: Poly, rng: random.Random):
    """Irreducible factors of a squarefree monic polynomial."""
    fld = f.field
    q = fld.q
    out = []
    w = T(fld) % f
    d = 0
    rest = f
    while rest.deg > 0:
        d += 1
        if 2 * d > rest.deg:
            out.append(rest)
            break
        w = powmod(w, q, rest)
        g = gcd(w - T(fld), rest)
        if g.deg >= 1:
            out.extend(_equal_degree_split(g, d, rng))
            rest = rest // g
            w = w % rest
    return out


@lru_cache(maxsize=FACTOR_CACHE_SIZE)
def factor(a: Poly):
    """Factor a nonzero polynomial.

    Returns (sgn_code, [(monic irreducible, exponent), ...]) sorted by
    (degree, coefficient codes).  The last FACTOR_CACHE_SIZE results are kept.
    """
    if a.is_zero():
        raise BadInputError("factor(0)")
    sgn = a.sgn
    f = a.monic()
    rng = _rng_for(a)
    factors = {}

    def accumulate(g: Poly, mult: int):
        if g.deg == 0:
            return
        der = g.derivative()
        if der.is_zero():
            accumulate(_pth_root(g), mult * g.field.p)
            return
        sf = g // gcd(g, der)
        rest = g
        for p_ in _factor_squarefree(sf, rng):
            e = 0
            while p_.divides(rest):
                rest = rest // p_
                e += 1
            factors[p_] = factors.get(p_, 0) + e * mult
        if rest.deg > 0:
            accumulate(rest, mult)

    accumulate(f, 1)
    items = sorted(factors.items(), key=lambda kv: (kv[0].deg, kv[0].coeffs))
    # postcondition: product reproduces the input
    check = one(a.field).scale(sgn)
    for p_, e in items:
        check = check * p_**e
    if check != a:
        raise InvariantError("factorization does not reproduce the input")  # pragma: no cover
    return sgn, tuple(items)


def is_irreducible(a: Poly) -> bool:
    if a.deg < 1:
        return False
    _, items = factor(a)
    return len(items) == 1 and items[0][1] == 1 and items[0][0] == a.monic()


def is_square_poly(a: Poly) -> bool:
    """Whether a is a square in k = F_q(T) (equivalently in A, for a in A)."""
    if a.is_zero():
        return True
    sgn_code, items = factor(a)
    if any(e % 2 for _, e in items):
        return False
    if a.field.p == 2:
        return True  # every constant is a square in char 2
    return ff_is_square(a.field, sgn_code)


def squarefree_split(a: Poly):
    """Write a = sgn * g^2 * d0 with d0 monic squarefree; returns (sgn, g, d0)."""
    sgn_code, items = factor(a)
    f = a.field
    g = one(f)
    d0 = one(f)
    for p_, e in items:
        g = g * p_ ** (e // 2)
        if e % 2:
            d0 = d0 * p_
    return sgn_code, g, d0


def gcd2(a: Poly, b: Poly) -> Poly:
    """The monic d of maximal degree with d^2 | a and d^2 | b."""
    if a.is_zero() or b.is_zero():
        raise BadInputError("gcd2 needs nonzero inputs")
    _, items = factor(a)
    f = a.field
    out = one(f)
    for p_, ea in items:
        eb = 0
        rest = b
        while p_.divides(rest):
            rest = rest // p_
            eb += 1
        k = min(ea // 2, eb // 2)
        if k:
            out = out * p_**k
    return out


def count_monic_irreducibles(n: int, q: int) -> int:
    """Number of monic irreducibles of degree n via the Moebius/necklace formula."""
    if n <= 0:
        raise BadInputError("degree must be >= 1")
    total = 0
    for d in range(1, n + 1):
        if n % d == 0:
            items = factor_int(n // d)
            if all(e == 1 for _, e in items):  # Moebius(n/d) = (-1)^len(items), else 0
                total += (-1) ** len(items) * q**d
    if total % n:
        raise InvariantError(f"the Moebius sum {total} for degree {n} is not a multiple of {n}")
    return total // n


# ---------------------------------------------------------------------------
# quadratic character


def artin_schreier_solvable_mod(P: Poly, num: Poly, den: Poly) -> bool:
    """Whether x^2 + x = num/den is solvable in the residue field A/P (p = 2).

    By additive Hilbert 90 it is exactly when the trace of num/den mod P to
    F_2 vanishes; A/P has degree s deg P over F_2, s = [F_q : F_2].
    """
    fld = P.field
    if fld.p != 2:
        raise BadInputError("Artin-Schreier residue test requires p = 2")
    g, u, _ = xgcd(den % P, P)
    if not g.is_one():
        raise BadInputError("denominator not invertible mod P")
    return trace_mod(num * u, P, fld.s * P.deg).is_zero()


def chi(P: Poly, K) -> int:
    """Quadratic character of an imaginary quadratic extension at a monic irreducible P.

    K is a `quadfield.QuadField`: the odd flavor reads its fundamental
    discriminant D_K, even_sep its B and C.  Returns -1, 0 or +1; 0 at
    ramified primes.
    """
    if not is_irreducible(P):
        raise BadInputError("chi requires an irreducible P")
    P = P.monic()
    flavor = K.flavor
    if flavor == "odd":
        # Euler's criterion on the fundamental discriminant, which P divides exactly when it ramifies
        if P.divides(K.D_K):
            return 0
        fld = P.field
        e = (fld.q**P.deg - 1) // 2
        w = powmod(K.D_K, e, P)
        if w.is_one():
            return 1
        if w == one(fld).scale(fld.neg(1)):
            return -1
        raise InvariantError("Euler criterion did not land in {+-1}")  # pragma: no cover
    if flavor == "even_sep":
        if P.divides(K.C):
            return 0
        return 1 if artin_schreier_solvable_mod(P, K.B, K.C) else -1
    if flavor == "even_insep":
        return 0
    raise BadInputError(f"unknown flavor {flavor!r}")


# ---------------------------------------------------------------------------
# enumeration and sieving (desk scale)


def monic_of_degree(fld: FieldDesc, d: int):
    """All monic polynomials of degree d, in lexicographic code order."""
    if d < 0:
        return
    low = fld.order**d
    for v in range(low, 2 * low):
        yield code_poly(fld, v)


def all_of_degree_less(fld: FieldDesc, d: int):
    """All polynomials (monic or not, including 0) of degree < d."""
    for v in range(fld.order**d):
        yield code_poly(fld, v)


def poly_code(a: Poly) -> int:
    """Integer code of a polynomial (base-order digits of coefficient codes).

    The monic polynomials of degree d have the codes order^d .. 2*order^d - 1,
    and the polynomials of degree < d the codes 0 .. order^d - 1.
    """
    o = a.field.order
    v = 0
    for c in reversed(a.coeffs):
        v = v * o + c
    return v


def code_poly(fld: FieldDesc, code: int) -> Poly:
    """The polynomial with this poly code (the inverse of poly_code)."""
    o = fld.order
    cs = []
    while code:
        code, c = divmod(code, o)
        cs.append(c)
    return Poly._of_trimmed(fld, tuple(cs))


def _signed_to(bound: int):
    """The least signed integer dtype that holds 0 .. bound (signed, so that
    products with int64 stay integers)."""
    return np.min_scalar_type(-bound - 1)


def _digit_dtype(fld: FieldDesc):
    """The least dtype of a coefficient code that also holds a flat index
    x * order + y of the code tables."""
    return _signed_to(fld.order**2 - 1)


def digit_rows(fld: FieldDesc, codes: np.ndarray, n: int) -> np.ndarray:
    """The n lowest base-order digits of each poly code, low to high: one row
    of coefficient codes per polynomial."""
    out = np.empty((len(codes), n), dtype=_digit_dtype(fld))
    for i in range(n):
        codes, out[:, i] = np.divmod(codes, fld.order)
    return out


def _code_tables(fld: FieldDesc) -> tuple:
    """The tables of fld.add and fld.mul on codes, flat: entry x * order + y
    holds x + y (x y).  The field holds them."""
    elems = range(fld.order)
    add = np.array([fld.add(a, b) for a in elems for b in elems], dtype=_digit_dtype(fld))
    mul = np.array([fld.mul(a, b) for a in elems for b in elems], dtype=_digit_dtype(fld))
    return add, mul


def add_codes(fld: FieldDesc, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """X + Y on arrays of codes (broadcast), through the add table."""
    return fld.held("code_tables", _code_tables, fld)[0][X * fld.order + Y]


def mul_codes(fld: FieldDesc, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """X Y on arrays of codes (broadcast), through the mul table."""
    return fld.held("code_tables", _code_tables, fld)[1][X * fld.order + Y]


def row_codes(fld: FieldDesc, rows: np.ndarray) -> np.ndarray:
    """The poly codes of coefficient rows (along the last axis), as int64."""
    codes = np.zeros(rows.shape[:-1], dtype=np.int64)
    for i in range(rows.shape[-1] - 1, -1, -1):  # Horner, from the leading coefficient down
        codes *= fld.order
        codes += rows[..., i]
    return codes


def product_rows(fld: FieldDesc, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Coefficient rows of the products of the polynomials with coefficient
    rows A and B, row by row, their coefficient sums taken through the code
    tables."""
    n, la = A.shape
    lb = B.shape[1]
    out = np.zeros((n, max(0, la + lb - 1)), dtype=A.dtype)
    for j in range(la):
        out[:, j : j + lb] = add_codes(fld, out[:, j : j + lb], mul_codes(fld, A[:, j : j + 1], B))
    return out


def _power_rows(a: Poly, n: int) -> np.ndarray:
    """Row i: the coefficient codes of T^i mod a, for i < n (n > deg a >= 1).

    T^i is its own residue below deg a; above, T^(i+1) mod a is T (T^i mod a)
    with its top term c T^deg a replaced by c (T^deg a mod a)."""
    fld = a.field
    add, mul = fld.add, fld.mul
    d = a.deg
    inv = fld.inv(a.sgn)
    low = [fld.neg(mul(inv, c)) for c in a.coeffs[:-1]]  # T^d mod a
    rows = np.zeros((n, d), dtype=_digit_dtype(fld))
    np.fill_diagonal(rows, 1)
    row = low
    for i in range(d, n):
        rows[i] = row
        top = row[-1]
        row = [mul(top, low[0])] + [add(c, mul(top, x)) for c, x in zip(row, low[1:])]
    return rows


def reduce_rows(rows: np.ndarray, a: Poly) -> np.ndarray:
    """Coefficient rows (of width deg a) of the residues mod a of the
    polynomials with coefficient rows `rows`.

    Reduction mod a is F_q-linear: column i >= deg a adds c (T^i mod a) for
    its coefficient c, a row read from the table of all c (T^i mod a), and
    the sums go through the add table."""
    if a.is_zero():
        raise ZeroDivisionError("reduction mod the zero polynomial")
    d = a.deg
    n = rows.shape[1]
    if n <= d:
        return np.pad(rows, ((0, 0), (0, d - n)))
    if not d:
        return rows[:, :0]  # a nonzero constant divides everything
    fld = a.field
    elems = np.arange(fld.order, dtype=rows.dtype)[:, None]
    multiples = mul_codes(fld, elems, _power_rows(a, n)[:, None, :])  # [i, c]: the row of c (T^i mod a)
    out = rows[:, :d]
    for i in range(d, n):
        out = add_codes(fld, out, multiples[i].take(rows[:, i], axis=0))
    return out


def spf_table(fld: FieldDesc, maxdeg: int):
    """Linear sieve over the monic polynomials of degree <= maxdeg.

    Returns (spf, cof), two int32 arrays indexed by poly code.  For a monic
    a of degree >= 1, spf[a] is the code of the smallest monic irreducible
    factor of a in code order and cof[a] that of a / spf[a]; so the
    irreducibles are exactly the codes with spf[P] = P, and they have
    cof[P] = 1 (the code of the polynomial 1).  Other entries are 0.

    The sieve runs one degree d at a time on numpy arrays.  Every composite
    of degree d is a product of lower degrees, so once the blocks below d
    are done the zero entries of block d are its irreducibles.  Then every m
    of degree d is multiplied by every irreducible P <= spf[m] in code order
    with deg P <= maxdeg - d (such a P has deg P <= d), all these pairs in
    one array operation on coefficient rows (`product_rows`, through the
    order x order tables of fld.add and fld.mul), in chunks of about CHUNK
    products.  As in the sieve of Gries and Misra (CACM 21, 1978), each
    composite is set once, from the one product P * m with P <= spf[m].  A
    table of 2^31 codes or more is refused.
    """
    o = fld.order
    size = 2 * o**maxdeg
    if size >= 2**31:
        raise BadInputError(f"a sieve to degree {maxdeg} over F_{o} needs more than 2^31 codes")
    spf = np.zeros(size, dtype=np.int32)
    cof = np.zeros(size, dtype=np.int32)
    width = maxdeg // 2 + 1  # coefficients of a prime P that takes some m with deg m >= deg P
    primes = np.zeros(0, dtype=np.int64)  # the irreducibles of degree <= maxdeg / 2, increasing
    prime_rows = digit_rows(fld, primes, width)  # their coefficient rows
    for d in range(1, maxdeg + 1):
        lo = o**d
        least = spf[lo : 2 * lo]  # a view: spf of the m of degree d
        new = np.flatnonzero(least == 0) + lo
        spf[new], cof[new] = new, 1
        e = min(d, maxdeg - d)  # the largest degree of a prime P that takes an m of degree d
        if not e:
            continue
        if e == d:
            primes = np.concatenate((primes, new))
            prime_rows = np.concatenate((prime_rows, digit_rows(fld, new, width)))
        rows = digit_rows(fld, np.arange(lo, 2 * lo), d + 1)
        usable = primes[: np.searchsorted(primes, o ** (e + 1))]
        step = max(1, CHUNK // len(usable))
        for s in range(0, lo, step):
            mi, pi = np.nonzero(usable <= least[s : s + step, None])  # m takes every prime P <= spf[m]
            mi += s
            prod = row_codes(fld, product_rows(fld, prime_rows[pi, : e + 1], rows[mi]))
            spf[prod], cof[prod] = usable[pi], mi + lo
    return spf, cof


def sieve_stats(fld: FieldDesc, table, maxdeg: int):
    """Yield (d, first, omega, d(a), sigma_1(a), mnum, mden) for runs of
    consecutive monic a of one degree d, d = 1, ..., maxdeg, in code order:
    the arrays are indexed by code(a) - first, and a run has at most
    CHUNK codes.

    d(a) counts the monic divisors of a, sigma_1(a) sums their |.|, and
    mnum/mden = prod_{P | a} |P| / (|P| - 1), the Mertens product.  Every
    statistic is read from (spf, cof) of an spf_table to degree >= maxdeg
    and from those of lower degree, one degree at a time.  Let P = spf(a),
    m = cof(a) = a / P and R(a) = a / P^E, where P^E || a.  Then P divides m
    exactly when spf(m) = P (E >= 2), and then R(a) = R(m), otherwise
    R(a) = m.  The statistics are multiplicative, so
        omega(a) = omega(m) + [P does not divide m],
        d(a) = d(m) + d(R(a)),
        sigma_1(a) = |P| sigma_1(m) + sigma_1(R(a)),
    and the Mertens product of a is that of m, times |P| / (|P| - 1) when
    P does not divide m; so the exponent E itself is never needed.  Only
    the codes below order^maxdeg are read back, and they are kept in the
    least dtypes that hold d(a) <= 2^deg a, sigma_1(a) <= 2^omega(a) |a| and
    mden < mnum <= |a|.
    """
    spf, cof = table
    q, o = fld.q, fld.order
    n = o**maxdeg
    rest = np.zeros(n, dtype=np.int32)  # code of R(a)
    omega = np.zeros(n, dtype=np.int8)
    dcount = np.zeros(n, dtype=_signed_to(2**maxdeg))
    sigma1 = np.zeros(n, dtype=_signed_to((2 * q) ** maxdeg))
    mnum = np.zeros(n, dtype=_signed_to(q**maxdeg))
    mden = np.zeros(n, dtype=mnum.dtype)
    dcount[1] = sigma1[1] = mnum[1] = mden[1] = 1  # the polynomial 1
    powers = o ** np.arange(1, maxdeg + 1)
    for d in range(1, maxdeg + 1):
        for first in range(o**d, 2 * o**d, CHUNK):
            run = slice(first, min(first + CHUNK, 2 * o**d))
            P, m = spf[run], cof[run]
            degP = np.searchsorted(powers, P, side="right")
            norm = q**degP
            new = spf[m] != P  # spf(1) = 0 is no prime
            r = np.where(new, m, rest[m])
            stats = (
                omega[m] + new,
                dcount[m] + dcount[r],
                norm * sigma1[m] + sigma1[r],
                mnum[m] * np.where(new, norm, 1),
                mden[m] * np.where(new, norm - 1, 1),
            )
            if d < maxdeg:
                rest[run] = r
                omega[run], dcount[run], sigma1[run], mnum[run], mden[run] = stats
            yield (d, first, *stats)


def factor_with_spf(code: int, table) -> list:
    """Factor the monic polynomial with this code by walking an spf_table.

    Returns [(prime code, exponent), ...] in increasing code order; the walk
    follows the cofactors down to 1 and divides nothing.
    """
    spf, cof = table
    items = []
    last, e = 0, 0
    while code != 1:
        P = int(spf[code])
        if not P:
            raise BadInputError(f"code {code} is not a monic polynomial of the table")
        code = int(cof[code])
        if P == last:
            e += 1
        else:
            if e:
                items.append((last, e))
            last, e = P, 1
    if e:
        items.append((last, e))
    return items


def residue_table(a: Poly, n: int) -> np.ndarray:
    """code(c mod a) for every code c < n, as an int64 array indexed by c.

    The codes run through `reduce_rows` as coefficient rows, in blocks of
    CHUNK codes.  A constant a sends every c to 0; a = 0 raises
    ZeroDivisionError, as c % 0 does.
    """
    fld = a.field
    width = 0  # the digits of the codes below n
    while fld.order**width < n:
        width += 1
    out = np.empty(n, dtype=np.int64)
    for s in range(0, n, CHUNK):
        rows = digit_rows(fld, np.arange(s, min(n, s + CHUNK)), width)
        out[s : s + len(rows)] = row_codes(fld, reduce_rows(rows, a))
    return out


# ---------------------------------------------------------------------------
# parsing / formatting


def format_poly(a: Poly) -> str:
    if a.is_zero():
        return "0"
    parts = []
    for i in range(len(a.coeffs) - 1, -1, -1):
        c = a.coeffs[i]
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            head = "" if c == 1 else f"{c}*"
            parts.append(f"{head}T" if i == 1 else f"{head}T^{i}")
    return "+".join(parts)


def parse_poly(fld: FieldDesc, text: str) -> Poly:
    """Parse `[c0,c1,...]` or human form like `T^2+2*T+1` (codes as coefficients).

    Raises BadInputError on text in neither form.
    """
    try:
        return _parse_poly(fld, text.strip())
    except ValueError as e:
        raise BadInputError(f"cannot parse polynomial {text!r}") from e


def _parse_poly(fld: FieldDesc, text: str) -> Poly:
    if text.startswith("["):
        inner = text.strip("[]").strip()
        if not inner:
            return zero(fld)
        return Poly(fld, [int(x) % fld.order for x in inner.split(",")])
    text = text.replace(" ", "").replace("-", "+-")
    if not text or text == "0":
        return zero(fld)
    coeffs = {}
    for term in text.split("+"):
        if not term:
            continue
        neg = term.startswith("-")
        if neg:
            term = term[1:]
        if "T" in term:
            head, _, tail = term.partition("T")
            c = int(head.rstrip("*")) if head.rstrip("*") else 1
            e = int(tail[1:]) if tail.startswith("^") else 1
        else:
            c, e = int(term), 0
        c %= fld.order
        if neg:
            c = fld.neg(c)
        coeffs[e] = fld.add(coeffs.get(e, 0), c)
    out = [0] * (max(coeffs) + 1)
    for e, c in coeffs.items():
        out[e] = c
    return Poly(fld, out)
