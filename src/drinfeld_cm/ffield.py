"""Arithmetic in the coefficient fields F_q and F_{q^2}, q = p^r.

A field is described by (p, r, m) with m in {1, 2}; F_{p^(r*m)} is realised as
F_p[x]/(modulus), where the modulus is the least monic irreducible polynomial
of degree r*m over F_p in poly-code order, i.e. by the base-p value of
(c_0, ..., c_{r*m-1}).  `polyring` over the prime field finds it (and checks a
user-given modulus) with `monic_of_degree` and `is_irreducible`.  The prime
field itself needs no polynomial arithmetic, since every monic of degree 1 is
irreducible, so this module reaches `polyring` only inside functions and the
module-level imports stay acyclic.  Descriptors are therefore reproducible
from (p, r, m) alone, and the chosen modulus is echoed in all output headers.

Elements are integer codes: the base-p digits of the code are the coordinates
of the element in the power basis 1, x, x^2, ...  Zero and one are always the
codes 0 and 1, and every operation (`is_square`, `sqrt` and
`artin_schreier_solve` included) takes a descriptor and codes.  In
characteristic 2, y^2 + y = c has a root exactly when the absolute trace of c
vanishes, and then y = sum_{0<i<s} (c + c^2 + ... + c^(2^(i-1)))
theta^(2^i) is one, for a basis element theta = x^i of trace 1.  Every field
of order up to 256 keeps full addition, subtraction, negation,
multiplication and inversion tables, so each of those operations is one
lookup there.  Larger fields add, subtract and negate digit
by digit in base p and multiply by one schoolbook product of the coordinate
lists, reduced from the top degree down by the monic modulus.

`field` gives one descriptor per (p, r, m, modulus), and that descriptor
owns every datum derived from the coefficient field alone (`held`): the
square-root and embedding tables here, the series layer's matrices, the
flat code tables of `polyring`, and, on a base F_q, its quadratic
extensions (`quadfield.validate_field`), the L-route sieves and the Carlitz
contexts and monic stacks of `modforms`.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import BadInputError, InvariantError

MAX_ORDER = 2**16


def factor_int(n: int) -> list:
    """[(prime, exponent), ...] of an integer n >= 2 by trial division, primes
    increasing; [] for n < 2."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def _least_irreducible(p: int, n: int) -> tuple:
    """The least monic irreducible of degree n over F_p in poly-code order."""
    if n == 1:
        return (0, 1)  # x itself
    from . import polyring as pr

    return next(P.coeffs for P in pr.monic_of_degree(field(p), n) if pr.is_irreducible(P))


# ---------------------------------------------------------------------------


class Holder:
    """An owner of derived data, kept in its dict `_held`."""

    __slots__ = ()

    def held(self, key, build, *args):
        """The data held under `key` (a name, or a tuple led by one), made by
        build(*args) on first use."""
        value = self._held.get(key)
        if value is None:
            value = self._held[key] = build(*args)
        return value


class FieldDesc(Holder):
    """Descriptor of F_{p^(r*m)} with its tower data, its tables and the
    data it holds for other layers (`held`).

    Use :func:`field` to obtain the canonical instance.
    """

    def __init__(self, p: int, r: int, m: int, modulus=None):
        if factor_int(p) != [(p, 1)]:
            raise BadInputError(f"p = {p} is not prime")
        if r < 1 or m not in (1, 2):
            raise BadInputError("need r >= 1 and m in {1, 2}")
        if p ** (r * m) > MAX_ORDER:
            raise BadInputError(f"field order {p**(r*m)} exceeds supported bound {MAX_ORDER}")
        self.p = p
        self.r = r
        self.m = m
        self.s = r * m  # degree over F_p
        self.q = p**r
        self.order = p ** (r * m)
        if modulus is None:
            modulus = _least_irreducible(p, self.s)
        else:
            from . import polyring as pr

            modulus = tuple(int(c) % p for c in modulus)
            if len(modulus) != self.s + 1 or modulus[-1] != 1 or not pr.is_irreducible(pr.Poly(field(p), modulus)):
                raise BadInputError("modulus must be monic irreducible of degree r*m over F_p")
        self.modulus = modulus
        self._add_table = self._sub_table = self._neg_table = self._mul_table = self._inv_table = None
        self._held = {}  # key -> derived data (see held)
        if self.order <= 256:
            self._build_tables()

    # -- encoding ----------------------------------------------------------

    def coords(self, code: int):
        """Base-p digits of a code (length s, low-to-high)."""
        out = []
        for _ in range(self.s):
            code, d = divmod(code, self.p)
            out.append(d)
        return out

    def code(self, coords) -> int:
        v = 0
        for d in reversed(list(coords)):
            v = v * self.p + (d % self.p)
        return v

    # -- construction of tables --------------------------------------------

    def _mul_raw(self, a: int, b: int) -> int:
        """Code of a*b: the schoolbook product of the coordinates, reduced by the monic modulus."""
        s = self.s
        prod = [0] * (2 * s - 1)
        ys = self.coords(b)
        for i, x in enumerate(self.coords(a)):
            if x:
                for j, y in enumerate(ys, i):
                    prod[j] += x * y
        low = self.modulus[:-1]
        for top in range(2 * s - 2, s - 1, -1):  # x^top = -(low part of the modulus) * x^(top - s)
            c = prod[top] % self.p
            if c:
                for j, m in enumerate(low, top - s):
                    prod[j] -= c * m
        return self.code(prod[:s])

    def _digitwise(self, a: int, b: int, sign: int) -> int:
        """Code of a + sign*b, one base-p digit at a time."""
        p = self.p
        if p == 2:
            return a ^ b
        out = 0
        mult = 1
        while a or b:
            a, da = divmod(a, p)
            b, db = divmod(b, p)
            out += ((da + sign * db) % p) * mult
            mult *= p
        return out

    def _build_tables(self):
        n = self.order
        elems = range(n)
        self._add_table = [[self._digitwise(a, b, 1) for b in elems] for a in elems]
        self._sub_table = [[self._digitwise(a, b, -1) for b in elems] for a in elems]
        self._neg_table = [self._digitwise(0, a, -1) for a in elems]
        table = [[0] * n for _ in elems]
        for a in elems:
            for b in range(a, n):
                v = self._mul_raw(a, b)
                table[a][b] = v
                table[b][a] = v
        self._mul_table = table
        inv = [0] * n
        for a in range(1, n):
            inv[a] = self.pow(a, n - 2)
        self._inv_table = inv

    # -- code-level arithmetic ----------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self._add_table is not None:
            return self._add_table[a][b]
        return self._digitwise(a, b, 1)

    def neg(self, a: int) -> int:
        if self._neg_table is not None:
            return self._neg_table[a]
        return self._digitwise(0, a, -1)

    def sub(self, a: int, b: int) -> int:
        if self._sub_table is not None:
            return self._sub_table[a][b]
        return self._digitwise(a, b, -1)

    def mul(self, a: int, b: int) -> int:
        if self._mul_table is not None:
            return self._mul_table[a][b]
        return self._mul_raw(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inversion of 0 in finite field")
        if self._inv_table is not None:
            return self._inv_table[a]
        return self.pow(a, self.order - 2)

    def pow(self, a: int, e: int) -> int:
        e = int(e)
        if e < 0:
            a, e = self.inv(a), -e
        result = 1
        while e:
            if e & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            e >>= 1
        return result

    def frob_q(self, a: int) -> int:
        """x -> x^q, the relative Frobenius over F_q."""
        return self.pow(a, self.q)

    # -- traces --------------------------------------------------------------

    def trace_to_prime(self, a: int) -> int:
        """Absolute trace to F_p, returned as an integer in [0, p)."""
        acc = 0
        x = a
        for _ in range(self.s):
            acc = self.add(acc, x)
            x = self.pow(x, self.p)
        # acc lies in F_p: its code is the value
        return acc

    # -- misc ----------------------------------------------------------------

    def header(self) -> str:
        """Serialized descriptor `p,r,m,[modulus coeffs]` for output headers."""
        return f"{self.p},{self.r},{self.m},[{','.join(str(c) for c in self.modulus)}]"

    def __repr__(self):
        return f"FieldDesc(p={self.p}, r={self.r}, m={self.m})"

    def __hash__(self):
        return hash((self.p, self.r, self.m, self.modulus))

    def __eq__(self, other):
        return (
            isinstance(other, FieldDesc)
            and (self.p, self.r, self.m, self.modulus) == (other.p, other.r, other.m, other.modulus)
        )


def field(p: int, r: int = 1, m: int = 1, modulus=None) -> FieldDesc:
    """The canonical descriptor of F_{p^(r*m)}, the one owner of its held
    data: every spelling of (p, r, m, modulus) gives the same object."""
    return _descriptor(p, r, m, None if modulus is None else tuple(modulus))


@lru_cache(maxsize=None)
def _descriptor(p: int, r: int, m: int, modulus) -> FieldDesc:
    return FieldDesc(p, r, m, modulus)


def quadratic_extension(fq: FieldDesc) -> FieldDesc:
    """The descriptor of F_{q^2} above a given F_q descriptor."""
    if fq.m != 1:
        raise BadInputError("quadratic_extension expects an F_q descriptor (m = 1)")
    return field(fq.p, fq.r, 2)


def embedding_table(src: FieldDesc, dst: FieldDesc):
    """Code table of the canonical embedding F_{p^s} -> F_{p^(2s)}, held by src.

    The generator of src maps to the lexicographically least root of src's
    modulus inside dst; this fixes the embedding deterministically.
    """
    if not (src.p == dst.p and dst.s == 2 * src.s):
        raise BadInputError("embedding supported only into the quadratic extension")
    return src.held(("embedding", dst), _embedding_table, src, dst)


def _embedding_table(src: FieldDesc, dst: FieldDesc) -> tuple:
    root = None
    for cand in range(dst.order):
        acc = 0
        xp = 1
        for c in src.modulus:
            if c:
                acc = dst.add(acc, dst.mul(c, xp))
            xp = dst.mul(xp, cand)
        if acc == 0:
            root = cand
            break
    if root is None:  # pragma: no cover
        raise InvariantError("no root of the subfield modulus found in the extension")
    table = [0] * src.order
    powers = [1]
    for _ in range(src.s - 1):
        powers.append(dst.mul(powers[-1], root))
    for a in range(src.order):
        acc = 0
        for digit, pw in zip(src.coords(a), powers):
            if digit:
                acc = dst.add(acc, dst.mul(digit, pw))
        table[a] = acc
    return tuple(table)


def is_square(desc: FieldDesc, code: int) -> bool:
    """Euler test x^((q^m-1)/2) for odd q; 0 counts as a square."""
    if desc.p == 2:
        raise BadInputError("is_square is defined for odd q only")
    return code == 0 or desc.pow(code, (desc.order - 1) // 2) == 1


def sqrt(desc: FieldDesc, code: int) -> int | None:
    """Canonical square root of an element of the field, or None.

    Canonical choice: the root with the smaller integer code.
    """
    if desc.p == 2:
        return desc.pow(code, desc.order // 2)  # squaring is bijective in char 2
    if not is_square(desc, code):
        return None
    # later (smaller) codes overwrite: canonical = min
    return desc.held("sqrt", lambda: {desc.mul(y, y): y for y in range(desc.order - 1, -1, -1)})[code]


def artin_schreier_solve(desc: FieldDesc, code: int) -> tuple | None:
    """The codes of the roots of y^2 + y = c in the field (p = 2), or None.

    Solvable iff the absolute trace of c to F_2 vanishes (additive Hilbert
    90); then y = sum_{0<i<s} (c + c^2 + ... + c^(2^(i-1))) theta^(2^i) is a
    root for any theta of trace 1, taken here as the first basis element x^i
    of trace 1.  The two roots differ by 1 and are returned as
    (least, least + 1).
    """
    if desc.p != 2:
        raise BadInputError("artin_schreier_solve requires p = 2")
    if desc.trace_to_prime(code) != 0:
        return None
    mul, add = desc.mul, desc.add
    theta = next(b for b in (1 << i for i in range(desc.s)) if desc.trace_to_prime(b))
    root = partial = 0
    c_pow = code  # c^(2^(i-1))
    for _ in range(1, desc.s):
        partial = add(partial, c_pow)
        theta = mul(theta, theta)  # theta^(2^i)
        root = add(root, mul(partial, theta))
        c_pow = mul(c_pow, c_pow)
    other = root ^ 1  # adding 1 flips the constant coordinate
    return min(root, other), max(root, other)
