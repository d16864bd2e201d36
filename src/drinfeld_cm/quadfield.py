"""Imaginary quadratic extensions K/k and their orders, in all three flavors.

Flavors: `odd` (K = k(sqrt(D)), q odd), `even_sep` (Hasse normal form
xi^2 + xi = B/C, q even), `even_insep` (K = F_q(sqrt(T)), q even).  Elements
are pairs x + y*xi; exact elements carry rational-function coordinates, and
the analytic embedding produces either a flattened series in F_{q^2}((1/T))
(inert place at infinity) or a quadratic algebra over Laurent coefficients
(ramified place, where no series uniformizer is ever constructed; valuations
come from the norm and live in (1/2)Z).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import BadInputError, InvariantError, PrecisionError
from .ffield import FieldDesc, FFElem, embedding_table, is_square, quadratic_extension
from .laurent import LaurentSeries
from . import polyring as pr
from .polyring import Poly


# ---------------------------------------------------------------------------
# exact rational functions over A


class RatFunc:
    """num/den with den monic and gcd(num, den) = 1."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly):
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if not num.is_zero():
            g = pr.gcd(num, den)
            if g.deg > 0:
                num, den = num // g, den // g
        else:
            den = pr.one(den.field)
        if not den.is_monic():
            inv = den.field.inv(den.sgn)
            num, den = num.scale(inv), den.monic()
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("RatFunc is immutable")

    @staticmethod
    def of(a: Poly) -> "RatFunc":
        return RatFunc(a, pr.one(a.field))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def v_infinity(self):
        """v(num/den) with v(T) = -1; None for 0."""
        if self.num.is_zero():
            return None
        return self.den.deg - self.num.deg

    def __add__(self, other):
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other):
        return RatFunc(self.num * other.den - other.num * self.den, self.den * other.den)

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __mul__(self, other):
        return RatFunc(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __eq__(self, other):
        return isinstance(other, RatFunc) and self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        if self.den.is_one():
            return str(self.num)
        return f"({self.num})/({self.den})"

    def to_series(self, fld: FieldDesc, prec: int) -> LaurentSeries:
        num_s = LaurentSeries.from_poly(self.num, fld)
        if self.den.is_one():
            return num_s  # exact
        den_s = LaurentSeries.from_poly(self.den, fld)
        vd = den_s.valuation()
        num_v = num_s.val_bound()
        den_s = den_s.truncate(prec + max(0, -vd) + max(0, -(num_v if num_v is not None else 0)) + 2)
        return (num_s * den_s.inverse()).truncate(prec)


# ---------------------------------------------------------------------------
# fields


class QuadField:
    """Validated imaginary quadratic extension descriptor."""

    __slots__ = ("flavor", "base", "D", "B", "C", "G", "radG", "D_K", "infinite_type", "is_constant_extension", "_xi")

    def __init__(self, flavor: str, base: FieldDesc, **data):
        object.__setattr__(self, "_xi", {})  # coefficient field -> xi series (see xi_series)
        object.__setattr__(self, "flavor", flavor)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "D", None)
        object.__setattr__(self, "B", None)
        object.__setattr__(self, "C", None)
        object.__setattr__(self, "G", None)
        object.__setattr__(self, "radG", None)
        object.__setattr__(self, "D_K", None)
        object.__setattr__(self, "is_constant_extension", False)
        if flavor == "odd":
            self._init_odd(data["D"])
        elif flavor == "even_sep":
            self._init_even_sep(data["B"], data["C"])
        elif flavor == "even_insep":
            self._init_even_insep()
        else:
            raise BadInputError(f"unknown flavor {flavor!r}")

    def __setattr__(self, *a):
        raise AttributeError("QuadField is immutable")

    def _set(self, name, value):
        object.__setattr__(self, name, value)

    def _init_odd(self, D: Poly):
        base = self.base
        if base.p == 2:
            raise BadInputError("odd flavor requires odd q")
        if base.m != 1:
            raise BadInputError("base must be an F_q descriptor")
        if D.is_zero():
            raise BadInputError("D must be nonzero")
        if pr.is_square_poly(D):
            raise BadInputError("D is a square: k(sqrt(D)) is not a field")
        deg_odd = D.deg % 2 == 1
        sgn_square = is_square(FFElem(base, D.sgn))
        if not deg_odd and sgn_square:
            raise BadInputError("not imaginary: deg D even with square leading coefficient")
        sgn_code, g, d0 = pr.squarefree_split(D)
        self._set("D", D)
        self._set("D_K", d0.scale(sgn_code))
        self._set("infinite_type", "ramified" if deg_odd else "inert")
        self._set("is_constant_extension", d0.deg == 0)

    def _init_even_sep(self, B: Poly, C: Poly):
        base = self.base
        if base.p != 2:
            raise BadInputError("even_sep flavor requires even q")
        if B.is_zero() or C.is_zero():
            raise BadInputError("B and C must be nonzero")
        if not C.is_monic():
            raise BadInputError("Hasse normal form requires C monic")
        if not pr.gcd(B, C).is_one() and not C.is_one():
            raise BadInputError("Hasse normal form requires gcd(B, C) = 1")
        if B.deg < C.deg:
            raise BadInputError("Hasse normal form requires deg B >= deg C")
        _, items = pr.factor(C) if not C.is_one() else (1, ())
        if any(e % 2 == 0 for _, e in items):
            raise BadInputError("Hasse normal form requires all exponents in C odd")
        if B.deg > C.deg:
            if (B.deg - C.deg) % 2 == 0:
                raise BadInputError("ramified normal form requires deg B - deg C odd")
            inf = "ramified"
        else:
            # inert iff X^2 + X + sgn(B) is irreducible over F_q
            if base.trace_to_prime(B.sgn) == 0:
                raise BadInputError("deg B = deg C but X^2+X+sgn(B) is reducible: not a normal form")
            inf = "inert"
        G = pr.one(base)
        radG = pr.one(base)
        for p_, e in items:
            G = G * p_ ** ((e + 1) // 2)
            radG = radG * p_
        if G * G != C * radG:
            raise InvariantError("G^2 != C * rad(G)")  # pragma: no cover
        self._set("B", B)
        self._set("C", C)
        self._set("G", G)
        self._set("radG", radG)
        self._set("D_K", G * G)
        self._set("infinite_type", inf)
        self._set("is_constant_extension", C.is_one() and B.deg == 0)

    def _init_even_insep(self):
        if self.base.p != 2:
            raise BadInputError("even_insep flavor requires even q")
        self._set("infinite_type", "ramified")

    # -- data ------------------------------------------------------------------

    @property
    def q(self) -> int:
        return self.base.q

    def xi_relation(self) -> RatFunc:
        """xi^2 = rel (odd, insep) or xi^2 + xi = rel (even_sep)."""
        if self.flavor == "odd":
            return RatFunc.of(self.D)
        if self.flavor == "even_sep":
            return RatFunc(self.B, self.C)
        return RatFunc.of(pr.T(self.base))

    def v_xi(self) -> Fraction:
        """Valuation of xi in the completion."""
        if self.flavor == "odd":
            return Fraction(-self.D.deg, 2)
        if self.flavor == "even_sep":
            return Fraction(self.C.deg - self.B.deg, 2)
        return Fraction(-1, 2)

    def key(self):
        return (
            self.flavor,
            self.base,
            self.D.coeffs if self.D else None,
            self.B.coeffs if self.B else None,
            self.C.coeffs if self.C else None,
        )

    def __hash__(self):
        return hash(self.key())

    def __eq__(self, other):
        return isinstance(other, QuadField) and self.key() == other.key()

    def to_jsonable(self):
        if self.flavor == "odd":
            return {"flavor": "odd", "D": pr.poly_to_codes(self.D)}
        if self.flavor == "even_sep":
            return {"flavor": "even_sep", "B": pr.poly_to_codes(self.B), "C": pr.poly_to_codes(self.C)}
        return {"flavor": "even_insep"}

    def __repr__(self):
        if self.flavor == "odd":
            return f"QuadField(odd, D={self.D})"
        if self.flavor == "even_sep":
            return f"QuadField(even_sep, B={self.B}, C={self.C}, {self.infinite_type})"
        return "QuadField(even_insep)"


def validate_field(base: FieldDesc, flavor: str, **data) -> QuadField:
    """Spec-facing constructor; checks every invariant of the flavor."""
    return QuadField(flavor, base, **data)


# ---------------------------------------------------------------------------
# orders


@dataclass(frozen=True)
class Order:
    field: QuadField
    f: Poly  # conductor, monic
    D_O: Poly | None  # None for the inseparable flavor

    def disc_deg(self) -> int:
        """log_q |D_O|; for the inseparable flavor the reporting proxy log_q |f^2 T|."""
        if self.field.flavor == "even_insep":
            return 2 * self.f.deg + 1
        return self.D_O.deg

    def is_maximal(self) -> bool:
        return self.f.is_one()

    def to_jsonable(self):
        out = {"field": self.field.to_jsonable(), "f": pr.poly_to_codes(self.f)}
        if self.D_O is not None:
            out["D_O"] = pr.poly_to_codes(self.D_O)
        return out

    def label(self) -> str:
        if self.field.flavor == "odd":
            return f"odd D={self.D_O}"
        if self.field.flavor == "even_sep":
            return f"even_sep B={self.field.B} C={self.field.C} f={self.f}"
        return f"even_insep f={self.f}"


def order_from(field: QuadField, f: Poly) -> Order:
    """The unique order of conductor f in the given field."""
    if not f.is_monic():
        raise BadInputError("conductor must be monic")
    if field.flavor == "odd":
        if field.is_constant_extension and f.is_one():
            raise BadInputError("maximal order of the constant-field extension: its singular modulus is 0")
        return Order(field, f, (f * f * field.D_K))
    if field.flavor == "even_sep":
        if field.is_constant_extension and f.is_one():
            raise BadInputError("maximal order of the constant-field extension: its singular modulus is 0")
        return Order(field, f, f * f * field.D_K)
    return Order(field, f, None)


def order_from_discriminant(base: FieldDesc, D: Poly) -> Order:
    """Odd flavor: the unique order A[sqrt(D)] of discriminant exactly D."""
    field = QuadField("odd", base, D=D)
    if D.deg == 0:
        raise BadInputError("constant discriminant: the order is the constant-field extension ring (j = 0)")
    _, g, _ = pr.squarefree_split(D)
    return Order(field, g, D)


# ---------------------------------------------------------------------------
# exact elements x + y*xi


@dataclass(frozen=True)
class QuadElement:
    field: QuadField
    x: RatFunc
    y: RatFunc

    def _check(self, other):
        if self.field != other.field:
            raise BadInputError("elements of different quadratic fields")

    def __add__(self, other):
        self._check(other)
        return QuadElement(self.field, self.x + other.x, self.y + other.y)

    def __sub__(self, other):
        self._check(other)
        return QuadElement(self.field, self.x - other.x, self.y - other.y)

    def __neg__(self):
        return QuadElement(self.field, -self.x, -self.y)

    def __mul__(self, other):
        self._check(other)
        rel = self.field.xi_relation()
        x1, y1, x2, y2 = self.x, self.y, other.x, other.y
        cross = x1 * y2 + y1 * x2
        if self.field.flavor == "even_sep":
            return QuadElement(self.field, x1 * x2 + y1 * y2 * rel, cross + y1 * y2)
        return QuadElement(self.field, x1 * x2 + y1 * y2 * rel, cross)

    def conj(self) -> "QuadElement":
        """xi -> -xi (odd), xi -> xi + 1 (even_sep), identity (even_insep)."""
        if self.field.flavor == "odd":
            return QuadElement(self.field, self.x, -self.y)
        if self.field.flavor == "even_sep":
            return QuadElement(self.field, self.x + self.y, self.y)
        return self

    def norm(self) -> RatFunc:
        rel = self.field.xi_relation()
        x, y = self.x, self.y
        if self.field.flavor == "odd":
            return x * x - rel * y * y
        if self.field.flavor == "even_sep":
            return x * x + x * y + rel * y * y
        return x * x + rel * y * y

    def v_infinity(self) -> Fraction | None:
        """v(z) = v(N(z))/2; None for 0."""
        n = self.norm()
        if n.is_zero():
            return None
        return Fraction(n.v_infinity(), 2)

    def size_log(self) -> Fraction:
        """log_q |z| = -v(z)."""
        v = self.v_infinity()
        if v is None:
            raise BadInputError("|0| undefined")
        return -v

    def is_zero(self) -> bool:
        return self.x.is_zero() and self.y.is_zero()


# ---------------------------------------------------------------------------
# Laurent-coefficient quadratic algebra (ramified completions, composita)


class QuadSeriesContext:
    """Shared data for QuadSeries arithmetic at a given coefficient field/precision."""

    __slots__ = ("qf", "cdesc", "prec", "rel", "frob_mult", "frob_add", "v_xi")

    def __init__(self, qf: QuadField, cdesc: FieldDesc, prec: int):
        self.qf = qf
        self.cdesc = cdesc
        self.prec = prec
        q = qf.base.q
        rel_rf = qf.xi_relation()
        margin = 2 * max(1, abs(int(qf.v_xi() * 2))) + q + 6
        self.rel = rel_rf.to_series(cdesc, prec + margin)
        self.v_xi = qf.v_xi()
        if qf.flavor == "odd":
            # xi^q = D^((q-1)/2) xi
            self.frob_mult = LaurentSeries.from_poly(qf.D, cdesc) ** ((q - 1) // 2)
            self.frob_add = None
        elif qf.flavor == "even_sep":
            # xi^q = xi + s + s^2 + ... + s^(q/2), s = B/C
            sigma = LaurentSeries.zero(cdesc, self.rel.prec)
            term = self.rel
            r = qf.base.r * qf.base.m
            for _ in range(r):
                sigma = sigma + term
                term = (term * term).truncate(self.rel.prec)
            self.frob_mult = None
            self.frob_add = sigma
        else:
            # xi^q = T^(q/2): the xi-part collapses under Frobenius
            self.frob_mult = LaurentSeries.t_power(cdesc, q // 2)
            self.frob_add = None


class QuadSeries:
    """x + y*xi with truncated Laurent coordinates (used for ramified completions).

    The coordinates are `LaurentSeries` stacks, so a QuadSeries is a stack of
    rows too; a one-row coordinate stands for every row.
    """

    __slots__ = ("ctx", "x", "y")

    def __init__(self, ctx: QuadSeriesContext, x: LaurentSeries, y: LaurentSeries):
        self.ctx = ctx
        self.x = x
        self.y = y

    # -- helpers -----------------------------------------------------------------

    @staticmethod
    def zero(ctx, prec=None):
        z = LaurentSeries.zero(ctx.cdesc, prec)
        return QuadSeries(ctx, z, z)

    @staticmethod
    def one(ctx, prec=None):
        return QuadSeries(ctx, LaurentSeries.one(ctx.cdesc, prec), LaurentSeries.zero(ctx.cdesc, prec))

    @staticmethod
    def from_series(ctx, x: LaurentSeries):
        return QuadSeries(ctx, x, LaurentSeries.zero(ctx.cdesc, None))

    def __add__(self, other):
        return QuadSeries(self.ctx, self.x + other.x, self.y + other.y)

    def __sub__(self, other):
        return QuadSeries(self.ctx, self.x - other.x, self.y - other.y)

    def __neg__(self):
        return QuadSeries(self.ctx, -self.x, -self.y)

    def __mul__(self, other):
        if isinstance(other, LaurentSeries):
            return QuadSeries(self.ctx, self.x * other, self.y * other)
        ctx = self.ctx
        x1, y1, x2, y2 = self.x, self.y, other.x, other.y
        cross = x1 * y2 + y1 * x2
        yy = y1 * y2
        if ctx.qf.flavor == "even_sep":
            return QuadSeries(ctx, x1 * x2 + yy * ctx.rel, cross + yy)
        return QuadSeries(ctx, x1 * x2 + yy * ctx.rel, cross)

    def conj(self) -> "QuadSeries":
        qf = self.ctx.qf
        if qf.flavor == "odd":
            return QuadSeries(self.ctx, self.x, -self.y)
        if qf.flavor == "even_sep":
            return QuadSeries(self.ctx, self.x + self.y, self.y)
        return self

    def norm(self) -> LaurentSeries:
        qf = self.ctx.qf
        x, y = self.x, self.y
        yy = y * y
        if qf.flavor == "odd":
            return x * x - yy * self.ctx.rel
        if qf.flavor == "even_sep":
            return x * x + x * y + yy * self.ctx.rel
        return x * x + yy * self.ctx.rel

    def inverse(self) -> "QuadSeries":
        n = self.norm()
        if n.is_zero_known():
            raise PrecisionError("inversion of a quadratic element indistinguishable from 0")
        inv_n = n.inverse()
        c = self.conj()
        return QuadSeries(self.ctx, c.x * inv_n, c.y * inv_n)

    def frobenius_q(self) -> "QuadSeries":
        ctx = self.ctx
        xq = self.x.frobenius_q()
        yq = self.y.frobenius_q()
        if ctx.qf.flavor == "odd":
            return QuadSeries(ctx, xq, yq * ctx.frob_mult)
        if ctx.qf.flavor == "even_sep":
            return QuadSeries(ctx, xq + yq * ctx.frob_add, yq)
        # inseparable: xi^q lies in the base series field
        return QuadSeries(ctx, xq + yq * ctx.frob_mult, LaurentSeries.zero(ctx.cdesc, None))

    # -- precision / valuation ------------------------------------------------------

    def row_valuations(self) -> list:
        """Exact valuation of each row in (1/2)Z, None where it is not certified.

        v(x) and v(y*xi) lie in disjoint cosets mod Z for the ramified
        flavors, so whenever both parts of a row are visible the minimum is
        exact; a visible part certifies the valuation only if it beats the
        precision bound of the invisible one.
        """
        v_xi = self.ctx.v_xi
        vx = self.x.row_valuations()
        vy = self.y.row_valuations()
        if len(vx) < len(vy):
            vx = vx * len(vy)
        elif len(vy) < len(vx):
            vy = vy * len(vx)
        bound_x = Fraction(self.x.prec) if self.x.prec is not None else None  # None: exactly 0
        bound_y = Fraction(self.y.prec) + v_xi if self.y.prec is not None else None
        out = []
        for a, b in zip(vx, vy):
            cand_x = Fraction(a) if a is not None else None
            cand_y = Fraction(b) + v_xi if b is not None else None
            if cand_x is not None and cand_y is not None:
                out.append(min(cand_x, cand_y))
            elif cand_x is not None and (bound_y is None or cand_x < bound_y):
                out.append(cand_x)
            elif cand_y is not None and (bound_x is None or cand_y < bound_x):
                out.append(cand_y)
            else:
                out.append(None)
        return out

    def valuation(self) -> Fraction | None:
        """The least row valuation, or None when some row's is not certified."""
        vals = self.row_valuations()
        return None if None in vals else min(vals)

    def prec_q(self) -> Fraction | None:
        px = self.x.prec
        py = self.y.prec
        vals = []
        if px is not None:
            vals.append(Fraction(px))
        if py is not None:
            vals.append(Fraction(py) + self.ctx.v_xi)
        return min(vals) if vals else None

    def truncate(self, prec: int) -> "QuadSeries":
        import math

        py = math.ceil(prec - self.ctx.v_xi)
        return QuadSeries(self.ctx, self.x.truncate(prec), self.y.truncate(py))

    def is_zero_known(self) -> bool:
        return self.x.is_zero_known() and self.y.is_zero_known()

    # -- rows ------------------------------------------------------------------------

    @staticmethod
    def stack(items) -> "QuadSeries":
        """The rows of every item (all over one context) as one stack."""
        return QuadSeries(items[0].ctx, LaurentSeries.stack([z.x for z in items]), LaurentSeries.stack([z.y for z in items]))

    def take(self, index) -> "QuadSeries":
        return QuadSeries(self.ctx, self.x.take(index), self.y.take(index))

    def fold(self, k: int) -> "QuadSeries":
        return QuadSeries(self.ctx, self.x.fold(k), self.y.fold(k))

    def lift(self, cdesc: FieldDesc) -> "QuadSeries":
        """The same element with coefficients embedded in the extension `cdesc`."""
        ctx = QuadSeriesContext(self.ctx.qf, cdesc, self.ctx.prec)
        return QuadSeries(ctx, self.x.lift(cdesc), self.y.lift(cdesc))

    def __repr__(self):
        return f"QuadSeries(x: {self.x!r} | y: {self.y!r})"


# ---------------------------------------------------------------------------
# embedding into the completion


@lru_cache(maxsize=None)
def _subfield_decomposition(desc2: FieldDesc):
    """Tables decomposing F_{q^2} codes as a + u*b with a, b in the F_q image."""
    base = None
    from .ffield import field

    base = field(desc2.p, desc2.r, 1)
    emb = embedding_table(base, desc2)
    image = {code: i for i, code in enumerate(emb)}
    u = next(c for c in range(desc2.order) if c not in image)
    # solve c = emb[a] + u*emb[b] for each c by iterating the q^2 pairs once
    table_a = [0] * desc2.order
    table_b = [0] * desc2.order
    for a in range(base.order):
        ea = emb[a]
        for b in range(base.order):
            c = desc2.add(ea, desc2.mul(u, emb[b]))
            table_a[c] = a
            table_b[c] = b
    return base, u, tuple(table_a), tuple(table_b)


def series_component(z: LaurentSeries, which: int) -> LaurentSeries:
    """F_q-components of a series over F_{q^2} w.r.t. a fixed basis {1, u}."""
    desc2 = z.field
    base, _, ta, tb = _subfield_decomposition(desc2)
    table = ta if which == 0 else tb
    codes = [table[z.coeff_code(e)] for e in range(z.n0, z.n0 + z.comps.shape[2])]
    return LaurentSeries.from_codes(base, z.n0, codes, z.prec)


def imag_part_log(z) -> Fraction | None:
    """log_q |z|_i: the distance from z to k_infinity; None when z is in k_infinity."""
    if isinstance(z, LaurentSeries):
        z1 = series_component(z, 1)
        v = z1.valuation()
        return -Fraction(v) if v is not None else None
    vy = z.y.valuation()
    if vy is None:
        return None
    return -(Fraction(vy) + z.ctx.v_xi)


def lattice_dist_log(z, deg_bound: int) -> Fraction:
    """log_q |z|_A = log of the min over a in A (deg a <= deg_bound) of |z - a|."""
    best = None
    fld_poly = _poly_field_of(z)
    for d in range(-1, deg_bound + 1):
        cands = [pr.zero(fld_poly)] if d < 0 else [
            p_.scale(s) for p_ in pr.monic_of_degree(fld_poly, d) for s in range(1, fld_poly.order)
        ]
        for a in cands:
            diff = sub_poly(z, a)
            v = diff.valuation()
            if v is None:
                raise PrecisionError("z - a indistinguishable from 0")
            log = -Fraction(v)
            if best is None or log < best:
                best = log
    return best


def _poly_field_of(z):
    if isinstance(z, LaurentSeries):
        base, _, _, _ = _subfield_decomposition(z.field)
        return base
    return z.ctx.qf.base


def sub_poly(z, a: Poly):
    """z - a for a polynomial a over F_q."""
    if isinstance(z, LaurentSeries):
        return z - LaurentSeries.from_poly(a, z.field)
    return QuadSeries(z.ctx, z.x - LaurentSeries.from_poly(a, z.ctx.cdesc), z.y)


def xi_series(qf: QuadField, desc2: FieldDesc, prec: int) -> LaurentSeries:
    """The canonical flattening of xi in F_{q^2}((1/T)) (inert flavors only).

    The field owns the series: it keeps one per coefficient field, at the
    highest precision asked for so far, and hands each caller a truncation.
    Every digit below the precision is exactly known, so the truncation
    equals the series computed afresh at the lower precision.
    """
    if qf.infinite_type != "inert":
        raise BadInputError("xi flattens to a series only when infinity is inert")
    held = qf._xi.get(desc2)
    if held is None or held.prec < prec:
        rel = qf.xi_relation().to_series(desc2, prec + 2).truncate(prec + 2)
        root = rel.sqrt() if qf.flavor == "odd" else rel.artin_schreier_root()
        held = qf._xi[desc2] = root.truncate(prec)
    return held.truncate(prec)


def embed(z: QuadElement, prec: int, coeff_desc: FieldDesc | None = None):
    """Analytic embedding of an exact element at absolute precision `prec`.

    Inert flavor: returns the flattened LaurentSeries over F_{q^2}.
    Ramified flavors: returns a QuadSeries over F_q (or `coeff_desc`).
    z = (x' + y' xi)/A over the least common denominator A of its
    coordinates, and 1/A is expanded once for both.
    """
    import math

    qf = z.field
    base = qf.base
    inert = qf.infinite_type == "inert"
    cdesc = coeff_desc or (quadratic_extension(base) if inert else base)
    if inert:
        slack = max(0, -(z.x.v_infinity() or 0), -(z.y.v_infinity() or 0) + int(-qf.v_xi() + 1)) + 4
    else:
        slack = int(math.ceil(-qf.v_xi())) + 4
    A, xn, yn = z.x.den, z.x.num, z.y.num
    if z.y.den != A:
        A = A * (z.y.den // pr.gcd(A, z.y.den))
        xn, yn = xn * (A // z.x.den), yn * (A // z.y.den)
    xs, ys = LaurentSeries.from_poly(xn, cdesc), LaurentSeries.from_poly(yn, cdesc)
    if not A.is_one():
        # 1/A to absolute precision at least prec + slack + deg of either numerator
        keep = prec + slack + max(0, xn.deg, yn.deg) + A.deg + 2
        inv_a = LaurentSeries.from_poly(A, cdesc).truncate(keep).inverse()
        xs, ys = xs * inv_a, ys * inv_a
    if inert:
        xi = xi_series(qf, cdesc, prec + slack)
        return (xs + ys * xi).truncate(prec)
    ctx = QuadSeriesContext(qf, cdesc, prec + slack)
    return QuadSeries(ctx, xs, ys).truncate(prec)
