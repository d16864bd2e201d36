"""Imaginary quadratic extensions K/k and their orders, in all three flavors.

Flavors: `odd` (K = k(sqrt(D)), q odd), `even_sep` (Hasse normal form
xi^2 + xi = B/C, q even), `even_insep` (K = F_q(sqrt(T)), q even).  An exact
element is (x + y xi)/den for three polynomials, den monic and the fraction
not necessarily reduced (`QuadElement`); the field's own data t and omega
are reduced rational functions (`RatFunc`).  Exact elements are embedded,
not multiplied: all arithmetic happens on series.

Every flavor is one relation

    xi^2 = s xi + t,    xi^q = alpha + beta xi,

with s = 1 for even_sep and 0 otherwise, t = D, B/C or T, and (alpha, beta)
= (0, D^((q-1)/2)), (t + t^2 + ... + t^(q/2), 1) or (T^(q/2), 0).
Conjugation is xi -> s - xi and the norm is x^2 + s x y - t y^2, so
products, conjugates, norms and Frobenius of series are one formula each;
the valuation of an exact element reads the same norm on polynomials.

This module is the one place that picks the value type and the coefficient
field (`value_field`) of the analytic embedding: a flattened series over
F_{q^2} when infinity is inert, a `QuadSeries` over F_q when it ramifies (no
series uniformizer is ever constructed; valuations come from the norm and
live in (1/2)Z).  Other modules work on embedded values through `zero_like`,
`one_like` and `round_to_A`, without asking which type they hold.

`validate_field` gives one QuadField per (base, flavor, data), held by the
base, and that field holds what depends on K alone (`QuadField.held`): its
xi series, its series contexts and its L-data (`classno.l_data`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import BadInputError, InvariantError, PrecisionError
from .ffield import FieldDesc, Holder, embedding_table, is_square, quadratic_extension
from .laurent import LaurentSeries
from . import polyring as pr
from .polyring import Poly


# ---------------------------------------------------------------------------
# exact rational functions over A


class RatFunc:
    """num/den with gcd(num, den) = 1, built from a monic den (every program
    path passes one; any other is an InvariantError)."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly):
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if not den.is_monic():
            raise InvariantError("rational function with a non-monic denominator")
        if not num.is_zero():
            g = pr.gcd(num, den)
            if g.deg > 0:
                num, den = num // g, den // g
        else:
            den = pr.one(den.field)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("RatFunc is immutable")

    @staticmethod
    def of(a: Poly) -> "RatFunc":
        return RatFunc(a, pr.one(a.field))

    def v_infinity(self):
        """v(num/den) with v(T) = -1; None for 0."""
        if self.num.is_zero():
            return None
        return self.den.deg - self.num.deg

    def __mul__(self, other):
        return RatFunc(self.num * other.num, self.den * other.den)

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


class QuadField(Holder):
    """Validated imaginary quadratic extension descriptor, with the data it
    holds (`held`); `validate_field` gives the canonical instance.

    xi satisfies xi^2 = s xi + t (the attributes `s` and `t`), and omega xi
    generates the maximal order, O_K = A[omega xi], for the rational function
    `omega`: 1/g (odd, D = sgn g^2 D_0), G (even_sep) or 1 (even_insep).
    """

    __slots__ = (
        "flavor", "base", "D", "B", "C", "G", "radG", "D_K", "infinite_type", "is_constant_extension",
        "s", "t", "omega", "_held",
    )

    def __init__(self, flavor: str, base: FieldDesc, D: Poly | None, B: Poly | None, C: Poly | None):
        for name in ("D", "B", "C", "G", "radG", "D_K"):
            self._set(name, None)
        self._set("_held", {})  # key -> derived data (see held)
        self._set("flavor", flavor)
        self._set("s", 1 if flavor == "even_sep" else 0)  # xi^2 = s xi + t
        self._set("base", base)
        self._set("is_constant_extension", False)
        if flavor == "odd":
            self._init_odd(D)
        elif flavor == "even_sep":
            self._init_even_sep(B, C)
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
        sgn_square = is_square(base, D.sgn)
        if not deg_odd and sgn_square:
            raise BadInputError("not imaginary: deg D even with square leading coefficient")
        sgn_code, g, d0 = pr.squarefree_split(D)
        self._set("D", D)
        self._set("D_K", d0.scale(sgn_code))
        self._set("t", RatFunc.of(D))
        self._set("omega", RatFunc(pr.one(base), g))  # sqrt(D_K) = xi/g
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
        self._set("t", RatFunc(B, C))
        self._set("omega", RatFunc.of(G))
        self._set("infinite_type", inf)
        self._set("is_constant_extension", C.is_one() and B.deg == 0)

    def _init_even_insep(self):
        if self.base.p != 2:
            raise BadInputError("even_insep flavor requires even q")
        self._set("t", RatFunc.of(pr.T(self.base)))
        self._set("omega", RatFunc.of(pr.one(self.base)))
        self._set("infinite_type", "ramified")

    # -- data ------------------------------------------------------------------

    @property
    def q(self) -> int:
        return self.base.q

    def v_xi(self) -> Fraction:
        """Valuation of xi in the completion: v(t)/2 (when v(t) = 0, even_sep inert, v(xi) = 0 too)."""
        return Fraction(self.t.v_infinity(), 2)

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
            return {"flavor": "odd", "D": list(self.D.coeffs)}
        if self.flavor == "even_sep":
            return {"flavor": "even_sep", "B": list(self.B.coeffs), "C": list(self.C.coeffs)}
        return {"flavor": "even_insep"}

    def __repr__(self):
        if self.flavor == "odd":
            return f"QuadField(odd, D={self.D})"
        if self.flavor == "even_sep":
            return f"QuadField(even_sep, B={self.B}, C={self.C}, {self.infinite_type})"
        return "QuadField(even_insep)"


def validate_field(
    base: FieldDesc, flavor: str, *, D: Poly | None = None, B: Poly | None = None, C: Poly | None = None
) -> QuadField:
    """The one QuadField of (flavor, D, B, C) over base, which holds it, built
    on first use; the constructor checks every invariant of the flavor."""
    return base.held(("quadratic", flavor, D, B, C), QuadField, flavor, base, D, B, C)


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
        out = {"field": self.field.to_jsonable(), "f": list(self.f.coeffs)}
        if self.D_O is not None:
            out["D_O"] = list(self.D_O.coeffs)
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
    if field.flavor == "even_insep":
        return Order(field, f, None)
    if field.is_constant_extension and f.is_one():
        raise BadInputError("maximal order of the constant-field extension: its singular modulus is 0")
    return Order(field, f, f * f * field.D_K)


def order_from_discriminant(base: FieldDesc, D: Poly) -> Order:
    """Odd flavor: the unique order A[sqrt(D)] of discriminant exactly D."""
    field = validate_field(base, "odd", D=D)
    if D.deg == 0:
        raise BadInputError("constant discriminant: the order is the constant-field extension ring (j = 0)")
    return Order(field, field.omega.den, D)  # conductor g, for D = sgn g^2 D_0


# ---------------------------------------------------------------------------
# exact elements x + y*xi


@dataclass(frozen=True)
class QuadElement:
    """The exact element (x + y xi)/den of a field, for polynomials x, y and
    den.  den is monic (a non-monic one is normalised: x, y and den are
    divided by its leading coefficient) but shares factors with x and y
    freely: nothing takes a gcd.  The element is only ever embedded
    (`embed`) or has its valuation read (`v_infinity`); it has no
    arithmetic of its own.
    """

    field: QuadField
    x: Poly
    y: Poly
    den: Poly

    def __post_init__(self):
        den = self.den
        if den.is_zero():
            raise ZeroDivisionError("quadratic element with zero denominator")
        if not den.is_monic():
            inv = den.field.inv(den.sgn)
            object.__setattr__(self, "x", self.x.scale(inv))
            object.__setattr__(self, "y", self.y.scale(inv))
            object.__setattr__(self, "den", den.monic())

    def v_infinity(self) -> Fraction | None:
        """v(z) = v(N(z))/2; None for 0.

        With t = t_num/t_den, N(z) = (t_den (x^2 + s x y) - t_num y^2) /
        (t_den den^2), so the valuation needs the degrees of polynomials only.
        """
        k = self.field
        x, y = self.x, self.y
        n = k.t.den * _mac(x * x, x, y if k.s else 0) - k.t.num * y * y
        if n.is_zero():
            return None
        return Fraction(k.t.den.deg + 2 * self.den.deg - n.deg, 2)


# ---------------------------------------------------------------------------
# Laurent-coefficient quadratic algebra (ramified completions, composita)


def _mac(acc, a, c):
    """acc + a * c for a coefficient c that is a value or one of the integers
    0 and 1; an integer costs no product (and 0 no sum)."""
    if isinstance(c, int):
        return acc + a if c else acc
    return acc + a * c


def _times(a: LaurentSeries, c) -> LaurentSeries:
    """a * c for a coefficient c that is a series or one of the integers 0 and 1."""
    if isinstance(c, int):
        return a if c else LaurentSeries.zero(a.field)
    return a * c


def _square(x: LaurentSeries) -> LaurentSeries:
    """x * x; in characteristic 2 the Frobenius image x^2, no product, cut to
    the precision prec + v the product has."""
    if x.field.p != 2 or x.is_zero_known():
        return x * x
    sq = x.frobenius_p()
    return sq if x.prec is None else sq.truncate(x.prec + x.n0)


class QuadSeriesContext:
    """The relation xi^2 = s xi + t, xi^q = alpha + beta xi over one
    coefficient field, with t to a fixed precision.

    s, alpha and beta are the integer 0 or 1 where they are constants, so the
    arithmetic of `QuadSeries` makes no series product for them.
    """

    __slots__ = ("qf", "cdesc", "prec", "s", "t", "alpha", "beta", "v_xi")

    def __init__(self, qf: QuadField, cdesc: FieldDesc, prec: int):
        self.qf = qf
        self.cdesc = cdesc
        self.prec = prec
        q = qf.base.q
        margin = 2 * max(1, abs(int(qf.v_xi() * 2))) + q + 6
        self.s = qf.s
        self.t = qf.t.to_series(cdesc, prec + margin)
        self.v_xi = qf.v_xi()
        if qf.flavor == "odd":
            # xi^q = D^((q-1)/2) xi
            self.alpha, self.beta = 0, LaurentSeries.from_poly(qf.D, cdesc) ** ((q - 1) // 2)
        elif qf.flavor == "even_sep":
            # xi^q = xi + t + t^2 + ... + t^(q/2)
            sigma = LaurentSeries.zero(cdesc, self.t.prec)
            term = self.t
            for _ in range(qf.base.r * qf.base.m):
                sigma = sigma + term
                term = _square(term).truncate(self.t.prec)
            self.alpha, self.beta = sigma, 1
        else:
            # xi^q = T^(q/2): the xi-part collapses under Frobenius
            self.alpha, self.beta = LaurentSeries.t_power(cdesc, q // 2), 0


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

    # -- arithmetic --------------------------------------------------------------

    def __add__(self, other):
        return QuadSeries(self.ctx, self.x + other.x, self.y + other.y)

    def __sub__(self, other):
        return QuadSeries(self.ctx, self.x - other.x, self.y - other.y)

    def __neg__(self):
        return QuadSeries(self.ctx, -self.x, -self.y)

    def __mul__(self, other):
        """The product with a QuadSeries, or with a flat series (a value of the base)."""
        if isinstance(other, LaurentSeries):
            return QuadSeries(self.ctx, self.x * other, self.y * other)
        ctx = self.ctx
        x1, y1, x2, y2 = self.x, self.y, other.x, other.y
        yy = y1 * y2
        return QuadSeries(ctx, x1 * x2 + yy * ctx.t, _mac(x1 * y2 + y1 * x2, yy, ctx.s))

    def conj(self) -> "QuadSeries":
        """xi -> s - xi."""
        return QuadSeries(self.ctx, _mac(self.x, self.y, self.ctx.s), -self.y)

    def norm(self) -> LaurentSeries:
        """x^2 + s x y - t y^2."""
        x, y = self.x, self.y
        return _mac(_square(x), x, y if self.ctx.s else 0) - _square(y) * self.ctx.t

    def inverse(self) -> "QuadSeries":
        n = self.norm()
        if n.is_zero_known():
            raise PrecisionError("inversion of a quadratic element indistinguishable from 0")
        inv_n = n.inverse()
        c = self.conj()
        return QuadSeries(self.ctx, c.x * inv_n, c.y * inv_n)

    def frobenius_q(self) -> "QuadSeries":
        """(x + y xi)^q = x^q + alpha y^q + beta y^q xi."""
        ctx = self.ctx
        xq = self.x.frobenius_q()
        yq = self.y.frobenius_q()
        return QuadSeries(ctx, _mac(xq, yq, ctx.alpha), _times(yq, ctx.beta))

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

    @property
    def prec(self) -> Fraction | None:
        """The least precision of x and y xi; None when both are exact."""
        px = self.x.prec
        py = self.y.prec
        vals = []
        if px is not None:
            vals.append(Fraction(px))
        if py is not None:
            vals.append(Fraction(py) + self.ctx.v_xi)
        return min(vals) if vals else None

    def truncate(self, prec: int) -> "QuadSeries":
        py = math.ceil(prec - self.ctx.v_xi)
        return QuadSeries(self.ctx, self.x.truncate(prec), self.y.truncate(py))

    def is_zero_known(self) -> bool:
        return self.x.is_zero_known() and self.y.is_zero_known()

    # -- rows ------------------------------------------------------------------------

    def take(self, index) -> "QuadSeries":
        return QuadSeries(self.ctx, self.x.take(index), self.y.take(index))

    def spread(self, rows: int, index, shifts) -> "QuadSeries":
        return QuadSeries(self.ctx, self.x.spread(rows, index, shifts), self.y.spread(rows, index, shifts))

    def mul_t_power(self, k: int) -> "QuadSeries":
        return QuadSeries(self.ctx, self.x.mul_t_power(k), self.y.mul_t_power(k))

    def __repr__(self):
        return f"QuadSeries(x: {self.x!r} | y: {self.y!r})"


# ---------------------------------------------------------------------------
# embedding into the completion


def xi_series(qf: QuadField, desc2: FieldDesc, prec: int) -> LaurentSeries:
    """The canonical flattening of xi in F_{q^2}((1/T)) (inert flavors only).

    The field owns the series: it keeps one per coefficient field and hands
    each caller a truncation.  A request beyond the held precision takes the
    root afresh at no less than twice that precision, so a rising sequence
    of requests takes O(log) roots.  Every digit below the precision is
    exactly known, so the truncation equals the series computed afresh at
    the lower precision.
    """
    if qf.infinite_type != "inert":
        raise BadInputError("xi flattens to a series only when infinity is inert")
    key = ("xi", desc2)
    held = qf._held.get(key)
    if held is None or held.prec < prec:
        work = prec if held is None else max(prec, 2 * held.prec)
        t = qf.t.to_series(desc2, work + 2).truncate(work + 2)
        root = t.artin_schreier_root() if qf.s else t.sqrt()  # xi^2 = s xi + t
        held = qf._held[key] = root.truncate(work)
    return held.truncate(prec)


def value_field(qf: QuadField) -> FieldDesc:
    """The coefficient field of embedded values: F_{q^2} when infinity is
    inert (flat series), F_q when it ramifies (QuadSeries)."""
    return quadratic_extension(qf.base) if qf.infinite_type == "inert" else qf.base


def _minus_v(num: Poly, den: Poly) -> int:
    """-v(num/den), and 0 for num = 0."""
    return 0 if num.is_zero() else num.deg - den.deg


def _divided_out(z: QuadElement) -> QuadElement:
    """z with den 1 when den divides x and y; z itself when den is a power of T
    (its unit part is 1 already) or does not divide both."""
    den = z.den
    if sum(1 for c in den.coeffs if c) == 1 or any(0 <= p.deg < den.deg for p in (z.x, z.y)):
        return z
    qx, rx = divmod(z.x, den)
    if not rx.is_zero():
        return z
    qy, ry = divmod(z.y, den)
    return QuadElement(z.field, qx, qy, pr.one(den.field)) if ry.is_zero() else z


def embed(zs: list, prec: int, offsets: list | None = None):
    """Analytic embedding of exact elements of one field, as one stack, at
    absolute precision `prec`: row r is zs[r] times T^offsets[r] (its
    exponents lowered by offsets[r], none by default), and a one-element
    list gives that element's one-row value.

    Inert flavor: a flattened LaurentSeries; ramified flavors: a QuadSeries;
    the coefficients lie in `value_field`.  Each z is read
    as it is held, (x + y xi)/den, or as (x/den + (y/den) xi)/1 when den
    divides x and y: the unit parts den/T^deg den of all rows are inverted by
    one `inverse` call, made only when some unit part is not 1, and the
    numerators, shifted by T^(offset - deg den), are multiplied by them as
    one stacked product.  Every digit is exact, so each row equals the
    element embedded alone and shifted.
    """
    qf = zs[0].field
    zs = [_divided_out(z) for z in zs]
    offsets = offsets or [0] * len(zs)
    inert = qf.infinite_type == "inert"
    cdesc = value_field(qf)
    slack = 4 if inert else int(math.ceil(-qf.v_xi())) + 4
    lift = 0  # the most any numerator row exceeds its denominator in degree
    for z, k in zip(zs, offsets):
        if inert:
            slack = max(slack, _minus_v(z.x, z.den) + k + 4, _minus_v(z.y, z.den) + k + int(-qf.v_xi() + 1) + 4)
        lift = max(lift, z.x.deg - z.den.deg + k, z.y.deg - z.den.deg + k)
    shifts = [z.den.deg - k for z, k in zip(zs, offsets)]
    xs = LaurentSeries.from_polys([z.x for z in zs], cdesc, shifts)
    ys = LaurentSeries.from_polys([z.y for z in zs], cdesc, shifts)
    units = LaurentSeries.from_polys([z.den for z in zs], cdesc, [z.den.deg for z in zs])  # den/T^deg den: valuation 0
    if units.comps.shape[2] > 1:  # some unit part is not 1 (den is not a power of T)
        inv_a = units.truncate(prec + slack + lift + 2).inverse()
        xs, ys = xs * inv_a, ys * inv_a
    if inert:
        xi = xi_series(qf, cdesc, prec + slack)
        return (xs + ys * xi).truncate(prec)
    ctx = qf.held(("series_context", cdesc, prec + slack), QuadSeriesContext, qf, cdesc, prec + slack)
    return QuadSeries(ctx, xs, ys).truncate(prec)


# ---------------------------------------------------------------------------
# embedded values of either type


def zero_like(z, prec=None):
    """The zero of z's kind (its type, coefficient field and relation)."""
    if isinstance(z, LaurentSeries):
        return LaurentSeries.zero(z.field, prec)
    zero = LaurentSeries.zero(z.ctx.cdesc, prec)
    return QuadSeries(z.ctx, zero, zero)


def one_like(z):
    """The exact one of z's kind."""
    if isinstance(z, LaurentSeries):
        return LaurentSeries.one(z.field)
    return QuadSeries(z.ctx, LaurentSeries.one(z.ctx.cdesc), LaurentSeries.zero(z.ctx.cdesc))


def _round_flat(s: LaurentSeries, base: FieldDesc):
    """(the polynomial over `base` = F_q that s equals, s.prec), its F_{q^2}
    codes mapped back through `embedding_table`; InvariantError when s is not in A."""
    poly, tail = s.polynomial_part()
    if tail is not None:
        raise InvariantError(f"coefficient has a nonzero digit at exponent {tail}: not in A")
    if poly.field.m == 1:
        return poly, s.prec
    back = {c: i for i, c in enumerate(embedding_table(base, poly.field))}
    if any(c not in back for c in poly.coeffs):
        raise InvariantError("coefficient not Galois-stable: F_{q^2}-part is nonzero")
    return Poly(base, [back[c] for c in poly.coeffs]), s.prec


def round_to_A(z, base: FieldDesc):
    """(the exact coefficient that z equals, the precision certifying it).

    A flat value or one of a separable field rounds to a Poly over `base`,
    the order's F_q (its xi-part must vanish); a value of the inseparable
    field rounds to the pair (x, y) of Polys, x + y sqrt(T).  The precision
    is None when z is exact; InvariantError when z is not of that form.
    """
    if isinstance(z, LaurentSeries):
        return _round_flat(z, base)
    if z.ctx.qf.flavor == "even_insep":
        px, rx = _round_flat(z.x, base)
        py, ry = _round_flat(z.y, base)
        return (px, py), min(r for r in (rx, ry) if r is not None) if (rx or ry) else None
    if not z.y.is_zero_known():
        raise InvariantError("class polynomial coefficient has a nonzero xi-part")
    return _round_flat(z.x, base)
