"""Class numbers by two routes, and the class-number bound.

Route 1 (conductor): h(O) = h(O_K) |f| / [O_K^x : O^x] * prod_{P | f} (1 - chi(P)/|P|).
Route 2 (L-function, every separable field but F_{q^2}(T)): the character sum
Lambda(chi, t) = sum_{deg a <= top} chi(a) t^(deg a) over the monic a.  With
2g = deg D_K - 2 + d_inf, where d_inf is the different exponent at infinity
(0 inert, 1 for odd q ramified, deg B - deg C + 1 for even q ramified):
- infinity inert: top = 2g + 1, Lambda = (1 + t) L_K(t), and h(O_K) = 2 h_K;
- infinity ramified: top = 2g, Lambda = L_K(t), and h(O_K) = h_K;
with h_K = L_K(1) (Rosen, Number Theory in Function Fields, ch. 14 and 17).
The field of K holds these L-data (`l_data`; an odd field reads them from
the field of its D_K), and route 1 reads h(O_K) from them, so h(O_K) never
rests on the singular moduli.  The printed `l_route` of an
inert maximal order is therefore the conductor route itself.

The count of exact conjugate classes (the orbit route) is checked against
route 1 in one place, `brownval.moduli_of`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import BadInputError, InvariantError
from . import polyring as pr
from .quadfield import Order, QuadField, validate_field


@dataclass
class LPolyData:
    field: QuadField
    g_K: int
    lam: list  # integer coefficients of Lambda(chi, t), low to high
    L: list  # integer coefficients of L_K(t), low to high
    h_K: int
    h_OK: int

    def functional_equation_residual(self) -> list:
        """Coefficients of L(t) - q^g t^(2g) L(1/(qt)); all must be 0."""
        g, L = self.g_K, self.L
        q = Fraction(self.field.base.q)
        return [L[j] - L[2 * g - j] * q ** (j - g) for j in range(2 * g + 1)]


def _divide_by_one_plus_t(lam: list) -> list:
    """Exact division of Lambda by (1 + t); Lambda(-1) = 0 is asserted."""
    # synthetic division from the top coefficient down
    acc = []
    cur = 0
    for c in reversed(lam):
        cur = c - cur
        acc.append(cur)
    if acc[-1] != 0:
        raise InvariantError("Lambda(chi, -1) != 0: (1+t) does not divide Lambda")
    return list(reversed(acc[:-1]))


def maximal_class_number(field: QuadField) -> int:
    """h(O_K): 1 for F_{q^2}(T) and for F_q(sqrt(T)), whose rings of integers
    are polynomial rings, and the L-route for every other field."""
    if field.is_constant_extension or field.flavor == "even_insep":
        return 1
    return l_data(field).h_OK


def unit_index(order: Order) -> int:
    """[O_K^x : O^x]: q + 1 for non-maximal orders of the constant-field extension."""
    if order.field.is_constant_extension and not order.f.is_one():
        return order.field.base.q + 1
    return 1


def class_number_by_conductor(order: Order) -> int:
    """The conductor formula; the exact rational must be a positive integer."""
    field = order.field
    q = field.base.q
    h_K = maximal_class_number(field)
    val = Fraction(h_K * q**order.f.deg, unit_index(order))
    if not order.f.is_one():
        _, items = pr.factor(order.f)
        for P, _e in items:
            c = pr.chi(P, field)
            val *= 1 - Fraction(c, q**P.deg)
    if val.denominator != 1 or val <= 0:
        raise InvariantError(f"conductor formula gave a non-integer {val}")
    return int(val)


def l_route_applies(order: Order) -> bool:
    """Whether the reports print the L-route: O maximal in an inert separable
    field other than the constant extension (`l_route` itself covers the
    ramified fields too, which the printed reports leave out)."""
    k = order.field
    return k.infinite_type == "inert" and k.flavor != "even_insep" and not k.is_constant_extension and order.is_maximal()


def l_data(field: QuadField) -> LPolyData:
    """The L-data of the field K: `l_route` runs once per K, and the field
    holds the result for the conductor route and the reports alike.  An odd
    field k(sqrt(f^2 D_K)) reads the data held on k(sqrt(D_K)), the one
    canonical field of K."""
    if field.flavor == "odd" and field.D != field.D_K:
        field = validate_field(field.base, "odd", D=field.D_K)
    return field.held("l_data", l_route, field)


def l_route(field: QuadField) -> LPolyData:
    """Lambda(chi, t), L_K, h_K and h(O_K) for a separable extension.

    Requires the constant field of K to be F_q (K != F_{q^2}(T)); that case
    has h(O_K) = 1 and is handled by the callers.
    """
    if field.flavor == "even_insep":
        raise BadInputError("the L-route needs a separable extension")
    if field.is_constant_extension:
        raise BadInputError("K = F_{q^2}(T): h(O_K) = 1 by the special case")
    q = field.base.q
    inert = field.infinite_type == "inert"
    d_inf = 0 if inert else 1 if field.flavor == "odd" else field.B.deg - field.C.deg + 1  # different exponent at infinity
    two_g = field.D_K.deg - 2 + d_inf
    if two_g % 2 or two_g < 0:
        raise InvariantError(f"2g = {two_g} is not an even genus count")
    g = two_g // 2
    top = 2 * g + 1 if inert else 2 * g
    base = field.base
    o = base.order
    # chi on every monic of degree <= top, by poly code: pr.chi at each
    # prime, and chi(P m) = chi(P) chi(m) through the sieve's smallest factor;
    # the base holds each sieve, as one costs more than the sum it serves
    spf, cof = base.held(("sieve", top), lambda: tuple(tuple(t.tolist()) for t in pr.spf_table(base, top)))
    chi = [0] * len(spf)
    chi[1] = 1
    for c in range(o, len(chi)):
        chi[c] = pr.chi(pr.code_poly(base, c), field) if spf[c] == c else chi[spf[c]] * chi[cof[c]]
    lam = [sum(chi[o**k : 2 * o**k]) for k in range(top + 1)]
    L = _divide_by_one_plus_t(lam) if inert else lam
    h_K = sum(L)
    if h_K <= 0:
        raise InvariantError(f"h_K = {h_K} is not positive")
    if inert and q ** (g + 1) * sum(Fraction(c, q**k) for k, c in enumerate(lam)) != (q + 1) * h_K:
        raise InvariantError("q^(g+1) Lambda(1/q) != (q + 1) h_K")
    data = LPolyData(field, g, lam, L, h_K, 2 * h_K if inert else h_K)
    if any(r != 0 for r in data.functional_equation_residual()):
        raise InvariantError("functional equation residual nonzero")
    return data


def check_class_bound(order: Order, h: int) -> dict:
    """h = h(O) <= 37/(2(q+1)) sqrt|D| (log_q|D|)^2 for inert orders with |D| > 1,
    and h(O_K) <= 2/(q+1) q^(deg D_K/2) deg D_K for the maximal order when
    D_K is not constant; InvariantError when either fails."""
    field = order.field
    if field.infinite_type != "inert":
        raise BadInputError("the class bound is stated for the inert case")
    d = order.disc_deg()
    if d < 1:
        raise BadInputError("need |D_O| > 1")
    q = field.base.q
    bound = Fraction(37, 2 * (q + 1)) * q ** (d // 2) * d * d
    if 2 * (d // 2) != d:
        raise InvariantError("inert discriminant with odd degree")  # pragma: no cover
    report = {
        "order": order.label(),
        "h": h,
        "bound": str(bound),
        "holds": h <= bound,
    }
    if not field.is_constant_extension and field.D_K.deg >= 1:
        dk = field.D_K.deg
        hk = maximal_class_number(field)
        sub = Fraction(2, q + 1) * q ** (dk // 2) * dk
        report["maximal_bound_holds"] = hk <= sub
    if not report["holds"]:
        raise InvariantError(f"class bound fails for {order.label()}")  # pragma: no cover
    if not report.get("maximal_bound_holds", True):
        raise InvariantError(f"class bound h(O_K) <= 2/(q+1) q^(deg D_K/2) deg D_K fails for {order.label()}")
    return report
