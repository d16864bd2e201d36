"""Class numbers by three independent routes.

Route 1 (orbit): the number of distinct singular moduli of the order, i.e. of
exact conjugate classes of its reduced CM points (see `brownval`).
Route 2 (conductor): h(O) = h(O_K) |f| / [O_K^x : O^x] * prod_{P | f} (1 - chi(P)/|P|).
Route 3 (L-function, inert separable maximal orders): the character sum
Lambda(chi, t) = sum_{deg a <= 2g+1} chi(a) t^(deg a) = (1 + t) L_K(t), with
h_K = q^(g+1) Lambda(1/q)/(q+1) and h(O_K) = 2 h_K because infinity is inert.
The field holds these L-data (`l_data`), so route 2 and route 3 read one
computation per field.

All three must agree; the CLI treats disagreement as a hard error.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import BadInputError, InvariantError
from . import polyring as pr
from .quadfield import Order, QuadField, order_from
from .sweeps import order_report


@dataclass
class LPolyData:
    field: QuadField
    g_K: int
    lam: list  # integer coefficients of Lambda(chi, t), low to high
    h_K: int
    h_OK: int

    def functional_equation_residual(self) -> list:
        """Coefficients of L(t) - q^g t^(2g) L(1/(qt)); all must be 0."""
        L = _divide_by_one_plus_t(self.lam)
        g = self.g_K
        q = self.field.base.q
        out = []
        for j in range(2 * g + 1):
            lhs = Fraction(L[j])
            rhs = Fraction(L[2 * g - j], q ** (g - j)) if g - j >= 0 else Fraction(L[2 * g - j]) * q ** (j - g)
            out.append(lhs - rhs)
        return out


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


def class_number_by_orbit(order: Order, expected: int | None = None) -> int:
    """The number of exact conjugate classes."""
    from .brownval import moduli_of

    return len(moduli_of(order, expected=expected))


def maximal_class_number(field: QuadField) -> int:
    """h(O_K): the L-route when inert separable, the orbit route when ramified."""
    if field.is_constant_extension:
        return 1
    if field.flavor == "even_insep":
        # F_q[sqrt(T)] is a polynomial ring; cross-checked by the orbit route in tests
        return 1
    if field.infinite_type == "inert":
        return l_data(field).h_OK
    return class_number_by_orbit(order_from(field, pr.one(field.base)))


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
    """Whether `l_route` gives h(O): O maximal in an inert separable field
    other than the constant extension."""
    k = order.field
    return k.infinite_type == "inert" and k.flavor != "even_insep" and not k.is_constant_extension and order.is_maximal()


def l_data(field: QuadField) -> LPolyData:
    """The field's L-data: `l_route` runs once per field, which holds the result
    for the conductor route and the reports alike."""
    return field.held("l_data", lambda: l_route(field))


def l_route(field: QuadField) -> LPolyData:
    """Lambda(chi, t), h_K and h(O_K) for an inert separable extension.

    Requires the constant field of K to be F_q (deg D_K >= 1); the case
    K = F_{q^2}(T) has h(O_K) = 1 and is handled by the callers.
    """
    if field.infinite_type != "inert":
        raise BadInputError("the L-route is implemented for the inert case only")
    if field.flavor == "even_insep":
        raise BadInputError("the L-route needs a separable extension")
    if field.is_constant_extension:
        raise BadInputError("K = F_{q^2}(T): h(O_K) = 1 by the special case")
    q = field.base.q
    deg_dk = field.D_K.deg
    if deg_dk % 2:
        raise InvariantError("inert discriminant with odd degree")  # pragma: no cover
    g = deg_dk // 2 - 1
    base = field.base
    o = base.order
    # chi on every monic of degree <= 2g + 1, by poly code: pr.chi at each
    # prime, and chi(P m) = chi(P) chi(m) through the sieve's smallest factor
    spf, cof = pr.spf_table(base, 2 * g + 1)
    chi = [0] * len(spf)
    chi[1] = 1
    for c in range(o, len(chi)):
        chi[c] = pr.chi(pr.code_poly(base, c), field) if spf[c] == c else chi[spf[c]] * chi[cof[c]]
    lam = [sum(chi[o**k : 2 * o**k]) for k in range(2 * g + 2)]
    if lam[-1] == 0:
        raise InvariantError("deg Lambda < 2g + 1")  # pragma: no cover
    for k, c in enumerate(lam):
        if abs(c) > q**k:
            raise InvariantError("Lambda coefficient exceeds the monic count")  # pragma: no cover
    h_K = Fraction(q ** (g + 1)) * sum(Fraction(c, q**k) for k, c in enumerate(lam)) / (q + 1)
    if h_K.denominator != 1 or h_K <= 0:
        raise InvariantError(f"h_K = {h_K} is not a positive integer")
    data = LPolyData(field, g, lam, int(h_K), 2 * int(h_K))
    if sum(lam) != 2 * data.h_K:
        raise InvariantError("Lambda(1) != 2 h_K")
    if any(r != 0 for r in data.functional_equation_residual()):
        raise InvariantError("functional equation residual nonzero")
    return data


def class_number(order: Order) -> int:
    """Agreed class number: orbit and conductor routes (and the L-route when inert
    separable and maximal) must coincide."""
    from .brownval import OrderCM

    # moduli_of raises InvariantError when the orbit count differs from `expected`
    return class_number_by_orbit(order, expected=OrderCM.of(order).class_number_by_conductor())


def check_class_bound(order: Order) -> dict:
    """h(O) <= 37/(2(q+1)) sqrt|D| (log_q|D|)^2 for inert orders with |D| > 1.

    h is read from the order's held `sweeps.order_report`.
    """
    field = order.field
    if field.infinite_type != "inert":
        raise BadInputError("the class bound is stated for the inert case")
    d = order.disc_deg()
    if d < 1:
        raise BadInputError("need |D_O| > 1")
    q = field.base.q
    h = order_report(order, check_brown=False).h_orbit  # certified against the conductor formula
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
    return report
