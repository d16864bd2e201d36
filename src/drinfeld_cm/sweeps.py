"""Order enumeration and shared per-order reports for the desk-scale sweeps.

One `order_report` bundles everything the verification suites need from an
order: its points, the Brown check of every point's numeric j-valuation
against the exact formula, the distinct moduli (exact conjugate classes,
cross-checked by the j-values the Brown check already computed, and
counted against the conductor route by `brownval.moduli_of`), the class
numbers and the height.  The report is kept on the order's
process-wide `brownval.OrderCM.of(order)`, so the product search, the unit
sweep and the lemma suites all reuse one pass; it stays when the store drops
the entry's j-values (at most `brownval.VALUE_CAP` entries hold them, least
recently used dropped first).  A report built with the Brown check answers
both kinds of request; one built without it is rebuilt, checked, from the
values the entry still holds, when a checked report is asked for.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .brownval import BROWN_DIGITS, OrderCM, brown_prec, log_abs_j, moduli_of, weil_height
from .classno import l_data, l_route_applies
from .errors import BadInputError
from .ffield import FieldDesc, is_square
from . import polyring as pr
from .quadfield import Order, order_from, order_from_discriminant, validate_field

RAMIFIED_DEGB_WINDOW = 1  # ramified Hasse forms have unbounded deg B at fixed |D|


def _log_q(n: int, q: int) -> int:
    out = 0
    while q**out < n:
        out += 1
    return out if q**out == n else out - 1


def iter_odd_orders(base: FieldDesc, d_bound: int):
    """All odd-flavor orders with |D| <= d_bound, D canonical up to unit squares.

    sgn(D) is normalised to 1 or the least non-square; squares and
    non-imaginary D are skipped, as is the maximal order of F_{q^2}(T).
    """
    q = base.q
    maxdeg = _log_q(d_bound, q)
    nonsquare = next(c for c in range(2, base.order) if not is_square(base, c))
    for d in range(1, maxdeg + 1):
        sgns = [1, nonsquare] if d % 2 == 1 else [nonsquare]
        for monic in pr.monic_of_degree(base, d):
            for s in sgns:
                D = monic.scale(s)
                try:
                    yield order_from_discriminant(base, D)
                except BadInputError:
                    continue


def iter_even_sep_orders(base: FieldDesc, d_bound: int):
    """Even separable orders with |f^2 G^2| <= d_bound.

    Inert forms (deg B = deg C) are a finite family; ramified forms have
    unbounded deg B at fixed discriminant, so the sweep takes
    deg B <= deg C + RAMIFIED_DEGB_WINDOW (documented sweep window).
    """
    q = base.q
    half = _log_q(d_bound, q) // 2
    for dg in range(0, half + 1):
        for G in pr.monic_of_degree(base, dg):
            if dg > 0:
                _, items = pr.factor(G)
                C = pr.one(base)
                for P, e in items:
                    C = C * P ** (2 * e - 1)
            else:
                C = pr.one(base)
            if C.deg > 2 * dg:  # pragma: no cover - C = G^2/rad(G) has degree <= 2 dg
                continue
            degBs = [C.deg] + [C.deg + k for k in range(1, RAMIFIED_DEGB_WINDOW + 1, 2)]
            for degB in degBs:
                for Bm in pr.monic_of_degree(base, degB):
                    for s in range(1, base.order):
                        B = Bm.scale(s)
                        try:
                            k = validate_field(base, "even_sep", B=B, C=C)
                        except BadInputError:
                            continue
                        for df in range(0, half - dg + 1):
                            for f in pr.monic_of_degree(base, df):
                                try:
                                    yield order_from(k, f)
                                except BadInputError:
                                    continue


def iter_insep_orders(base: FieldDesc, d_bound: int):
    """Inseparable orders with the size proxy |f^2 T| <= d_bound."""
    q = base.q
    k = validate_field(base, "even_insep")
    maxdf = (_log_q(d_bound, q) - 1) // 2
    for df in range(0, maxdf + 1):
        for f in pr.monic_of_degree(base, df):
            yield order_from(k, f)


def iter_orders(base: FieldDesc, d_bound: int):
    if base.p == 2:
        yield from iter_even_sep_orders(base, d_bound)
        yield from iter_insep_orders(base, d_bound)
    else:
        yield from iter_odd_orders(base, d_bound)


@dataclass
class OrderReport:
    order: Order
    points: list
    moduli: list
    h_orbit: int
    h_conductor: int
    h_lroute: int | None
    height: Fraction
    brown_checked: bool

    @property
    def logs(self):
        return [m.log_j for m in self.moduli]


def order_report(order: Order, *, check_brown: bool = True) -> OrderReport:
    """Points, moduli, class numbers and height of one order (held on its OrderCM).

    With check_brown=True j is evaluated at every point, and the evaluator
    asserts that every row's numeric valuation equals the exact formula (the
    build's central cross-validation); the values it computes then serve
    the numeric cross-check of the moduli, which `moduli_of` certifies
    against the conductor count.  h_lroute is the L-route's h(O_K), which for
    these orders is the conductor count itself.
    A held checked report also answers an unchecked request.
    """
    cm = OrderCM.of(order)
    if cm.report is not None and (cm.report.brown_checked or not check_brown):
        return cm.report
    if check_brown:
        need = brown_prec
        if cm.moduli is None:
            # moduli_of's cross-check separates classes of equal valuation by
            # the values of their first points: ask for those now, at twice
            # BROWN_DIGITS, so that the one evaluation serves it as well
            logs = Counter(log_abs_j(cls[0]) for cls in cm.classes())
            firsts = {(c[0].a, c[0].b) for c in cm.classes() if logs[log_abs_j(c[0])] > 1}

            def need(pt):
                return brown_prec(pt) + (BROWN_DIGITS if (pt.a, pt.b) in firsts else 0)

        cm.j_values(cm.points, need)
    mods = moduli_of(order)
    h = len(mods)  # the conductor count, which moduli_of checked
    h_l = l_data(order.field).h_OK if l_route_applies(order) else None
    cm.report = OrderReport(order, cm.points, mods, h, h, h_l, weil_height(mods), check_brown)
    return cm.report


@dataclass
class ModulusRecord:
    order: Order
    modulus: object  # SingularModulus
    key: tuple
    label: str


def modulus_records(order: Order, moduli: list) -> list:
    """One ModulusRecord per singular modulus of the order, in the given order."""
    return [
        ModulusRecord(order, m, (order.disc_deg(), order.label(), idx), f"{order.label()}#{idx} (log|j|={m.log_j})")
        for idx, m in enumerate(moduli)
    ]
