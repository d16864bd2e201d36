"""The easycounting bound, height bounds, and the certificates.

Height bounds are evaluated as certified rational intervals: everything
transcendental (ln 2, ln q, sqrt q) is enclosed with directed rounding, so an
asserted inequality can only pass when it holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from . import certlog
from .certlog import Interval
from .brownval import OrderCM, moduli_of, ramified_nonunit_certificate, weil_height
from .errors import BadInputError, InvariantError
from .ffield import FieldDesc, quadratic_extension
from .modforms import hilbert_constant_degree, hilbert_poly, unit_check
from . import polyring as pr
from .polyring import Poly
from .quadfield import Order, flat_part, product, restrict_to_base
from .sweeps import iter_orders, modulus_records, order_report

HIT_GUARD = 12  # fractional digits of a pair's product that must be known before it counts as a hit


# ---------------------------------------------------------------------------
# easycounting


def easycounting_bound_check(m: Poly, b0: Poly, M_log: Fraction) -> bool:
    """|{b = b0 mod m, |b| < q^M_log}| <= max(1, q^(1 + M_log)/|m|), exhaustively."""
    q = m.field.q
    count = 0
    # enumerate b of degree < ceil(M_log) in the class of b0
    bound_deg = int(math.ceil(M_log))
    r = b0 % m
    for t in pr.all_of_degree_less(m.field, max(0, bound_deg - m.deg) + 1):
        b = r + m * t
        if b.is_zero() or b.deg < M_log:
            count += 1
    rhs = max(Fraction(1), Fraction(q) ** (1 + M_log) / q**m.deg)
    return count <= rhs


# ---------------------------------------------------------------------------
# height bounds


def _interval_pow_q(q: int, expo: Interval) -> Interval:
    """q^I for an interval exponent, outward-rounded."""
    return Interval(certlog.exp_q(expo.lo, q).lo, certlog.exp_q(expo.hi, q).hi)


def upper_bound_h(order: Order, eps: Fraction) -> dict:
    """The conditional upper bounds for h(j) when j is a unit (inert case).

    Returns certified intervals; callers must treat them as hypotheses-laden
    (valid only under the unit assumption) - they are never asserted alone.
    """
    field = order.field
    if field.infinite_type != "inert":
        raise BadInputError("upper bound stated for the inert case")
    d = order.disc_deg()
    q = field.base.q
    if d < 4:
        raise BadInputError("requires |D| >= q^4")
    if not (0 < eps <= 1):
        raise BadInputError("0 < eps <= 1 required")
    h = len(moduli_of(order))
    sqrt_D = Fraction(q) ** (d // 2)
    loglog = certlog.log_q(Fraction(d, 2), q)  # log_q log_q sqrt|D|
    expo = Interval.point(Fraction(15 * d, 2)) / loglog
    d_power = _interval_pow_q(q, expo)
    eps_term = Interval.point(Fraction(q + 1)) * certlog.log_q(1 / eps, q) if eps != 1 else Interval.point(0)
    main = Interval.point(Fraction(3 * q * (q + 1), 4) * eps * Fraction(sqrt_D, h) * d * d) * d_power
    eps_bound = eps_term + main
    cor = Interval.point(Fraction(q + 1)) * certlog.log_q(Fraction(sqrt_D, h), q) + Interval.point(
        Fraction(10 * (q + 1) * d)
    ) / loglog
    return {"eps": eps, "eps_bound": eps_bound, "cor_bound": cor, "conditional": True}


def lower_bounds_h(order: Order) -> dict:
    """The two unconditional lower bounds (and the easy one), as safe intervals.

    The class count is certified (`moduli_of`) on every call; the bounds are
    held on the order's OrderCM once computed.
    """
    h = len(moduli_of(order))
    cm = OrderCM.of(order)
    if cm.height_bounds is None:
        cm.height_bounds = _lower_bounds_h(order, h)
    return cm.height_bounds


def _lower_bounds_h(order: Order, h: int) -> dict:
    field = order.field
    q = field.base.q
    d = order.disc_deg()
    # easy: |D|^(1/2)/h(O), meaningful for |D| >= q
    sqrt_D = certlog.exp_q(Fraction(d, 2), q)
    easy = sqrt_D / h if d >= 1 else None
    out = {"easy": easy, "h": h}
    ln_q = certlog.ln(q)
    ln_2 = certlog.ln(2)
    cor = Interval.point(Fraction(d, 120)) * ln_2 - Interval.point(3) * ln_q - 8
    out["cor"] = cor
    if field.flavor == "even_insep":
        out["wei"] = None  # separable hypothesis fails; |f^2 T| is only a size proxy
        return out
    deg_dk = field.D_K.deg
    deg_f = order.f.deg
    sq = certlog.sqrt(q)
    term1 = Interval.point(Fraction(deg_dk, 10)) * (Fraction(1, 2) - 1 / (sq + 1)) * ln_q
    term2 = (Interval.point(Fraction(7 * q - 5, 4 * q - 4)) + 8 / ln_q) * ln_q * Fraction(1, 5)
    term3 = Interval.point(Fraction(deg_f, 10))
    if deg_f >= 1:
        loglogf = certlog.log_q(max(1, deg_f), q)
    else:
        loglogf = Interval.point(0)
    term4 = Interval.point(Fraction(4 * q * q, 5 * (q - 1) ** 2)) * loglogf
    out["wei"] = term1 - term2 + term3 - term4
    return out


# ---------------------------------------------------------------------------
# the final certificate


@dataclass
class CertificateReport:
    q: int
    bound_loglog: Interval
    case2_logD: Interval
    case4_logD: Interval
    checks: list = dc_field(default_factory=list)
    notes: list = dc_field(default_factory=list)

    def ok(self) -> bool:
        return all(c["holds"] for c in self.checks if c.get("required", True))

    def to_jsonable(self):
        return {
            "q": self.q,
            "bound_loglog": {
                "lo": str(self.bound_loglog.lo),
                "hi": str(self.bound_loglog.hi),
                "decimal": self.bound_loglog.decimal(6),
            },
            "case2_logD": self.case2_logD.decimal(6),
            "case4_logD": self.case4_logD.decimal(6),
            "checks": self.checks,
            "notes": self.notes,
        }


def final_certificate(q: int) -> CertificateReport:
    """The discriminant-bound constants and the auxiliary facts behind them."""
    if q < 2:
        raise BadInputError("q >= 2 required")
    ln2 = certlog.ln(2)
    lnq = certlog.ln(q)
    bound = Interval.point(2400 * (q + 1)) / ln2
    x0 = Interval.point(240 * (q + 1)) / (ln2 * lnq)
    case2 = x0 * x0
    case4 = Interval.point(1200 * (q + 1) ** 2) / ln2 + (Interval.point(3) * lnq + 8) * Interval.point(120) / ln2
    rep = CertificateReport(q, bound, case2, case4)

    def log_q_iv(x: Interval) -> Interval:
        return Interval(certlog.ln(x.lo).lo, certlog.ln(x.hi).hi) / lnq

    # g(x) = x - (240(q+1)/ln2) log_q((ln2/120) x) - (720 ln q + 1920)/ln2
    c1 = Interval.point(240 * (q + 1)) / ln2
    c2 = (Interval.point(720) * lnq + 1920) / ln2

    def g_of(x: Interval) -> Interval:
        return x - c1 * log_q_iv(x * ln2 / 120) - c2

    # increasing on [x0, oo): g'(x) = 1 - c1/(x ln q) >= 0 iff x >= c1/lnq = x0
    for mult in (Fraction(3, 2), 2, 10):
        deriv = Interval.point(1) - c1 / (x0 * mult * lnq)
        rep.checks.append(
            {
                "name": f"g_increasing_at_{mult}x0",
                "holds": deriv.certainly_ge(0),
                "value": deriv.decimal(6),
            }
        )
    gN2 = g_of(x0 * x0)
    rep.checks.append({"name": "g(N^2)>=0_at_N=x0", "holds": gN2.certainly_ge(0), "value": gN2.decimal(4)})
    # f(x) = x/2 - N log_q x - (3/2) ln q - 4 with N = q + 1: f(10 N^2) >= 0
    N = q + 1
    f10 = Interval.point(Fraction(10 * N * N, 2)) - N * log_q_iv(Interval.point(10 * N * N)) - Interval.point(
        Fraction(3, 2)
    ) * lnq - 4
    rep.checks.append({"name": "f(10N^2)>=0_at_N=q+1", "holds": f10.certainly_ge(0), "value": f10.decimal(4)})
    # the x - 2 log_q x >= x/3 inequality, sampled on x >= 5
    ineg_rows = []
    all_hold = True
    for x in (5, 6, 8, 10, 12, 16, 20, 40):
        lhs = Interval.point(x) - 2 * log_q_iv(Interval.point(x))
        holds = lhs.certainly_ge(Fraction(x, 3))
        fails = lhs.certainly_le(Fraction(x, 3))
        if not holds and not fails:
            raise InvariantError("interval too wide to decide the sampled inequality")  # pragma: no cover
        ineg_rows.append({"x": x, "holds": holds})
        all_hold = all_hold and holds
    rep.checks.append({"name": "ineg_sampled", "holds": all_hold, "rows": ineg_rows, "required": False})
    if not all_hold:
        rep.notes.append(
            "x - 2 log_q x >= x/3 fails for small x when q = 2 (it holds only from x ~ 9.7); "
            "the desk-scale divisor-count sweeps verify the final constant 15 independently."
        )
    # the four case ceilings: the loglog bound must dominate the implied ceilings
    for name, logd in (("case2", case2), ("case4", case4)):
        implied = log_q_iv(logd / 2)
        rep.checks.append(
            {
                "name": f"{name}_implied_loglog_dominated",
                "holds": bound.certainly_ge(implied),
                "implied": implied.decimal(6),
            }
        )
    return rep


# ---------------------------------------------------------------------------
# searches (driven by the sweep machinery)


def andre_oort_search(base: FieldDesc, d_bound: int, deg_bound: int) -> dict:
    """All pairs of singular moduli with |D| <= d_bound whose product rounds to
    a polynomial of degree <= deg_bound.

    Pair filtering is by exact valuations; only candidates are evaluated
    numerically.  A nonzero known digit certifies a non-hit exactly; skipped
    pairs (genuinely biquadratic ramified-ramified products) are reported,
    never dropped silently, after their valuation already excludes a hit.
    """
    q = base.q
    # the exact classes give every record, hence every precision, before any
    # j is evaluated; the moduli are certified (order_report) only after the
    # values are held, so the numeric cross-check reads them
    orders = list(iter_orders(base, d_bound))
    records = [rec for order in orders for rec in modulus_records(order, OrderCM.of(order).exact_moduli())]
    hits = []
    skipped = []
    pairs_checked = 0

    by_log: dict = {}
    for rec in records:
        by_log.setdefault(rec.modulus.log_j, []).append(rec)
    logs = sorted(by_log)

    def candidates():
        """(r1, r2, total, biquadratic, prec1, prec2) for every pair whose
        product valuation total could be a polynomial degree."""
        for i1, lg1 in enumerate(logs):
            for lg2 in logs[i1:]:
                total = lg1 + lg2
                if total < 0 or total > deg_bound:
                    continue
                if total != int(total):
                    continue  # half-integer product valuation: never a polynomial
                for r1 in by_log[lg1]:
                    for r2 in by_log[lg2]:
                        if lg1 == lg2 and r1.key > r2.key:
                            continue
                        biquadratic = (
                            r1.order.field.infinite_type == "ramified"
                            and r2.order.field.infinite_type == "ramified"
                            and r1.order.field != r2.order.field
                        )
                        prec1 = int(HIT_GUARD + max(0, lg2)) + 2
                        prec2 = int(HIT_GUARD + max(0, lg1)) + 2
                        yield r1, r2, total, biquadratic, prec1, prec2

    # each record's value is read once, through its OrderCM at the highest
    # precision its pairs need, over F_{q^2}, the value field of the inert
    # orders (a ramified value is the F_q value with its coefficients
    # embedded); every known digit is exact, so a truncation equals a fresh
    # evaluation.  The search keeps what it read: its pairs cycle through
    # more orders than the store may hold values for.
    need: dict = {}
    for r1, r2, _, biquadratic, prec1, prec2 in candidates():
        if not biquadratic:
            need[r1.key] = max(need.get(r1.key, 0), prec1)
            need[r2.key] = max(need.get(r2.key, 0), prec2)
    desc2 = quadratic_extension(base)
    asks: dict = {}  # (order label, precision) -> records
    for rec in records:
        if rec.key in need:
            asks.setdefault((rec.key[1], need[rec.key]), []).append(rec)
    values = {}
    for (_, prec), recs in asks.items():
        order = recs[0].order
        for rec, jv in zip(recs, OrderCM.of(order).j_values([r.modulus.points[0] for r in recs], prec, desc2)):
            values[rec.key] = jv.value
    for order in orders:
        order_report(order, check_brown=False)

    for r1, r2, total, biquadratic, prec1, prec2 in candidates():
        if biquadratic:
            skipped.append(
                {
                    "pair": [r1.label, r2.label],
                    "reason": "biquadratic ramified-ramified product",
                    "degree_if_polynomial": str(total),
                }
            )
            continue
        pairs_checked += 1
        flat = flat_part(product(values[r1.key].truncate(prec1), values[r2.key].truncate(prec2)))
        if flat is None:
            continue  # nonzero xi-part: certified non-hit
        poly, tail = flat.polynomial_part()
        if tail is not None:
            continue  # nonzero fractional digit: certified non-hit
        poly = restrict_to_base(poly, base)
        if poly is None:
            continue  # a coefficient outside F_q: gamma is not in A, a certified non-hit
        if flat.prec is not None and flat.prec < HIT_GUARD:
            skipped.append(
                {"pair": [r1.label, r2.label], "reason": f"precision {flat.prec} below guard {HIT_GUARD}"}
            )
            continue
        if poly.deg != total:
            raise InvariantError("hit degree differs from the valuation sum")  # pragma: no cover
        hits.append(
            {
                "pair": [r1.label, r2.label],
                "degree": int(poly.deg),
                "gamma": pr.format_poly(poly),
                "residual_zero_digits": None if flat.prec is None else int(flat.prec),
            }
        )
    hits.sort(key=lambda h: (h["degree"], h["gamma"]))
    return {
        "q": q,
        "d_bound": d_bound,
        "deg_bound": deg_bound,
        "moduli": len(records),
        "pairs_checked": pairs_checked,
        "hits": hits,
        "skipped": skipped,
        "min_hit_degree": min((h["degree"] for h in hits), default=None),
    }


def unit_search(base: FieldDesc, d_bound: int) -> dict:
    """Unit exclusion over every order with |D| <= d_bound.

    Ramified separable orders get the valuation certificate; inert and
    inseparable orders get the class-polynomial constant-term route (fully
    assembled up to |D| = q^4, by verified constant-term degree beyond).
    The laclef consistency check runs on inert orders >= q^4.
    """
    q = base.q
    rows = []
    units_found = 0
    for order in iter_orders(base, d_bound):
        flavor = order.field.flavor
        inert = order.field.infinite_type == "inert"
        row = {"order": order.label(), "disc_deg": order.disc_deg(), "flavor": flavor}
        if not inert and flavor != "even_insep":
            cert = ramified_nonunit_certificate(order)
            row.update(route="ramified-certificate", norm_degree=cert["norm_degree"], unit=False)
        else:
            if order.disc_deg() <= 4:
                H = hilbert_poly(order)
                verdict, deg = unit_check(H)
                row.update(route="hilbert-assembled", norm_degree=str(deg), unit=verdict == "unit", m=H.m)
            else:
                deg = hilbert_constant_degree(order)
                row.update(route="hilbert-constant-degree", norm_degree=str(deg), unit=deg == 0)
        if row["unit"]:
            units_found += 1  # pragma: no cover - the sweep finds none
        if inert and order.disc_deg() >= 4:
            h = weil_height(moduli_of(order))
            ub = upper_bound_h(order, Fraction(1, q))
            consistent = (not row["unit"]) or Fraction(h) > ub["cor_bound"].hi
            row["laclef_consistent"] = bool(consistent)
            row["height"] = str(h)
            row["cor_upper_if_unit"] = ub["cor_bound"].decimal(4)
        rows.append(row)
    rows.sort(key=lambda r: (r["disc_deg"], r["order"]))
    return {
        "q": q,
        "d_bound": d_bound,
        "orders": len(rows),
        "units_found": units_found,
        "laclef_all_consistent": all(r.get("laclef_consistent", True) for r in rows),
        "rows": rows,
    }
