"""The easycounting bound, height bounds, the certificates and the two searches.

Height bounds are evaluated as certified rational intervals: everything
transcendental (ln 2, ln q, sqrt q) is enclosed with directed rounding, so an
asserted inequality can only pass when it holds.  The product search
(`andre_oort_search`) reads no digit of any j-value: it decides each pair of
singular moduli from the valuations and the certified class polynomials.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

import numpy as np

from . import certlog
from .certlog import Interval
from .brownval import OrderCM, moduli_of, ramified_nonunit_certificate, weil_height
from .errors import BadInputError, InvariantError
from .ffield import FieldDesc
from .modforms import hilbert_constant_degree, hilbert_poly, unit_check
from . import polyring as pr
from .quadfield import Order
from .sweeps import iter_orders, modulus_records, order_report

# ---------------------------------------------------------------------------
# easycounting


def easycounting_counts(base: FieldDesc, deg_m: int, b0_deg: int, M_log: Fraction) -> np.ndarray:
    """counts[i, j] = |{b = b0 + m t, |b| < q^M_log}| for the i-th monic m of
    degree deg_m and the j-th b0 of degree < b0_deg <= deg_m (so b0 is its
    own residue mod m), both in code order, with t of degree
    < max(0, ceil(M_log) - deg m) + 1.

    |b| < q^M_log holds exactly when code(b) < order^max(0, ceil(M_log)),
    which counts b = 0 too.  The products m t are coefficient rows
    (`pr.product_rows`), and b0 enters their low digits through the add
    table; the pairs (m, t) go in blocks of about CHUNK rows per b0.
    """
    o = base.order
    limit = o ** max(0, math.ceil(M_log))
    k = max(0, math.ceil(M_log) - deg_m) + 1
    ms = pr.digit_rows(base, np.arange(o**deg_m, 2 * o**deg_m), deg_m + 1)
    ts = pr.digit_rows(base, np.arange(o**k), k)
    b0s = pr.digit_rows(base, np.arange(o**b0_deg), b0_deg)
    counts = np.empty((len(ms), len(b0s)), dtype=np.int64)
    step = max(1, pr.CHUNK // (len(ts) * len(b0s)))
    for s in range(0, len(ms), step):
        block = ms[s : s + step]
        prod = pr.product_rows(base, np.repeat(block, len(ts), axis=0), np.tile(ts, (len(block), 1)))
        high = pr.row_codes(base, prod[:, b0_deg:]) * o**b0_deg
        codes = pr.row_codes(base, pr.add_codes(base, prod[None, :, :b0_deg], b0s[:, None, :])) + high
        counts[s : s + len(block)] = (codes < limit).reshape(len(b0s), len(block), len(ts)).sum(axis=2).T
    return counts


# ---------------------------------------------------------------------------
# height bounds


def disc_power(base: FieldDesc, d: int) -> tuple:
    """(log_q log_q sqrt|D|, |D|^(15/(2 log_q log_q sqrt|D|))) for |D| = q^d,
    as outward-rounded intervals: the |D|-power of the cardC bound and of
    `upper_bound_h`."""
    q = base.q
    loglog = certlog.ln(Fraction(d, 2)) / ln_int(base, q)
    expo = Interval.point(Fraction(15 * d, 2)) / loglog
    return loglog, Interval(certlog.exp_q(expo.lo, q).lo, certlog.exp_q(expo.hi, q).hi)


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
    ln_q = ln_int(field.base, q)
    loglog, d_power = disc_power(field.base, d)
    eps_term = Interval.point(Fraction(q + 1)) * (certlog.ln(1 / eps) / ln_q) if eps != 1 else Interval.point(0)
    main = Interval.point(Fraction(3 * q * (q + 1), 4) * eps * Fraction(sqrt_D, h) * d * d) * d_power
    eps_bound = eps_term + main
    cor = Interval.point(Fraction(q + 1)) * (certlog.ln(Fraction(sqrt_D, h)) / ln_q) + Interval.point(
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


def field_constants(base: FieldDesc) -> tuple:
    """The enclosures (ln q, ln 2, sqrt q), held by the base field."""
    return base.held("constants", lambda: (ln_int(base, base.q), ln_int(base, 2), certlog.sqrt(base.q)))


def sqrt_disc(base: FieldDesc, d: int) -> Interval:
    """The enclosure of |D|^(1/2) = q^(d/2) for deg D = d, held by the base field."""
    return base.held(("sqrt_disc", d), lambda: certlog.exp_q(Fraction(d, 2), base.q))


def ln_int(base: FieldDesc, n: int) -> Interval:
    """The enclosure of ln n, held by the base field."""
    return base.held(("ln", n), lambda: certlog.ln(n))


def _lower_bounds_h(order: Order, h: int) -> dict:
    field = order.field
    q = field.base.q
    d = order.disc_deg()
    # easy: |D|^(1/2)/h(O), meaningful for |D| >= q
    easy = sqrt_disc(field.base, d) / h if d >= 1 else None
    out = {"easy": easy, "h": h}
    ln_q, ln_2, sq = field_constants(field.base)
    cor = Interval.point(Fraction(d, 120)) * ln_2 - Interval.point(3) * ln_q - 8
    out["cor"] = cor
    if field.flavor == "even_insep":
        out["wei"] = None  # separable hypothesis fails; |f^2 T| is only a size proxy
        return out
    deg_dk = field.D_K.deg
    deg_f = order.f.deg
    term1 = Interval.point(Fraction(deg_dk, 10)) * (Fraction(1, 2) - 1 / (sq + 1)) * ln_q
    term2 = (Interval.point(Fraction(7 * q - 5, 4 * q - 4)) + 8 / ln_q) * ln_q * Fraction(1, 5)
    term3 = Interval.point(Fraction(deg_f, 10))
    loglogf = ln_int(field.base, deg_f) / ln_q if deg_f >= 1 else Interval.point(0)
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


def final_certificate(base: FieldDesc) -> CertificateReport:
    """The discriminant-bound constants for q = |base| and the auxiliary facts behind them."""
    q = base.q
    lnq, ln2, _ = field_constants(base)
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
    """All pairs of singular moduli with |D| <= d_bound whose product is a
    polynomial gamma of degree <= deg_bound, decided exactly from the
    certified moduli (`order_report`) and class polynomials (`hilbert_poly`).

    Work over F = k = F_q(T) for odd q and F = k(sqrt T) for even q.  Each
    H_O is irreducible over F: it is the minimal polynomial of j over K, and
    a separable H_O stays irreducible over the purely inseparable k(sqrt T).
    Let j1 j2 = gamma in A, gamma != 0 (no singular modulus is 0), for roots
    j1 of H1 and j2 of H2.  Then F(j1) = F(j2), so h1 = h2 = h, and the
    degree-h polynomial X^h H2(gamma/X), of leading coefficient H2(0),
    vanishes at j1, so it is H2(0) H1(X).  Conversely that identity maps
    every root j1 of H1 to the root gamma/j1 of H2.  Hence:

    - the valuations of O2 mirror those of O1: they are deg gamma minus those
      of O1, with deg gamma = min log O1 + max log O2 integral in
      [0, deg_bound] (the exact prefilter; only the orders passing it are
      read further);
    - the constant coefficient gives gamma^h = H1(0) H2(0), whose
      sqrt(T)-part must vanish: gamma = c prod P^(e/h) over its factors P^e,
      for each c in F_q^x with c^h its leading coefficient; the coefficients
      of X^h (H1 monic) and X^0 (this construction) then hold, and a
      candidate is a hit of the orders when the other h - 1 hold too;
    - the partner of j1 is gamma/j1, the one modulus of O2 of valuation
      deg gamma - log|j1|; when O2 has several of that valuation the pair is
      reported in `skipped`, never dropped.

    `pairs_checked` counts the pairs of moduli whose valuation sum is such a
    degree.  Coefficients x + y sqrt(T) are (x, y) pairs, y = 0 when
    separable.
    """
    reports = [order_report(order, check_brown=False) for order in iter_orders(base, d_bound)]
    records = [modulus_records(rep.order, rep.moduli) for rep in reports]
    position = {rec.key: i for i, rec in enumerate(r for recs in records for r in recs)}
    counts = Counter(rec.modulus.log_j for recs in records for rec in recs)
    pairs_checked = sum(
        n1 * n2 if lg1 < lg2 else n1 * (n1 + 1) // 2
        for lg1, n1 in counts.items()
        for lg2, n2 in counts.items()
        if lg1 <= lg2 and (lg1 + lg2).denominator == 1 and 0 <= lg1 + lg2 <= deg_bound
    )
    polys: dict = {}
    hits = []
    skipped = []
    for i1, rep1 in enumerate(reports):
        for i2 in range(i1, len(reports)):
            logs1, logs2 = rep1.logs, reports[i2].logs
            deg = min(logs1) + max(logs2)
            if deg.denominator != 1 or not 0 <= deg <= deg_bound or sorted(deg - lg for lg in logs1) != sorted(logs2):
                continue
            for i in (i1, i2):
                if i not in polys:
                    polys[i] = [_pair(c) for c in hilbert_poly(reports[i].order).coeffs]
            for gamma in _gammas(polys[i1], polys[i2]):
                for r1 in records[i1]:
                    partner = [r2 for r2 in records[i2] if r2.modulus.log_j == deg - r1.modulus.log_j]
                    if len(partner) != 1:
                        skipped.append(
                            {
                                "pair": [r1.label, reports[i2].order.label()],
                                "reason": f"{len(partner)} partner moduli of valuation {deg - r1.modulus.log_j}",
                                "gamma": pr.format_poly(gamma),
                            }
                        )
                        continue
                    first, second = sorted((r1, partner[0]), key=lambda r: (r.modulus.log_j, r.key))
                    if i1 == i2 and first is not r1:
                        continue  # the same pair, met from its other modulus
                    hits.append((int(deg), pr.format_poly(gamma), first, second))
    hits.sort(key=lambda t: (t[0], t[1], t[2].modulus.log_j, position[t[2].key], position[t[3].key]))
    return {
        "q": base.q,
        "d_bound": d_bound,
        "deg_bound": deg_bound,
        "moduli": len(position),
        "pairs_checked": pairs_checked,
        "hits": [{"pair": [r1.label, r2.label], "degree": deg, "gamma": gamma} for deg, gamma, r1, r2 in hits],
        "skipped": skipped,
        "min_hit_degree": min((t[0] for t in hits), default=None),
    }


def _pair(c) -> tuple:
    """A class-polynomial coefficient as the pair (x, y) of x + y sqrt(T)."""
    return c if isinstance(c, tuple) else (c, pr.zero(c.field))


def _times(a: tuple, b: tuple) -> tuple:
    """(x1 + y1 sqrt(T))(x2 + y2 sqrt(T)) as a pair."""
    (x1, y1), (x2, y2) = a, b
    return x1 * x2 + pr.T(x1.field) * y1 * y2, x1 * y2 + x2 * y1


def _gammas(H1: list, H2: list) -> list:
    """Every gamma in A with X^h H2(gamma/X) = H2(0) H1(X), for the
    coefficient pairs of two class polynomials of degree h (see
    `andre_oort_search`)."""
    h = len(H1) - 1
    x, y = _times(H1[0], H2[0])
    if y:
        return []  # gamma^h has a sqrt(T)-part: gamma is not in A
    sign, items = pr.factor(x)
    if any(e % h for _, e in items):
        return []
    root = pr.one(x.field)
    for P, e in items:
        root = root * P ** (e // h)
    fq = x.field
    gammas = [root.scale(c) for c in range(1, fq.order) if fq.pow(c, h) == sign]
    return [
        g
        for g in gammas
        if all(_times(H2[i], (g**i, pr.zero(fq))) == _times(H2[0], H1[h - i]) for i in range(1, h))
    ]


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
