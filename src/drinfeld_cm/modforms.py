"""Numerical j-values via t-expansions, with certified truncation everywhere.

The two weight forms are evaluated in their period-free normalisations
    gt(z) = 1 - (T^q - T) * sum_{a monic} t(az)^(q-1),
    dt(z) = - sum_{a monic} a^(q(q-1)) t(az)^(q-1),
and j = gt^(q+1)/dt, all powers of the Carlitz period cancelling since
(q-1)(q+1) = q^2 - 1.  The period itself (a (q-1)-st root) is never
constructed: with S_a = e_C(pi*a*z)/pi = sum_i pi^(q^i-1) (az)^(q^i) / D_i,
only pi^(q-1) appears, and t(az)^(q-1) = S_a / (pi^(q-1) * S_a^q).
Frobenius is a ring map, so 1/S_a^q = (1/S_a)^q: S_a is inverted only to
its own relative length, the inverse is raised to the q-th power
coefficientwise and multiplied by pi^-(q-1), which each `EvalContext` holds.
For the same reason gt^(q+1) = gt^q * gt is one product: the q-th power is
coefficientwise, and its tracked precision min(q p + v, p + q v) = p + q v
is that of q repeated products.

Truncation indices are certified: the a-sum tail comes from the exact
valuation v(t(az)) = (q/(q-1) - eps) q^(n + deg a) (verified on every term,
which is the appendix valuation lemma run as an assertion), and the
Carlitz-sum tail from the exact term valuations i q^i - q (q^i-1)/(q-1).
Frobenius powers (az)^(q^i) are coefficientwise, so they cost no
convolutions and lose no precision.

Evaluation runs on stacks (see `laurent`).  `eval_j_stack` evaluates j at
several points of one order with equal n, eps and |j| in one computation:
their z are embedded by one `quadfield.embed` call, on every retry round,
as the rows of one series (one Newton inverse for all their denominators),
and the terms t(az)^(q-1) for every monic a of one degree are one stack of
(point, a) rows.  The rows share every target, every Carlitz index set and
every certified valuation, since v(az) = v(z) - deg a and v(z) is fixed by
n; each row's valuation is still asserted against its formula.  `eval_j` is
the one-point case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BadInputError, InvariantError, PrecisionError
from .ffield import FieldDesc
from .laurent import LaurentSeries, inverse_bracket_series, pi_power_qm1
from . import polyring as pr
from .quadfield import Order, embed, one_like, round_to_A, value_field, zero_like
from .cmpoints import CMPoint
from .brownval import OrderCM, brown_prec, log_abs_j, moduli_of

GUARD = 10


def _coeff_valuation(q: int, i: int) -> int:
    """v of pi^(q^i - 1)/D_i: i q^i - q (q^i - 1)/(q - 1)."""
    return i * q**i - q * (q**i - 1) // (q - 1)


class EvalContext:
    """Carlitz data over one coefficient field, kept at a fixed relative precision.

    Multiplication preserves relative precision and Frobenius multiplies it
    by q, so every coefficient pi^(q^i - 1)/D_i can be carried with `rel`
    digits past its own (rapidly growing) valuation at constant cost.

    The data depend only on (base, cdesc, rel), so the base field holds one
    context per (cdesc, rel) for the life of the process (`_context_for`),
    and every evaluation with that key reads the same pi^(q-1), pi^-(q-1)
    and the same lazily grown coefficient list; the digits are exact, so
    sharing changes no result.
    """

    def __init__(self, base: FieldDesc, cdesc: FieldDesc, rel: int):
        self.base = base
        self.cdesc = cdesc
        self.q = base.q
        self.rel = rel
        self.pi = pi_power_qm1(cdesc, rel + 2)  # v = -q, so rel + q + 2 known digits
        self.pi_inv = self.pi.inverse()  # the same relative precision
        self._coeffs = [LaurentSeries.one(cdesc, rel)]

    def coeff(self, i: int) -> LaurentSeries:
        """pi^(q^i - 1)/D_i by the Frobenius recursion c_i = c_(i-1)^q pi / [i]."""
        q = self.q
        while len(self._coeffs) <= i:
            k = len(self._coeffs)
            vk = _coeff_valuation(q, k)
            c = self._coeffs[k - 1].frobenius_q() * self.pi
            c = c * inverse_bracket_series(self.cdesc, k, self.rel + 2)
            c = c.truncate(vk + self.rel)
            if c.valuation() != vk:
                raise InvariantError(f"Carlitz coefficient valuation mismatch at i={k}")
            self._coeffs.append(c)
        return self._coeffs[i]


def _monic_stack(base: FieldDesc, cdesc: FieldDesc, d: int, e: int):
    """(the monic a of degree d, the stack of the series of a^e over cdesc), held by the base field."""

    def build():
        monics = tuple(pr.monic_of_degree(base, d))
        return monics, LaurentSeries.stack([LaurentSeries.from_poly(a**e, cdesc) for a in monics])

    return base.held(("monics", cdesc, d, e), build)


def _tiled(stack, points: int):
    """The rows of `stack` once per point: row r * stack.rows + k is row k."""
    return stack.take(np.tile(np.arange(stack.rows), points))


def _context_for(order: Order, prec: int) -> EvalContext:
    """The Carlitz context of the order's value field at relative precision
    `prec`, held by the order's base field."""
    base, cdesc = order.field.base, value_field(order.field)
    return base.held(("carlitz", cdesc, prec), EvalContext, base, cdesc, prec)


def _truncate(el, prec: Fraction | int):
    return el.truncate(int(math.ceil(prec)))


def _assert_rows(el, expected: Fraction, what: str, where) -> None:
    """Every row's valuation equals its exact formula; where(i) names row i."""
    for i, v in enumerate(el.row_valuations()):
        if v != expected:
            raise InvariantError(f"{what} is {v}, formula says {expected} ({where(i)})")


def _term_row(pts: list, monics: tuple):
    """where(row) for a stack of terms: row r q^d + k is the k-th monic at the r-th point."""

    def where(row):
        p = pts[row // len(monics)]
        return f"a={monics[row % len(monics)]}, point a={p.a}, b={p.b}"

    return where


def carlitz_S(ctx: EvalContext, z_el, pts: list, d: int, s_target: Fraction):
    """S_a = e_C(pi a z)/pi at every point of the stack z_el (one row per
    point of pts) and every monic a of degree d, to absolute precision
    s_target; row r q^d + k holds the k-th monic at the r-th point.  Each
    row's valuation is asserted against the exact formula
    -(q/(q-1) - eps) q^(n + d) + q/(q-1).

    Returns (S, last index used).  The certified index set consists of the
    i with exact term valuation i q^i - q (q^i-1)/(q-1) + q^i v(az) below
    s_target; the valuations dip to the dominant index and then grow.  Every
    row has the same v(az), hence the same index set.
    """
    q = ctx.q
    pt = pts[0]
    theta = Fraction(q, q - 1) - pt.eps
    v_s = -theta * q ** (pt.n + d) + Fraction(q, q - 1)
    v_rows = set(z_el.row_valuations())
    if None in v_rows:
        raise PrecisionError("z indistinguishable from 0")
    if len(v_rows) != 1:
        raise InvariantError(f"the rows of a stack differ in v(z): {sorted(v_rows)}")
    v_az = Fraction(v_rows.pop()) - d
    incl = []
    i = 0
    prev_v = None
    while True:
        v_term = Fraction(_coeff_valuation(q, i)) + q**i * v_az
        if v_term < s_target:
            incl.append(i)
        elif prev_v is not None and v_term >= prev_v and v_term >= s_target and incl:
            break
        prev_v = v_term
        i += 1
        if i > 80:  # pragma: no cover
            raise InvariantError("Carlitz sum did not terminate")
    imax = incl[-1]

    def fut(i):  # the digits of u that every included index after i needs
        return max((s_target - _coeff_valuation(q, j)) / Fraction(q ** (j - i)) for j in incl if j > i)

    # a*z only to the digits its first use keeps: z to that precision plus deg a
    first = ([s_target - _coeff_valuation(q, 0)] if 0 in incl else []) + ([fut(0)] if imax else [])
    monics, a_stack = _monic_stack(ctx.base, ctx.cdesc, d, 1)
    z_rows = _truncate(z_el, max(first) + 2 + d).take(np.repeat(np.arange(len(pts)), len(monics)))
    u = z_rows * _tiled(a_stack, len(pts))
    s_val = None
    for i in range(imax + 1):
        if i in incl:
            needed = s_target - _coeff_valuation(q, i)
            term = _truncate(u, needed + 2) * ctx.coeff(i)
            s_val = term if s_val is None else s_val + term
        if i < imax:
            u = _truncate(u, fut(i) + 2).frobenius_q()
    s_val = _truncate(s_val, s_target)
    _assert_rows(s_val, v_s, "valuation of e_C(pi a z)/pi", _term_row(pts, monics))
    return s_val, imax


def t_pow_qm1(ctx: EvalContext, z_el, pts: list, d: int, target: Fraction):
    """(t(az)^(q-1) to absolute precision `target`, last Carlitz index) for the
    rows of carlitz_S; None when every term of degree d is negligible."""
    q = ctx.q
    pt = pts[0]
    theta = Fraction(q, q - 1) - pt.eps
    v_t1 = theta * q ** (pt.n + d)
    v_tq = (q - 1) * v_t1
    ell = Fraction(target) - v_tq
    if ell <= 0:
        return None
    v_s = -v_t1 + Fraction(q, q - 1)
    s_val, used = carlitz_S(ctx, z_el, pts, d, v_s + ell + 1)
    # t^(q-1) = S (1/S)^q / pi^(q-1); (1/S)^q is kept to the relative length of S
    keep = s_val.prec - (q + 1) * v_s
    inv_q = _truncate(_truncate(s_val.inverse(), keep / q).frobenius_q(), keep)
    t_qm1 = _truncate(s_val * (inv_q * ctx.pi_inv), target)
    _assert_rows(t_qm1, v_tq, "v(t(az)^(q-1))", _term_row(pts, _monic_stack(ctx.base, ctx.cdesc, d, 1)[0]))
    return t_qm1, used


@dataclass
class JValue:
    point: CMPoint
    value: object  # LaurentSeries (inert) or QuadSeries (ramified)
    plan: dict


def eval_gt_dt(ctx: EvalContext, pts: list, z_el, target_g: Fraction, target_d: Fraction):
    """(gt, dt) at every point of the stack z_el to the requested absolute
    precisions, with certified a-tails; the terms of one degree are one stack."""
    q = ctx.q
    pt = pts[0]
    theta = Fraction(q, q - 1) - pt.eps
    gsum = zero_like(z_el, math.ceil(Fraction(target_g) + q))
    dsum = zero_like(z_el, math.ceil(target_d))
    d = 0
    max_deg_a = 0
    e_c_terms = 0
    prev = None
    while True:
        v_tq = (q - 1) * theta * q ** (pt.n + d)
        v_g_term = v_tq - q
        v_d_term = v_tq - q * (q - 1) * d
        beyond = v_g_term >= target_g and v_d_term >= target_d
        increasing = prev is None or (v_g_term >= prev[0] and v_d_term >= prev[1])
        if beyond and increasing:
            break
        prev = (v_g_term, v_d_term)
        need_t = max(Fraction(target_g) + q, Fraction(target_d) + q * (q - 1) * d)
        term = t_pow_qm1(ctx, z_el, pts, d, need_t)
        if term is not None:
            t_qm1, used = term
            max_deg_a = max(max_deg_a, d)
            e_c_terms = max(e_c_terms, used)
            gsum = _truncate(gsum + t_qm1.fold(q**d), Fraction(target_g) + q)
            apow = _tiled(_monic_stack(ctx.base, ctx.cdesc, d, q * (q - 1))[1], len(pts))
            dsum = _truncate(dsum + (t_qm1 * apow).fold(q**d), target_d)
        d += 1
        if d > 40:  # pragma: no cover
            raise InvariantError("a-sum did not terminate")
    bracket = LaurentSeries.from_poly(pr.parse_poly(ctx.base, f"T^{q}") - pr.T(ctx.base), ctx.cdesc)
    gt = one_like(z_el) - _truncate(gsum * bracket, target_g)
    dt = -dsum
    return gt, dt, {"max_deg_a": max_deg_a, "e_c_terms": e_c_terms}


def eval_j_stack(points: list, prec: int) -> list:
    """j at every point to absolute precision `prec`, as one stacked computation.

    The points must belong to one order and share n, eps and the exact
    valuation of j, so that every target is shared; each row's valuation
    must match the exact formula.  Returns one JValue per point, in order,
    each equal to what `eval_j` makes at that point.  A shortfall of the
    tracked precision retries the whole stack with enlarged internal
    targets (margin x3, at most three rounds), then raises PrecisionError.
    """
    pt = points[0]
    vj = -log_abs_j(pt)
    if any((p.order, p.n, p.eps) != (pt.order, pt.n, pt.eps) or log_abs_j(p) != -vj for p in points):
        raise BadInputError("a stack needs points of one order with equal n, eps and |j|")
    q = pt.order.field.q
    theta = Fraction(q, q - 1) - pt.eps
    v_d = (q - 1) * theta * q**pt.n
    v_g = (Fraction(vj) + v_d) / (q + 1)

    def where(row):
        p = points[row]
        return f"order {p.order.label()}, a={p.a}, b={p.b}"

    margin = 6
    for _ in range(3):
        target = Fraction(prec)
        target_g = target + v_d - q * v_g + margin
        target_d = target + 2 * v_d - (q + 1) * v_g + margin
        work = int(math.ceil(max(target_g, target_d, target))) + margin
        ctx = _context_for(pt.order, work + 4)
        z_el = embed([p.z for p in points], work + 4)
        gt, dt, plan = eval_gt_dt(ctx, points, z_el, target_g, target_d)
        _assert_rows(dt, v_d, "v(dt)", where)
        num = gt.frobenius_q() * gt
        jval = _truncate(num * dt.inverse(), prec)
        got_prec = jval.prec
        if got_prec is not None and Fraction(got_prec) < prec:
            margin *= 3
            continue
        _assert_rows(jval, vj, "numeric valuation of j", where)
        return [JValue(p, jval.take([i]), plan) for i, p in enumerate(points)]
    raise PrecisionError(f"could not reach precision {prec} for j at point a={pt.a}")


def eval_j(pt: CMPoint, prec: int) -> JValue:
    """j(z) to absolute precision `prec`; its valuation must match the exact formula.

    The one-point case of `eval_j_stack`: retries with enlarged internal
    targets on a tracked-precision shortfall, then raises PrecisionError.
    """
    return eval_j_stack([pt], prec)[0]


# ---------------------------------------------------------------------------
# appendix lemmas as runnable checks


def verify_lemma_A1(pt: CMPoint, max_deg_a: int = 2, extra_prec: int = 6) -> list:
    """v(t(az)) = (q/(q-1) - eps) q^(n + deg a) and the companion for delta_a.

    Returns one report row per monic a with deg a <= max_deg_a; every row's
    `ok` must be True (exact Fraction equality of valuations).  Each sum is
    resolved with a small relative window around its own valuation, so the
    check stays cheap even at points with huge |t|-valuations.
    """
    order = pt.order
    q = order.field.q
    theta = Fraction(q, q - 1) - pt.eps
    rows = []
    ctx = _context_for(order, extra_prec + 3 * q + 14)
    zprec = pt.n + extra_prec + 14
    z_el = embed([pt.z], zprec)
    for d in range(max_deg_a + 1):
        monics, a_stack = _monic_stack(order.field.base, ctx.cdesc, d, 1)
        v_t_expected = theta * q ** (pt.n + d)
        v_s = -v_t_expected + Fraction(q, q - 1)
        s_val, _ = carlitz_S(ctx, z_el, [pt], d, v_s + extra_prec)
        # delta_a = 1/t(az) - pi a z = pi*(S_a - az): v = -theta q^(n+deg a)
        r_val = s_val - z_el * a_stack
        for a, v_s_row, v_r in zip(monics, s_val.row_valuations(), r_val.row_valuations()):
            v_t_computed = -(v_s_row - Fraction(q, q - 1))
            v_delta = v_r - Fraction(q, q - 1) if v_r is not None else None
            rows.append(
                {
                    "a": str(a),
                    "v_t_expected": v_t_expected,
                    "v_t_computed": v_t_computed,
                    "v_delta_expected": -v_t_expected,
                    "v_delta_computed": v_delta,
                    "ok": v_t_computed == v_t_expected and v_delta == -v_t_expected,
                }
            )
    return rows


def verify_lemma_A2(pt: CMPoint, delta: int, mu: int, nu: int, extra_prec: int = 8) -> dict:
    """Valuation of sum_a a^mu t(az)^delta delta_a(z)^nu (period-free bookkeeping).

    Hypotheses: delta >= nu + 1 and mu < q^n (delta - nu)(q - eps(q-1)).
    The sum equals pi^(nu - delta) * Q with Q = sum_a a^mu S_a^(-delta) R_a^nu,
    R_a = S_a - az, so its valuation is (delta-nu) q/(q-1) + v(Q); the lemma
    predicts (delta - nu)(q/(q-1) - eps) q^n.
    """
    order = pt.order
    q = order.field.q
    if delta < nu + 1:
        raise BadInputError("need delta >= nu + 1")
    gamma = delta - nu
    theta = Fraction(q, q - 1) - pt.eps
    if mu >= q**pt.n * gamma * (q - pt.eps * (q - 1)):
        raise BadInputError("mu too large for the valuation lemma")
    expected = gamma * theta * q**pt.n
    expected_q = expected - gamma * Fraction(q, q - 1)  # valuation of Q
    target_q = expected_q + extra_prec
    rel = (delta + nu + 2) * (extra_prec + q + 6)
    ctx = _context_for(order, rel)
    zprec = pt.n + extra_prec + 14
    z_el = embed([pt.z], zprec)
    qsum = None
    d = 0
    while True:
        # v of the a-term of Q: gamma*theta*q^(n+d) - mu*d - gamma*q/(q-1)
        v_term = gamma * theta * q ** (pt.n + d) - mu * d - gamma * Fraction(q, q - 1)
        if v_term >= target_q and d > 0:
            break
        v_s = -theta * q ** (pt.n + d) + Fraction(q, q - 1)
        s_window = extra_prec + q + 4
        monics, a_stack = _monic_stack(order.field.base, ctx.cdesc, d, 1)
        s_val, _ = carlitz_S(ctx, z_el, [pt], d, v_s + s_window)
        r_val = s_val - z_el * a_stack
        # S_a^(-delta) R_a^nu a^mu, summed over the monic a of degree d
        s_inv = s_val.inverse()
        acc = None
        for _ in range(delta):
            acc = s_inv if acc is None else acc * s_inv
        for _ in range(nu):
            acc = acc * r_val
        acc = (acc * _monic_stack(order.field.base, ctx.cdesc, d, mu)[1]).fold(len(monics))
        qsum = acc if qsum is None else qsum + acc
        d += 1
        if d > 12:  # pragma: no cover
            raise InvariantError("A2 sum did not terminate")
    v_q = _truncate(qsum, target_q).valuation()
    total = v_q + gamma * Fraction(q, q - 1) if v_q is not None else None
    return {
        "delta": delta,
        "mu": mu,
        "nu": nu,
        "expected": expected,
        "computed": total,
        "ok": total == expected,
    }


# ---------------------------------------------------------------------------
# Hilbert class polynomials


@dataclass
class HilbertPoly:
    """monic product of (X - j_i) over the distinct conjugates, rounded exactly.

    Separable flavors: coefficients in A.  Inseparable flavor: coefficients
    x + y*sqrt(T) with x, y in A.  residual[i] is the number of exactly-zero
    fractional digits certifying the rounding of coefficient i.
    """

    order: Order
    coeffs: list  # list of Poly, or of (Poly, Poly) pairs for even_insep
    residuals: list
    m: int
    plan: dict

    def constant_term_degree(self) -> Fraction:
        c = self.coeffs[0]
        if isinstance(c, tuple):
            x, y = c
            tpoly = pr.T(x.field)
            n = x * x + tpoly * y * y
            return Fraction(n.deg, 2)
        return Fraction(c.deg) if not c.is_zero() else Fraction(-1)

    def to_jsonable(self):
        def enc(c):
            if isinstance(c, tuple):
                return {"x": list(c[0].coeffs), "y": list(c[1].coeffs)}
            return list(c.coeffs)

        return {
            "order": self.order.to_jsonable(),
            "degree": self.m,
            "coefficients": [enc(c) for c in self.coeffs],
            "residual_valuations": self.residuals,
            "truncation": self.plan,
        }


def hilbert_poly(order: Order) -> HilbertPoly:
    """Assemble the monic class polynomial from the distinct conjugates.

    Each class's first point is evaluated at the working precision W (GUARD
    + 6 digits past the coefficients' degree bound) before the moduli are
    certified, so the numeric cross-check starts from these values and
    `plan` is that of the evaluations at W (made again at W when the order's
    OrderCM holds the value only at a higher precision).  The polynomial is
    held on the OrderCM once its checks pass; a repeat runs only the count
    check of the moduli.
    """
    cm = OrderCM.of(order)
    if cm.hilbert is not None:
        moduli_of(order)
        return cm.hilbert
    sum_pos = sum(max(Fraction(0), log_abs_j(cls[0])) for cls in cm.classes())
    W = int(math.ceil(sum_pos)) + GUARD + 6
    plans: dict = {}
    for plan in cm.plans_at([cls[0] for cls in cm.classes()], W):
        plans = {k: max(plans.get(k, 0), v) for k, v in plan.items()}
    mods = moduli_of(order, value_prec=W)
    vals = [s.numeric for s in mods]
    # expand prod (X - j_i)
    coeffs = [one_like(vals[0])]
    zero = zero_like(vals[0])
    for v in vals:
        new = [zero] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            new[i + 1] = new[i + 1] + c
            new[i] = new[i] - c * v
        coeffs = new
    rounded, residuals = (list(col) for col in zip(*(round_to_A(c, order.field.base) for c in coeffs)))
    H = HilbertPoly(order, rounded, residuals, len(mods), plans)
    lead = H.coeffs[-1]
    if isinstance(lead, tuple):
        if not (lead[0].is_one() and lead[1].is_zero()):
            raise InvariantError("class polynomial is not monic")
    elif not lead.is_one():
        raise InvariantError("class polynomial is not monic")
    total = sum(s.log_j for s in mods)
    if H.constant_term_degree() != total:
        raise InvariantError(
            f"constant-term degree {H.constant_term_degree()} != sum of conjugate valuations {total}"
        )
    cm.hilbert = H
    return H


def unit_check(H: HilbertPoly):
    """('unit'|'nonunit', norm degree): constant term in F_q^x means unit."""
    deg = H.constant_term_degree()
    if deg == 0:
        return "unit", Fraction(0)
    return "nonunit", deg


def hilbert_constant_degree(order: Order) -> Fraction:
    """Degree of the class-polynomial constant term as sum of conjugate valuations.

    Each conjugate's valuation is individually verified against the numeric
    evaluator, so this equals the assembled polynomial's constant degree
    without building the full product.
    """
    cm = OrderCM.of(order)
    cm.j_values([cls[0] for cls in cm.classes()], brown_prec)  # the evaluation checks each valuation
    return sum(s.log_j for s in moduli_of(order))
