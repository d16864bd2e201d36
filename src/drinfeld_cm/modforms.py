"""Numerical j-values via t-expansions, with certified truncation everywhere.

The two weight forms are evaluated in their period-free normalisations
    gt(z) = 1 - (T^q - T) * sum_{a monic} t(az)^(q-1),
    dt(z) = - sum_{a monic} a^(q(q-1)) t(az)^(q-1),
and j = gt^(q+1)/dt, all powers of the Carlitz period cancelling since
(q-1)(q+1) = q^2 - 1.  The period itself (a (q-1)-st root) is never
constructed: with S_a = e_C(pi*a*z)/pi = sum_i pi^(q^i-1) (az)^(q^i) / D_i,
only pi^(q-1) appears, and t(az)^(q-1) = S_a / (pi^(q-1) * S_a^q).
Frobenius is a ring map, so 1/S_a^q = (1/S_a)^q: the q-th power of 1/S_a
is coefficientwise and multiplies the precision by q, so to keep S_a's own
relative length l it is enough to invert S_a to ceil(l/q) digits, and S_a
is cut to the digits that inverse needs; (1/S_a)^q is multiplied by
pi^-(q-1), which each `EvalContext` holds.
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
any points of one order in one computation, each point to its own
precision: their z are embedded by one `quadfield.embed` call, on every
retry round, as the rows of one series (one inverse for all their
denominators), and the terms t(az)^(q-1) for every point and every monic a
of every degree that point needs are one stack of (point, a) rows.  The
points differ in n, so in v(z) and in every valuation after it, and each
row is held relative to its own exact valuation: a stack holds every row
with its exponents lowered by its offset, the formula's valuation at that
row minus the one at the stack's first row (an integer, since one order
has one eps; the valuations of a term depend on n + deg a alone).  Every
row of a stack then has the valuation of the first, and all rows share one
relative length, the largest any row needs.  A product adds the offsets,
Frobenius multiplies them by q and an inverse negates them, so each series
operation runs once for all rows; a sum of terms held at other offsets
places each row at its own shift (`LaurentSeries.spread`).  (One shared
absolute precision would not do: inverting rows whose valuations differ by
dv loses 2 dv digits, and the Frobenius after it multiplies the loss by q.)
The degrees of a and the Carlitz indices a stack runs are unions over its
rows, each term on the rows that need it.  Since every row is padded to the
longest, rows of far apart relative need (classes of very different |j| at
a class polynomial's working precision) go to separate stacks of the one
call (`_close`).  Each row's valuation is still
asserted against its own formula, and its plan is its own truncation need,
so every row equals what `eval_j`, the one-point case, makes at that point.
A first round evaluates every point at its precision itself, with no
digits to spare; only the rows whose tracked precision falls short are
evaluated again, with their internal targets 18 and then 54 digits past it
(`RETRY_MARGINS`).

The appendix lemmas A.1 and A.2 run on the same stacks (`verify_appendix`):
all points of an order are one stack of (point, a) rows over every degree
of a that either lemma needs at that point, with one embedding of z, one
Carlitz sum S, R = S - az and one inverse of S.  Each A.2 sum is then one
stacked product a^mu S^-delta R^nu, gathered into its point's row.
"""

from __future__ import annotations

import math
from collections import Counter
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
RETRY_MARGINS = (0, 18, 54)  # digits past every target on each round: the first at the target itself
PAD = 1 << 16  # rows x digits^2 of padding worth one stack less (`_close`)


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
    and every evaluation with that key reads the same pi^(q-1), pi^-(q-1),
    bracket T^q - T and the same lazily grown coefficient list; the digits
    are exact, so sharing changes no result.
    """

    def __init__(self, base: FieldDesc, cdesc: FieldDesc, rel: int):
        self.base = base
        self.cdesc = cdesc
        self.q = base.q
        self.rel = rel
        self.pi = pi_power_qm1(cdesc, rel + 2)  # v = -q, so rel + q + 2 known digits
        self.pi_inv = self.pi.inverse()  # the same relative precision
        self.bracket = LaurentSeries.from_poly(pr.T(base) ** self.q - pr.T(base), cdesc)
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


class _Terms:
    """The rows of a stack of terms over the points pts: for each block (d,
    point indices) in turn, the q^d monic a of degree d at each of the
    block's points, in order.  `point`, `deg` and `k` give each row's point
    index, degree and monic index, `m` its n + d, on which every valuation
    of the Carlitz sum and of t(az) depends (v(az) = eps - n - d)."""

    def __init__(self, ctx: "EvalContext", pts: list, blocks: list):
        self.ctx, self.pts, self.blocks = ctx, pts, blocks
        self.monics = {d: _monic_stack(ctx.base, ctx.cdesc, d, 1)[0] for d, _ in blocks}
        sizes = [(d, idx, len(self.monics[d])) for d, idx in blocks]
        self.point = np.concatenate([np.repeat(idx, size) for _, idx, size in sizes])
        self.deg = np.concatenate([np.full(len(idx) * size, d) for d, idx, size in sizes])
        self.k = np.concatenate([np.tile(np.arange(size), len(idx)) for _, idx, size in sizes])
        self.m = np.array([p.n for p in pts])[self.point] + self.deg

    def powers(self, e: int):
        """The stack of a^e / T^(e deg a) over the rows: valuation 0 in every row."""
        parts = [(_monic_stack(self.ctx.base, self.ctx.cdesc, d, e)[1].comps, len(idx)) for d, idx in self.blocks]
        out = np.zeros((len(self.m), self.ctx.cdesc.s, max(c.shape[2] for c, _ in parts)), dtype=np.int64)
        r = 0
        for comps, points in parts:  # a^e has exponents -e deg a (its leading 1) to 0
            out[r : r + comps.shape[0] * points, :, : comps.shape[2]] = np.tile(comps, (points, 1, 1))
            r += comps.shape[0] * points
        return LaurentSeries(self.ctx.cdesc, 0, out, None, reduced=True)

    def monic(self, row: int):
        return self.monics[int(self.deg[row])][int(self.k[row])]

    def where(self, row: int) -> str:
        p = self.pts[self.point[row]]
        return f"a={self.monic(row)}, point a={p.a}, b={p.b}"


def _context_for(order: Order, prec: int) -> EvalContext:
    """The Carlitz context of the order's value field at relative precision
    `prec`, held by the order's base field."""
    base, cdesc = order.field.base, value_field(order.field)
    return base.held(("carlitz", cdesc, prec), EvalContext, base, cdesc, prec)


def _truncate(el, prec: Fraction | int):
    return el.truncate(int(math.ceil(prec)))


def _theta(pt: CMPoint) -> Fraction:
    q = pt.order.field.q
    return Fraction(q, q - 1) - pt.eps


def _offsets(vals: list) -> list:
    """The offsets of a stack held relative to its row 0 (see the module
    doc): each row's valuation minus that of row 0."""
    ks = {v: Fraction(v - vals[0]) for v in set(vals)}
    if any(k.denominator != 1 for k in ks.values()):
        raise InvariantError(f"the rows of a stack differ in valuation by {sorted(ks.values())}")
    return [int(ks[v]) for v in vals]


def _theta_offsets(theta: Fraction, q: int, ms: list, m0: int) -> dict:
    """{m: theta (q^m - q^m0)} over the values m of ms (and m0): the offset
    against m0 of a valuation c theta q^m is c times this (an integer for
    the points of one order, which share eps)."""
    keys = [m0, *(set(ms) - {m0})]
    return dict(zip(keys, _offsets([theta * q**m for m in keys])))


def _shift(el, k: int):
    """el with every exponent raised by k."""
    return el.mul_t_power(-k) if k else el


def _assert_rows(el, v0, offsets: list, what: str, where) -> None:
    """Every row of a stack held relative to its row 0 has there the
    valuation v0 that the exact formula gives at row 0, that is its own
    formula's valuation less its offset; where(i) names row i."""
    v0 = int(v0) if Fraction(v0).denominator == 1 else v0
    for i, v in enumerate(el.row_valuations()):
        if v != v0:
            k = offsets[i]
            raise InvariantError(f"{what} is {None if v is None else v + k}, formula says {v0 + k} ({where(i)})")


def _carlitz_indices(q: int, v_az: Fraction, s_target: Fraction) -> list:
    """The certified index set of S_a to absolute precision s_target: the i
    with exact term valuation i q^i - q (q^i-1)/(q-1) + q^i v(az) below it.
    The valuations dip to the dominant index and then grow.  (The loop runs
    on integers: every valuation times one common denominator.)"""
    den = math.lcm(Fraction(v_az).denominator, Fraction(s_target).denominator)
    v_az, s_target = int(v_az * den), int(s_target * den)
    incl = []
    i = 0
    prev_v = None
    while True:
        v_term = _coeff_valuation(q, i) * den + q**i * v_az
        if v_term < s_target:
            incl.append(i)
        elif prev_v is not None and v_term >= prev_v and v_term >= s_target and incl:
            return incl
        prev_v = v_term
        i += 1
        if i > 80:  # pragma: no cover
            raise InvariantError("Carlitz sum did not terminate")


def carlitz_S(ctx: EvalContext, z_at, terms: _Terms, s_targets: dict):
    """S_a = e_C(pi a z)/pi at the (point, a) rows of `terms`.  z_at(prec)
    gives z at the points, held relative to point 0, to at least precision
    prec.  The result is held relative to its first row (see the module
    doc), and its rows at the points of n and the monics of degree d
    are known at least to the absolute precision s_targets[(n, d)].  Each
    row's valuation is asserted against the exact formula
    -(q/(q-1) - eps) q^(n + d) + q/(q-1).

    Rows of equal n + d share their index set, the indices certified for
    the precision S is known to there (`_carlitz_indices`); the loop runs
    over the union of the sets, each term on the rows whose set holds its
    index, and u = a z keeps only the rows some later index needs.
    """
    q = ctx.q
    pts = terms.pts
    eps, theta, n0, m0 = pts[0].eps, _theta(pts[0]), pts[0].n, int(terms.m[0])
    ks = {m: -k for m, k in _theta_offsets(theta, q, terms.m.tolist(), m0).items()}  # v(S) = -theta q^m + q/(q-1)
    ku = {m: n0 - m for m in ks}  # u = a z is held like z, lowered by deg a: by v(az) = eps - n - d
    s_prec = max(t - ks[n + d] for (n, d), t in s_targets.items())  # relative to the reference
    incl = {m: _carlitz_indices(q, eps - m, s_prec + ks[m]) for m in ks}
    imax = max(s[-1] for s in incl.values())
    # the digits of u_i = (az)^(q^i) that term i needs at the rows of m, relative to the reference
    need = {(i, m): s_prec + ks[m] - q**i * ku[m] - _coeff_valuation(q, i) for m in incl for i in incl[m]}

    def fut(i, ms):  # the digits of u_i that every included index after i needs
        return max(need[(j, m)] / Fraction(q ** (j - i)) for m in ms for j in incl[m] if j > i)

    # a*z only to the digits its first use keeps (a / T^deg a has valuation 0)
    first = [need[(0, m)] for m in incl if incl[m][0] == 0] + ([fut(0, incl)] if imax else [])
    z_el = z_at(max(first) + 2)
    if None in z_el.row_valuations():
        raise PrecisionError("z indistinguishable from 0")
    _assert_rows(z_el, eps - n0, [n0 - p.n for p in pts], "v(z)", lambda r: f"point a={pts[r].a}, b={pts[r].b}")
    u = _truncate(z_el, max(first) + 2).take(terms.point) * terms.powers(1)
    rows = len(terms.m)
    ks_row = np.array([ks[m] for m in terms.m])
    ku_row = np.array([ku[m] for m in terms.m])
    alive, live = np.arange(rows), set(incl)  # the rows u holds, and their values of n + d
    s_val = None
    for i in range(imax + 1):
        ms = {m for m in live if i in incl[m]}
        if ms:
            use = slice(None) if ms == live else np.flatnonzero(np.isin(terms.m[alive], list(ms)))
            sub = u if ms == live else u.take(use)
            term = _truncate(sub, max(need[(i, m)] for m in ms) + 2) * ctx.coeff(i)
            ids = alive[use]
            term = term.spread(rows, ids, q**i * ku_row[ids] - ks_row[ids])
            s_val = term if s_val is None else s_val + term
        if i < imax:
            ending = {m for m in live if incl[m][-1] == i}
            if ending:
                live -= ending
                keep = np.flatnonzero(np.isin(terms.m[alive], list(live)))
                u, alive = u.take(keep), alive[keep]
            u = _truncate(u, fut(i, live) + 2).frobenius_q()
    s_val = _truncate(s_val, s_prec)
    v_s = -theta * q**m0 + Fraction(q, q - 1)
    _assert_rows(s_val, v_s, ks_row.tolist(), "valuation of e_C(pi a z)/pi", terms.where)
    return s_val


def t_pow_qm1(ctx: EvalContext, z_at, terms: _Terms, targets: dict):
    """t(az)^(q-1) at the rows of `terms`, held relative to its first row,
    the rows at the points of n and the monics of degree d known at least to
    the absolute precision targets[(n, d)]."""
    q = ctx.q
    theta, m0 = _theta(terms.pts[0]), int(terms.m[0])
    k1 = _theta_offsets(theta, q, terms.m.tolist(), m0)  # of v(t(az)) = theta q^(n + d)
    v_t1 = theta * q**m0  # v(t(az)) at the first row; v(t^(q-1)) = (q-1) v(t), v(S) = -v(t) + q/(q-1)
    kt = {m: (q - 1) * k for m, k in k1.items()}
    t_prec = max(t - kt[n + d] for (n, d), t in targets.items())
    ell = t_prec - (q - 1) * v_t1  # every row to this relative length
    v_s = -v_t1 + Fraction(q, q - 1)
    s_targets = {(n, d): v_s - k1[n + d] + ell + 1 for n, d in targets}
    s_val = carlitz_S(ctx, z_at, terms, s_targets)
    # t^(q-1) = S (1/S)^q / pi^(q-1); (1/S)^q is kept to the relative length
    # of S, so 1/S only to ceil(keep/q), and S only as far as that inverse needs
    keep = s_val.prec - (q + 1) * v_s
    need = math.ceil(keep / q)
    inv = _truncate(s_val, need + 2 * v_s).inverse()
    if inv.prec < need:
        raise InvariantError(f"1/S is known to {inv.prec}, (1/S)^q needs {need}")
    inv_q = _truncate(inv.frobenius_q(), keep)
    t_qm1 = _truncate(s_val * (inv_q * ctx.pi_inv), t_prec)
    _assert_rows(t_qm1, (q - 1) * v_t1, [kt[m] for m in terms.m], "v(t(az)^(q-1))", terms.where)
    return t_qm1


@dataclass
class JValue:
    point: CMPoint
    value: object  # LaurentSeries (inert) or QuadSeries (ramified)
    plan: dict


def _degrees(q: int, theta: Fraction, n: int, target_g: Fraction, target_d: Fraction) -> list:
    """(d, the absolute precision t(az)^(q-1) needs) for every degree d of a
    whose terms are not negligible, up to the degree from which the a-tail
    is certified beyond the targets of gt and dt at a point of this n.  (The
    loop runs on integers: every valuation times one common denominator.)"""
    w = (q - 1) * theta  # v(t(az)^(q-1)) = w q^(n + d)
    den = math.lcm(w.denominator, Fraction(target_g).denominator, Fraction(target_d).denominator)
    w, target_g, target_d = int(w * den), int(target_g * den), int(target_d * den)
    out = []
    d = 0
    prev = None
    while True:
        v_tq = w * q ** (n + d)
        v_g_term = v_tq - q * den
        v_d_term = v_tq - q * (q - 1) * d * den
        beyond = v_g_term >= target_g and v_d_term >= target_d
        increasing = prev is None or (v_g_term >= prev[0] and v_d_term >= prev[1])
        if beyond and increasing:
            return out
        prev = (v_g_term, v_d_term)
        need_t = max(target_g + q * den, target_d + q * (q - 1) * d * den)
        if need_t > v_tq:
            out.append((d, Fraction(need_t, den)))
        d += 1
        if d > 40:  # pragma: no cover
            raise InvariantError("a-sum did not terminate")


def _plan(pt: CMPoint, v_j: Fraction, target: int) -> dict:
    """The truncation plan of the one-point evaluation of j at pt whose
    internal target is `target`, the precision asked for plus the round's
    margin: the largest degree of a and the largest Carlitz index its terms
    use.  It depends on q, eps, n, v(j) and that sum alone (an evaluation to
    prec + 6 with margin 0 has the plan of one to prec with margin 6), so
    the base field holds it under that sum."""
    q = pt.order.field.q
    theta = _theta(pt)
    v_d = (q - 1) * theta * q**pt.n
    v_g = (v_j + v_d) / (q + 1)
    plan = {"max_deg_a": 0, "e_c_terms": 0}
    for d, need_t in _degrees(q, theta, pt.n, target + v_d - q * v_g, target + 2 * v_d - (q + 1) * v_g):
        v_t1 = theta * q ** (pt.n + d)
        s_target = -v_t1 + Fraction(q, q - 1) + need_t - (q - 1) * v_t1 + 1
        used = _carlitz_indices(q, pt.eps - pt.n - d, s_target)[-1]
        plan = {"max_deg_a": d, "e_c_terms": max(plan["e_c_terms"], used)}
    return plan


def eval_gt_dt(ctx: EvalContext, pts: list, v_g: list, rel: Fraction):
    """(gt, dt) at every point of pts (sorted by n), held relative to row 0,
    every row known at least to `rel` digits past its valuation, with
    certified a-tails.  gt is held by v(gt) = (v(j) + v(dt))/(q + 1), given
    for each point in v_g, dt by v(dt) = (q-1)(q/(q-1) - eps) q^n.  The
    terms t(az)^(q-1) of every degree a point needs are stacks of close
    relative need (`_Terms`, `_close`), and each sum gathers a point's terms
    into its row in one step per stack.  The z of all points are embedded as
    one stack, to the precision the Carlitz sums need: row 0 has the least
    n, so every row gets at least the relative length it would alone."""
    q = ctx.q
    R = len(pts)
    eps, theta, n0 = pts[0].eps, _theta(pts[0]), pts[0].n
    ns = [p.n for p in pts]
    kd = {n: (q - 1) * k for n, k in _theta_offsets(theta, q, ns, n0).items()}
    v_d = (q - 1) * theta * q**n0  # v(dt) at row 0
    off_g, off_d = _offsets(v_g), [kd[n] for n in ns]
    gt_prec = v_g[0] + rel
    # the sums are held like dt; bracket * gsum reaches gt_prec in every row once moved to gt's offsets
    gsum_prec = gt_prec + q + max(kg - k for kg, k in zip(off_g, off_d))
    dsum_prec = v_d + rel
    # at the points of each n: {degree of a: the precision its terms need}
    needs = {n: dict(_degrees(q, theta, n, gsum_prec - q + k, dsum_prec + k)) for n, k in kd.items()}
    z_el = []  # the last embedding of z at pts, held relative to row 0

    def z_at(prec):
        if not z_el or z_el[0].prec < prec:
            z_el[:] = [embed([p.z for p in pts], math.ceil(prec), [n0 - n for n in ns])]
        return z_el[0]

    # the terms of each (n, deg a) are computed to their digits past v(t(az)^(q-1)); close ones share a stack
    ell = {(n, d): t - (q - 1) * theta * q ** (n + d) for n in needs for d, t in needs[n].items()}
    gsum = dsum = None
    count = Counter(ns)
    for kinds in reversed(_close(list(ell), ell.get, lambda kind: count[kind[0]] * q ** kind[1])):
        blocks = []
        for d in sorted({d for _, d in kinds}):
            blocks.append((d, [r for r in range(R) if (ns[r], d) in kinds]))
        terms = _Terms(ctx, pts, blocks)
        t_qm1 = t_pow_qm1(ctx, z_at, terms, {(n, d): needs[n][d] for n, d in kinds})
        # from the offsets of t(az)^(q-1), kt, to those of the sums; a^(q(q-1)) lowers the exponents by q(q-1) d
        kt = _theta_offsets(theta, q, terms.m.tolist(), int(terms.m[0]))
        shifts = (q - 1) * np.array([kt[m] for m in terms.m]) - np.array(off_d)[terms.point]
        g_terms = t_qm1.spread(R, terms.point, shifts)
        gsum = _truncate(g_terms if gsum is None else gsum + g_terms, gsum_prec)
        d_terms = (t_qm1 * terms.powers(q * (q - 1))).spread(R, terms.point, shifts - q * (q - 1) * terms.deg)
        dsum = _truncate(d_terms if dsum is None else dsum + d_terms, dsum_prec)
    ones = one_like(gsum).spread(R, range(R), [-k for k in off_g])
    moved = (gsum * ctx.bracket).spread(R, range(R), [kd - kg for kd, kg in zip(off_d, off_g)])
    return ones - _truncate(moved, gt_prec), -dsum


def _eval_rows(points: list, precs: list, margin: int) -> list:
    """One round of `eval_j_stack` over points sorted by n, every row to its
    precision plus `margin` digits: the JValue of each point, cut at its
    precision, or None where the tracked precision fell short."""
    pt = points[0]
    q = pt.order.field.q
    theta = _theta(pt)
    v_j = [-log_abs_j(p) for p in points]
    kd = {n: (q - 1) * k for n, k in _theta_offsets(theta, q, [p.n for p in points], pt.n).items()}
    v_d = [(q - 1) * theta * q**pt.n + kd[p.n] for p in points]
    v_g = [(a + b) / (q + 1) for a, b in zip(v_j, v_d)]
    # j, gt and dt share one relative length: the largest any row needs
    rel = max(Fraction(p) - v for p, v in zip(precs, v_j)) + margin
    # the Carlitz data to the largest absolute target of gt, dt and j
    work = int(math.ceil(max(max(v_g) + rel, max(v_d) + rel, max(precs)))) + margin
    ctx = _context_for(pt.order, work + 4)
    gt, dt = eval_gt_dt(ctx, points, v_g, rel)

    def where(row):
        p = points[row]
        return f"order {p.order.label()}, a={p.a}, b={p.b}"

    _assert_rows(dt, v_d[0], [kd[p.n] for p in points], "v(dt)", where)
    num = gt.frobenius_q() * gt
    off_j = _offsets(v_j)
    jval = _truncate(num * dt.inverse(), max(p - k for p, k in zip(precs, off_j)))
    vals = jval.row_valuations()
    out = []
    for r, (p, prec, k) in enumerate(zip(points, precs, off_j)):
        if jval.prec is not None and jval.prec + k < prec:
            out.append(None)
            continue
        if vals[r] is None or vals[r] + k != v_j[r]:
            got = None if vals[r] is None else vals[r] + k
            raise InvariantError(f"numeric valuation of j is {got}, formula says {v_j[r]} ({where(r)})")
        target = prec + margin
        plan = p.order.field.base.held(("plan", p.eps, p.n, v_j[r], target), _plan, p, v_j[r], target)
        out.append(JValue(p, _shift(jval.take([r]), k).truncate(prec), plan))
    return out


def _close(items: list, need, rows) -> list:
    """items in groups, least need(item) first, each group one stack.  A
    stack computes every row to the largest need in it, and a product costs
    about rows times length squared, so a group takes the next item only
    while the padding that adds, rows times the growth of the squared
    length, stays within PAD, about what one more stack costs."""
    groups: list = []
    for item in sorted(items, key=need):
        if groups:
            top = need(groups[-1][-1])
            if sum(map(rows, groups[-1])) * (need(item) ** 2 - top**2) <= PAD:
                groups[-1].append(item)
                continue
        groups.append([item])
    return groups


def eval_j_stack(points: list, prec) -> list:
    """j at every point, as stacked computations: point i to absolute
    precision prec[i] (or to `prec`, one int for every point).

    The points must belong to one order; they may differ in n, |j| and
    precision, and points of close relative need share one stack
    (`_close`).  Each row's valuation must match its exact formula.  Returns
    one JValue per point, in order, each equal to what `eval_j` makes at that
    point, plan included.  The first round evaluates every point at its
    precision itself; a point whose tracked precision falls short is
    evaluated again with its internal targets that many digits past it, for
    each margin of RETRY_MARGINS after the first in turn (the others keep
    their values), then PrecisionError is raised.
    """
    precs = [prec] * len(points) if isinstance(prec, int) else list(prec)
    pt = points[0]
    if any(p.order != pt.order or p.eps != pt.eps for p in points):
        raise BadInputError("a stack needs points of one order")
    q = pt.order.field.q
    out = [None] * len(points)
    todo = list(range(len(points)))
    for margin in RETRY_MARGINS:
        # the relative need of j at each point: at the Brown precision every point of an order needs
        # about the same, at the working precision of a class polynomial classes of very different |j|
        # stack apart
        rel = {i: Fraction(precs[i]) + log_abs_j(points[i]) + margin for i in todo}
        for part in _close(todo, rel.get, lambda i: q**2):  # about q^2 terms a point
            part.sort(key=lambda i: points[i].n)
            rows = _eval_rows([points[i] for i in part], [precs[i] for i in part], margin)
            for i, jv in zip(part, rows):
                out[i] = jv
        todo = [i for i in todo if out[i] is None]
        if not todo:
            return out
    raise PrecisionError(f"could not reach precision {precs[todo[0]]} for j at point a={points[todo[0]].a}")


def eval_j(pt: CMPoint, prec: int) -> JValue:
    """j(z) to absolute precision `prec`; its valuation must match the exact formula.

    The one-point case of `eval_j_stack`: retries with enlarged internal
    targets on a tracked-precision shortfall, then raises PrecisionError.
    """
    return eval_j_stack([pt], prec)[0]


# ---------------------------------------------------------------------------
# appendix lemmas as runnable checks


def verify_appendix(pts: list, params, max_deg_a: int = 2, extra_prec: int = 8) -> list:
    """Lemmas A.1 and A.2 at points of one order, as one stack.

    A.1: delta_a = 1/t(az) - pi a z = pi (S_a - az) has valuation
    -(q/(q-1) - eps) q^(n + deg a), for every monic a with deg a <= max_deg_a.
    (The companion v(t(az)) = (q/(q-1) - eps) q^(n + deg a) is not reported:
    `carlitz_S` asserts v(S_a) = -v(t(az)) + q/(q-1) on every row.)
    A.2: for each (delta, mu, nu) of params, with delta >= nu + 1 and
    mu < q^n (delta - nu)(q - eps(q-1)) at every point (BadInputError
    otherwise), sum_a a^mu t(az)^delta delta_a(z)^nu has valuation
    (delta - nu)(q/(q-1) - eps) q^n.  The sum is pi^(nu - delta) Q with
    Q = sum_a a^mu S_a^(-delta) R_a^nu, R_a = S_a - az, so its valuation is
    (delta - nu) q/(q-1) + v(Q).  The a-term of Q has valuation
    (delta - nu)(q/(q-1) - eps) q^(n + deg a) - mu deg a - (delta - nu) q/(q-1),
    increasing in deg a under the hypothesis, and Q is resolved to
    extra_prec digits past its lemma valuation, from the degrees of a below
    the first d > 0 whose terms lie beyond that.

    The A.2 verdict follows from A.1's at a = 1, so it checks nothing more.
    With theta = q/(q-1) - eps and m = n + deg a, `carlitz_S` asserts
    v(S_a) = -theta q^m + q/(q-1), the valuation of its dominant term, on
    every row (it raises otherwise).  R_a is S_a without its i = 0 term, so
    v(R_a) >= v(S_a), with equality exactly when A.1 holds at a, since
    v(R_a) = v(delta_a) + q/(q-1).  If A.1 holds at a = 1, the a = 1 term
    S_1^-delta R_1^nu has valuation -(delta - nu) v(S_1) exactly.  A term of
    degree d >= 1 has valuation at least -(delta - nu) v(S_a) - mu d, which
    is higher by (delta - nu) theta (q^(n+d) - q^n) - mu d >= d ((delta - nu)
    theta (q - 1) q^n - mu) > 0 under the hypothesis on mu.  So v(Q) is
    -(delta - nu) v(S_1), the lemma's value, at every point.  A term of
    degree >= 1 that is misplaced, dropped or wrong therefore leaves every
    A.2 `ok` True; only a comparison of the digits of Q with an independent
    evaluation catches it.

    One `_Terms` stack holds, at every point, the degrees of a that either
    lemma needs there; z is embedded once, S once (every row to extra_prec +
    q + 4 digits past its valuation), R = S - az and 1/S once.  Each A.2 sum
    is one stacked product a^mu S^-delta R^nu gathered into its point's row:
    the term of a at a point of n is held at the offset
    o = (nu - delta) k_S(n + deg a) - mu deg a (k_S the offsets of S, see the
    module doc) and moves to the point's row at o minus the offset at deg a = 0.
    Returns, per point, (the A.1 rows, one per a; one A.2 row per entry of
    params, with Q to extra_prec digits past the lemma's v(Q)); every row's
    `ok` must be True (exact Fraction equality).
    """
    rank = sorted(range(len(pts)), key=lambda i: pts[i].n)
    pts = [pts[i] for i in rank]
    order, n0 = pts[0].order, pts[0].n
    q = order.field.q
    theta = _theta(pts[0])
    window = extra_prec + q + 4  # the digits of S past its valuation
    cuts = []  # per entry of params, per point: the first degree of a that Q leaves out
    for delta, mu, nu in params:
        gamma = delta - nu
        if gamma < 1:
            raise BadInputError("need delta >= nu + 1")
        if any(mu >= q**p.n * gamma * (q - p.eps * (q - 1)) for p in pts):
            raise BadInputError("mu too large for the valuation lemma")
        cut = []
        for p in pts:  # the a-term of Q minus the lemma's v(Q): gamma theta (q^(n + d) - q^n) - mu d
            d = 1
            while gamma * theta * (q ** (p.n + d) - q**p.n) - mu * d < extra_prec:
                d += 1
            cut.append(d)
        cuts.append(np.array(cut))
    top = np.maximum.reduce([np.full(len(pts), max_deg_a + 1), *cuts])
    ctx = _context_for(order, window + 3 * q + 14)
    off_z = [n0 - p.n for p in pts]
    z_el = embed([p.z for p in pts], max(p.n + window + 14 - k for p, k in zip(pts, off_z)), off_z)
    terms = _Terms(ctx, pts, [(d, np.flatnonzero(top > d).tolist()) for d in range(int(top.max()))])
    ks = {m: -k for m, k in _theta_offsets(theta, q, terms.m.tolist(), n0).items()}
    v_s = -theta * q**n0 + Fraction(q, q - 1)  # at n0; at m it is v_s + ks[m]
    s_targets = {(pts[i].n, d): v_s + ks[pts[i].n + d] + window for d, idx in terms.blocks for i in idx}
    s_val = carlitz_S(ctx, lambda prec: z_el, terms, s_targets)
    # a z is held by v(az) = eps - n - d, S by v(S) = v_s + ks[n + d]
    shifts = np.array([n0 - m - ks[m] for m in terms.m])
    az = _truncate(z_el.take(terms.point) * terms.powers(1), s_val.prec - int(shifts.min()))
    r_val = s_val - az.spread(len(shifts), range(len(shifts)), shifts)
    rows: list = [([], []) for _ in pts]
    for row, v_r in enumerate(r_val.row_valuations()):
        if terms.deg[row] <= max_deg_a:
            v = -theta * q ** int(terms.m[row])
            v_delta = v_r + ks[int(terms.m[row])] - Fraction(q, q - 1) if v_r is not None else None
            rows[terms.point[row]][0].append(
                {"a": str(terms.monic(row)), "v_delta_expected": v, "v_delta_computed": v_delta, "ok": v_delta == v}
            )
    s_inv = s_val.inverse()
    for (delta, mu, nu), cut in zip(params, cuts):
        gamma = delta - nu
        term = pr.binary_power(s_inv, delta)
        if nu:
            term = term * pr.binary_power(r_val, nu)
        if mu:
            term = term * terms.powers(mu)
        use = np.flatnonzero(terms.deg < cut[terms.point])
        o_point = [-gamma * ks[p.n] for p in pts]
        o_row = [-gamma * ks[int(terms.m[r])] - mu * int(terms.deg[r]) - o_point[terms.point[r]] for r in use]
        qsum = term.take(use).spread(len(pts), terms.point[use], o_row)
        qsum = _truncate(qsum, -gamma * v_s + extra_prec)  # every row is held at the lemma's v(Q) at n0
        for i, v_q in enumerate(qsum.row_valuations()):
            total = v_q + o_point[i] + gamma * Fraction(q, q - 1) if v_q is not None else None
            expected = gamma * theta * q ** pts[i].n
            row = {"delta": delta, "mu": mu, "nu": nu, "expected": expected, "computed": total, "ok": total == expected}
            rows[i][1].append({**row, "Q": _shift(qsum.take([i]), o_point[i])})
    out = [None] * len(pts)
    for r, i in enumerate(rank):
        out[i] = rows[r]
    return out


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

    The coefficients are rounded from the j-values at the working precision
    W (GUARD + 6 digits past the coefficients' degree bound).  Each class's
    first point is evaluated at W + 6 before the moduli are certified, so the
    numeric cross-check starts from these values, and `plan` is that of the
    evaluations at W + 6 (made again at W + 6 when the order's OrderCM holds
    the value only at a higher precision).  Why W + 6: the printed plan
    (`truncation`) is part of every stored class-polynomial answer, and it
    was set when a first round ran 6 digits past its target.  A plan depends
    on the precision plus the round's margin alone (`_plan`), and a first
    round now runs at the target itself, so W + 6 runs exactly the
    truncation that W with margin 6 ran: the same plan and the same work, and
    the plan printed is the plan of the evaluation made.  (At plain W, the
    plans of some even_sep orders over F_4 would print one Carlitz term
    fewer.)  `moduli_of(order, value_prec=W)` cuts the values at W, so the
    coefficients and residuals are those of W.  The polynomial is held on
    the OrderCM once its checks pass; a repeat runs only the count check of
    the moduli.
    """
    cm = OrderCM.of(order)
    if cm.hilbert is not None:
        moduli_of(order)
        return cm.hilbert
    sum_pos = sum(max(Fraction(0), log_abs_j(cls[0])) for cls in cm.classes())
    W = int(math.ceil(sum_pos)) + GUARD + 6
    plans: dict = {}
    for plan in cm.plans_at([cls[0] for cls in cm.classes()], W + 6):
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
