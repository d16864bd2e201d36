"""Exact valuations and exact conjugate classes of singular moduli, Weil
heights, and unit certificates.

The absolute value of j at a reduced CM point is determined by the flavor and
the point's size data alone: q^((q+1)q^n/2) when infinity ramifies (n >= 1),
q^(q^(n+1)) at inert points above the unit sphere, and q^q |z-e|^(q+1) at
inert points on it.

Two reduced points have the same j exactly when a GL_2(A) move joins them, and
such a move preserves the boundary of the fundamental domain: above the unit
sphere (|z| > 1) the normalisation a monic, |b| < |a| <= |c| leaves only the
identity, and between inert points on it (n = 0) the move lies in PGL_2(F_q).
The conjugate classes are therefore found by applying those q(q^2 - 1) moves
to the integral data of each boundary point, in exact arithmetic.  Numerical
j-values from the t-expansion evaluator only cross-check the partition.

Held data has three owners: the canonical `ffield.FieldDesc` holds what
depends on the coefficient field alone (tables, Carlitz contexts, the
truncation plans of one-point evaluations), the
canonical `quadfield.QuadField` what depends on K alone (xi series, L-data),
and `OrderCM` what belongs to one order.
`OrderCM.of(order)` is the one `OrderCM` of an order for the life of the
process, so a repeated request reuses its points, j-values, classes,
certified moduli, class number, `sweeps.OrderReport`, certified class
polynomial (`modforms.hilbert_poly`) and height lower bounds
(`bounds.lower_bounds_h`).  Only the j-values are bounded: at most VALUE_CAP
entries hold them, and the least recently used entry loses its values when
another one gains some, together with what was read off them (the plans of
their evaluations and the class polynomial); the rest stays.  Callers
ask `OrderCM.j_values` for all the points a step needs at once, and the
points not yet held are evaluated in one call of `modforms.eval_j_stack`,
whose rows may differ in n, |j| and precision: each row is held relative
to its own valuation, so one stack serves every point of the order whose
relative need is close to the others'.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations

from .errors import BadInputError, InvariantError, PrecisionError
from . import classno
from .cmpoints import CMPoint, enumerate_points, point_form
from .ffield import FieldDesc
from .quadfield import Order

BROWN_DIGITS = 4  # digits past the valuation that the Brown check resolves
MAX_SEPARATION_DIGITS = 128
VALUE_CAP = 256  # store entries that hold j-values at once (the queries pool has 341 orders; its 600 requests touch 115)


def log_abs_j(pt: CMPoint) -> Fraction:
    """log_q |j(z)| from the exact valuation theorems, per flavor."""
    order = pt.order
    q = order.field.q
    if order.field.infinite_type == "ramified":
        if pt.n < 1:
            raise InvariantError("ramified point with n = 0 contradicts the valuation theorems")
        return Fraction(q + 1, 2) * q**pt.n
    if pt.n >= 1:
        return Fraction(q ** (pt.n + 1))
    if pt.dist_e_log is None:
        raise BadInputError("n = 0 inert point needs its elliptic distance resolved")
    return Fraction(q + (q + 1) * pt.dist_e_log)


def brown_prec(pt: CMPoint) -> int:
    """Absolute precision that resolves BROWN_DIGITS digits of j past its valuation."""
    return int(math.ceil(-log_abs_j(pt))) + BROWN_DIGITS


@dataclass
class SingularModulus:
    """A distinct singular modulus: its exact valuation plus member points."""

    order: Order
    log_j: Fraction
    points: tuple
    numeric: object | None = None  # LaurentSeries (inert) or QuadSeries (ramified)

    def sort_key(self):
        return (-self.log_j, self.points[0].sort_key())


# ---------------------------------------------------------------------------
# exact conjugate classes


def pgl2_moves(base: FieldDesc) -> list:
    """The q(q^2 - 1) elements of PGL_2(F_q), one matrix (alpha, beta, gamma, delta) each."""
    els = range(base.q)
    out = []
    for g, d in [(1, d) for d in els] + [(0, 1)]:
        for a in els:
            for b in els:
                if base.sub(base.mul(a, d), base.mul(b, g)):
                    out.append((a, b, g, d))
    return out


def _integral_data(pt: CMPoint) -> tuple:
    """(A, x, C, s) with z = (x + eta)/A and C = (x^2 + s x - t)/A in A = F_q[T].

    eta is the order's fixed root of eta^2 = s eta + t (`cmpoints.point_form`):
    sqrt(D_O) (odd), f G xi (even separable) or f xi (inseparable), so (A, x)
    determines z; s = f G for the even separable flavor and 0 otherwise.
    """
    A, x, C, beta = point_form(pt.order, pt.a, pt.b, pt.c)
    return A, x, C, beta.scale(pt.order.field.s)


def _combine(base: FieldDesc, terms) -> tuple:
    """The coefficient codes of sum c * P over the (code, Poly) pairs."""
    out = [0] * max(len(P.coeffs) for _, P in terms)
    for c, P in terms:
        if c:
            for i, pc in enumerate(P.coeffs):
                out[i] = base.add(out[i], base.mul(c, pc))
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _orbit_keys(pt: CMPoint, moves) -> list:
    """The keys (A', x') of the images (alpha z + beta)/(gamma z + delta) of pt.

    With N = gamma x + delta A the image is (X + det A eta)/(N^2 + s gamma N -
    gamma^2 t), which divides out to A' = (gamma^2 C + gamma delta (2x + s)
    + delta^2 A)/det and x' = (alpha gamma C + (alpha delta + beta gamma) x
    + beta delta A + beta gamma s)/det: only F_q-linear combinations.
    """
    base = pt.order.field.base
    A, x, C, s = _integral_data(pt)
    u = x.scale(2 % base.p) + s
    mul = base.mul
    out = []
    for a, b, g, d in moves:
        e = base.inv(base.sub(mul(a, d), mul(b, g)))
        gd = mul(g, d)
        bg = mul(b, g)
        A2 = _combine(base, [(mul(e, mul(g, g)), C), (mul(e, gd), u), (mul(e, mul(d, d)), A)])
        x2 = _combine(
            base,
            [(mul(e, mul(a, g)), C), (mul(e, base.add(mul(a, d), bg)), x), (mul(e, mul(b, d)), A), (mul(e, bg), s)],
        )
        out.append((A2, x2))
    return out


def conjugate_classes(points: list) -> list:
    """The points grouped by equal j, decided exactly; members in enumeration order.

    A point above the unit sphere, or of a ramified order, is alone in its
    class.  An inert point on the unit sphere (n = 0) is joined to every
    reduced point among its PGL_2(F_q) images.
    """
    if not points:
        return []
    order = points[0].order
    index = {}
    if order.field.infinite_type == "inert":
        for i, pt in enumerate(points):
            if pt.n == 0:
                A, x, _, _ = _integral_data(pt)
                index[(A.coeffs, x.coeffs)] = i
    moves = pgl2_moves(order.field.base) if index else []
    owner: set = set()
    classes = []
    for i, pt in enumerate(points):
        if i in owner:
            continue
        members = {i}
        if pt.n == 0 and index:
            members.update(index[k] for k in _orbit_keys(pt, moves) if k in index)
        for j in members:
            if j in owner:
                raise InvariantError(f"the moves do not act as a group on the points of {order.label()}")
            owner.add(j)
        classes.append(tuple(points[j] for j in sorted(members)))
    return classes


# ---------------------------------------------------------------------------
# the process-wide store of order objects


_store: dict = {}  # (field key, conductor coefficients) -> OrderCM
_holding: OrderedDict = OrderedDict()  # keys of the entries holding j-values, least recently used first


class OrderCM:
    """One order's reduced CM points, j-values, classes, moduli, class number,
    report, class polynomial and height lower bounds, kept for the life of
    the process (reached through `of`).

    The points are enumerated once; each j-value is kept at the highest
    precision asked for so far, per coefficient field, so a point is
    evaluated again only when a question needs more digits than are known.
    At most VALUE_CAP entries hold values: the least recently used entry
    loses its values, their plans and the class polynomial rounded from
    them first, and keeps everything else (points, classes, moduli, class
    number, report and height bounds).  Only what is certified is stored, so
    a build or a check that raised leaves nothing that a later request would
    take as its success.
    """

    def __init__(self, order: Order):
        self.order = order
        self.key = (order.field.key(), order.f.coeffs)
        self.points = enumerate_points(order)
        if not self.points:
            raise InvariantError("a valid order has a nonempty reduced point set")
        self.values: dict = {}  # (a, b) -> (precision, JValue over the order's value field)
        self.plans: dict = {}  # (a, b, precision) -> plan of the evaluation made at that precision
        self.moduli: list | None = None  # set by moduli_of once certified
        self.report = None  # the sweeps.OrderReport, once built
        self.hilbert = None  # the modforms.HilbertPoly, once its checks passed
        self.height_bounds: dict | None = None  # bounds.lower_bounds_h, once computed
        self._classes: list | None = None
        self._h_conductor: int | None = None

    @classmethod
    def of(cls, order: Order) -> "OrderCM":
        """The order's one object, built on first use."""
        key = (order.field.key(), order.f.coeffs)
        if key in _holding:
            _holding.move_to_end(key)
        if key not in _store:
            _store[key] = cls(order)
        return _store[key]

    def _evaluate(self, points: list, need) -> None:
        """Evaluate j at the points over the order's value field, each to
        precision need(pt), in one stacked call; keep each value unless a
        more precise one is held."""
        from .modforms import eval_j_stack

        precs = [need(pt) for pt in points]
        for jv, prec in zip(eval_j_stack(points, precs), precs):
            pt = jv.point
            key = (pt.a, pt.b)
            if key not in self.values or self.values[key][0] < prec:
                self.values[key] = (prec, jv)
            self.plans[(pt.a, pt.b, prec)] = jv.plan
        _holding[self.key] = self
        _holding.move_to_end(self.key)
        while len(_holding) > VALUE_CAP:
            _, old = _holding.popitem(last=False)
            old.values.clear()
            old.plans.clear()
            old.hilbert = None

    def j_values(self, points: list, prec) -> list:
        """The JValues of the points to absolute precision at least `prec` (a
        number, or a function of the point such as `brown_prec`), over the
        order's `value_field`.

        The points not yet held to that precision are evaluated in one
        stacked call, each to its own precision.
        """
        need = prec if callable(prec) else (lambda pt: prec)
        missing = {}
        for pt in points:
            known = self.values.get((pt.a, pt.b))
            if known is None or known[0] < need(pt):
                missing[(pt.a, pt.b)] = pt
        if missing:
            self._evaluate(list(missing.values()), need)
        return [self.values[(pt.a, pt.b)][1] for pt in points]

    def plans_at(self, points: list, prec: int) -> list:
        """The truncation plan of an evaluation of each point at exactly
        `prec` (a value held at a higher precision was made with another
        plan); the points without one are evaluated in one call."""
        missing = {(pt.a, pt.b): pt for pt in points if (pt.a, pt.b, prec) not in self.plans}
        if missing:
            self._evaluate(list(missing.values()), lambda pt: prec)
        return [self.plans[(pt.a, pt.b, prec)] for pt in points]

    def exact_moduli(self) -> list:
        """One SingularModulus per exact class, sorted; `moduli_of` certifies them."""
        mods = []
        for cls in self.classes():
            logs = {log_abs_j(p) for p in cls}
            if len(logs) != 1:
                raise InvariantError(f"conjugate points of {self.order.label()} have different valuations")
            mods.append(SingularModulus(self.order, logs.pop(), cls))
        mods.sort(key=SingularModulus.sort_key)
        return mods

    def classes(self) -> list:
        if self._classes is None:
            self._classes = conjugate_classes(self.points)
        return self._classes

    def class_number_by_conductor(self) -> int:
        if self._h_conductor is None:
            self._h_conductor = classno.class_number_by_conductor(self.order)
        return self._h_conductor


def _cross_check(cm: OrderCM, mods: list) -> None:
    """Numeric cross-check of the exact classes.

    Members of one class must agree on every digit known for them.  Two
    classes of equal valuation must show a nonzero digit: the values already
    known (at BROWN_DIGITS past the valuation or more) are tried first, then
    only the pairs not yet separated are evaluated at doubled digits, up to
    MAX_SEPARATION_DIGITS.
    """
    for m in mods:
        known = [cm.values[k][1].value for k in ((p.a, p.b) for p in m.points) if k in cm.values]
        if any(not (v - known[0]).is_zero_known() for v in known[1:]):
            raise InvariantError(f"conjugate points of {cm.order.label()} have different j-values")
    groups: dict = {}
    for i, m in enumerate(mods):
        groups.setdefault(m.log_j, []).append(i)
    for lg, idx in groups.items():
        pairs = list(combinations(idx, 2))
        digits = BROWN_DIGITS
        while pairs:
            if digits > MAX_SEPARATION_DIGITS:
                raise PrecisionError("could not separate conjugate moduli at the precision cap")
            prec = int(math.ceil(-lg)) + digits
            idx = sorted({i for pair in pairs for i in pair})
            vals = {i: jv.value for i, jv in zip(idx, cm.j_values([mods[i].points[0] for i in idx], prec))}
            pairs = [(i, j) for i, j in pairs if (vals[i] - vals[j]).is_zero_known()]
            digits *= 2


def moduli_of(order: Order, *, value_prec: int | None = None) -> list:
    """The distinct singular moduli of an order, one per exact conjugate class:
    the one certification of the class count.

    Every call compares the number of classes with the order's conductor
    count (`OrderCM.class_number_by_conductor`), held moduli included.
    Until a call succeeds, each call also cross-checks the classes
    numerically; the first that passes both checks stores the moduli on the
    order's OrderCM.  With `value_prec`, each modulus carries the j-value of
    its first point to that precision.
    """
    cm = OrderCM.of(order)
    mods = cm.moduli if cm.moduli is not None else cm.exact_moduli()
    h = cm.class_number_by_conductor()
    if len(mods) != h:
        raise InvariantError(f"distinct-moduli count {len(mods)} disagrees with the conductor class number {h}")
    if cm.moduli is None:
        _cross_check(cm, mods)
        cm.moduli = mods
    if value_prec is not None:
        vals = cm.j_values([m.points[0] for m in mods], value_prec)
        mods = [replace(m, numeric=jv.value.truncate(value_prec)) for m, jv in zip(mods, vals)]
    return mods


def weil_height(mods: list) -> Fraction:
    """h(j) = (1/m) sum over the m distinct moduli of an order of max(0, log_q|j_i|).

    Finite places contribute nothing: singular moduli are integral over A.
    """
    return Fraction(sum(max(Fraction(0), s.log_j) for s in mods)) / len(mods)


def ramified_nonunit_certificate(order: Order) -> dict:
    """Every conjugate has |j| >= q^(q(q+1)/2) > 1: the norm has positive degree."""
    if order.field.infinite_type != "ramified":
        raise BadInputError("certificate applies to ramified orders only")
    q = order.field.q
    mods = moduli_of(order)
    logs = [s.log_j for s in mods]
    floor = Fraction(q * (q + 1), 2)
    if min(logs) < floor:
        raise InvariantError("ramified conjugate below the valuation floor")  # pragma: no cover
    return {
        "order": order.label(),
        "m": len(mods),
        "conjugate_valuations": [str(v) for v in logs],
        "min_log": str(min(logs)),
        "norm_degree": str(sum(logs)),
        "nonunit": True,
    }
