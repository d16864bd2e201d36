"""Enumeration of the reduced CM-point sets and per-point geometric data.

Odd flavor: S_D = {(-b + sqrt(D))/(2a)} with b^2 - 4ac = D, |b| < |a| <= |c|,
gcd(a, b, c) = 1.  Even separable: S_f(xi) with ac = b^2 + b f G + f^2 rad(G) B
and gcd(a, b, f) = 1.  Even inseparable: S_f(sqrt(T)) with ac = b^2 + f^2 T.

Each point is held as the exact element z = (x + y xi)/den of `quadfield`,
three polynomials built from the integer data (a, b, c) of `point_form` and
the order's w = f omega, with no gcd taken.  For every point, |z|^2 = |c|/|a|
(the norm is c/a up to a unit), so n = ceil((deg c - deg a)/2) and the
fractional defect eps is 0 (inert) or 1/2 (ramified); `enumerate_points`
replays that identity from the polynomials.  Points on the unit sphere of
an inert field acquire an elliptic neighbor e in F_{q^2}\\F_q together with
the exact distance |z - e|, a power of q; both are read from the integer
data with no series (`elliptic_neighbor`), and so are the closeness tests
of the approximation lemmas near e (`majb_check`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import BadInputError, InvariantError
from .certlog import exact_log_q
from .ffield import artin_schreier_solve, embedding_table, quadratic_extension, sqrt as ff_sqrt
from . import polyring as pr
from .polyring import Poly
from .quadfield import Order, QuadElement, RatFunc


@dataclass(frozen=True)
class CMPoint:
    order: Order
    a: Poly
    b: Poly
    c: Poly
    z: QuadElement
    n: int
    eps: Fraction
    e_code: int | None = None  # elliptic neighbor in F_{q^2}, when |z| = 1 (inert)
    dist_e_log: int | None = None  # log_q |z - e| (negative)

    @property
    def dist_e(self) -> Fraction | None:
        if self.dist_e_log is None:
            return None
        return Fraction(1, self.order.field.q ** (-self.dist_e_log))

    def sort_key(self):
        return (self.a.deg, pr.poly_code(self.a), pr.poly_code(self.b))

    def tsv_row(self) -> str:
        e = "" if self.e_code is None else str(self.e_code)
        d = "" if self.dist_e_log is None else f"q^{self.dist_e_log}"
        return "\t".join([str(self.a), str(self.b), str(self.c), str(self.n), str(self.eps), e, d])


def _rhs(order: Order, b: Poly) -> Poly:
    """The product a*c as a polynomial identity in b, per flavor."""
    k = order.field
    f = order.f
    if k.flavor == "odd":
        return (b * b - order.D_O).scale(k.base.inv(4 % k.base.p))  # b^2 - 4ac = D_O
    if k.flavor == "even_sep":
        fG = f * k.G
        return b * b + b * fG + f * f * k.radG * k.B
    return b * b + f * f * pr.T(k.base)


def point_form(order: Order, a: Poly, b: Poly, c: Poly) -> tuple:
    """(A, x, C, beta): the CM point of (a, b, c) is z = (x + w xi)/A, and
    C = (x^2 + s x - t)/A, where w xi = f omega xi is the order's fixed root
    eta of eta^2 = s eta + t (omega xi generates O_K, see `QuadField`):
    sqrt(D_O) = (f/g) xi (odd, D = sgn g^2 D_0), f G xi (even separable) or
    f xi (inseparable).  The odd flavor keeps the classical normalisation
    b^2 - 4ac = D_O, so (A, x, C) = (2a, -b, 2c) there and (a, b, c) for
    even q.  beta = f num(omega) is f G (even separable) or f, and the point
    is proper exactly when gcd(a, b, c, beta) = 1.
    """
    k = order.field
    beta = order.f * k.omega.num
    if k.flavor == "odd":
        two = 2 % k.base.p
        return a.scale(two), -b, c.scale(two), beta
    return a, b, c, beta


def _deg_a_bound(order: Order) -> int:
    k = order.field
    if k.flavor == "odd":
        return order.D_O.deg // 2
    if k.flavor == "even_sep":
        return (2 * (order.f.deg + k.G.deg) + max(0, k.B.deg - k.C.deg)) // 2
    return order.f.deg


def enumerate_points(order: Order) -> list:
    """The complete reduced CM-point set of an order, in canonical order.

    Each point is the exact element (x w_den + w_num xi)/(A w_den) of
    `point_form`, where w = w_num/w_den = f omega is reduced once for the
    order; its valuation is replayed against |c|/|a| from the norm.  The
    product a c = rhs(b) of `_rhs` is formed once per b, in code order, so
    the b of degree < deg a are a prefix of that list.  Points with |z| = 1
    in an inert field carry their elliptic neighbor and the exact distance
    |z - e|.
    """
    k = order.field
    base = k.base
    w = RatFunc(order.f * k.omega.num, k.omega.den)
    bound = _deg_a_bound(order)
    rhs_of = [(b, _rhs(order, b)) for b in pr.all_of_degree_less(base, bound)]
    points = []
    for da in range(bound + 1):
        bs = [(b, rhs) for b, rhs in rhs_of[: base.order**da] if not rhs.is_zero()]
        for a in pr.monic_of_degree(base, da):
            for b, rhs in bs:
                q_, r_ = divmod(rhs, a)
                if not r_.is_zero():
                    continue
                c = q_
                if c.is_zero() or c.deg < a.deg:
                    continue
                # Properness: End(A + Az) = O exactly.  Expanding the
                # endomorphism conditions for z = (b + beta*xi)/a gives
                # End = {x + y xi : beta | y * gcd(a, b, c)} with beta = fG
                # (resp. f), so the right condition is gcd(beta, a, b, c) = 1.
                # In odd characteristic a prime P | gcd(a, b, c) has P^2 |
                # D_O = f^2 D_K with D_K squarefree, so P | f = beta and this
                # is the classical gcd(a, b, c) = 1; in even characteristic a
                # content dividing B must be allowed (see the worked
                # counterexamples in the decisions ledger).
                A, x, _, beta = point_form(order, a, b, c)
                if not pr.gcd_many([a, b, c, beta]).is_one():
                    continue
                diff = c.deg - a.deg
                n = (diff + 1) // 2
                eps = Fraction(n) - Fraction(diff, 2)
                z = QuadElement(k, x * w.den, w.num, A * w.den)
                # replay |z|^2 = |c|/|a| exactly, from the norm's numerator
                if z.v_infinity() != Fraction(a.deg - c.deg, 2):
                    raise InvariantError("point valuation does not match |c|/|a|")
                pt = CMPoint(order, a, b, c, z, n, eps)
                near = elliptic_neighbor(pt)
                points.append(pt if near is None else replace(pt, e_code=near[0], dist_e_log=near[1]))
    points.sort(key=CMPoint.sort_key)
    if len({(p.a, p.b) for p in points}) != len(points):
        raise InvariantError("(a, b) does not determine the point")  # pragma: no cover
    return points


def elliptic_floor_log(order: Order) -> int:
    """-log_q of the guaranteed elliptic-distance floor (inert flavors)."""
    k = order.field
    if k.flavor == "odd":
        return order.D_O.deg // 2  # |z - e| >= 1/sqrt|D|
    return order.f.deg + k.G.deg  # |z - e| >= 1/|fG|


def elliptic_neighbor(pt: CMPoint):
    """(e, log_q|z-e|) for an inert point with |z| = 1; None otherwise.

    Both are exact and read from the integer data, with no series.  The
    point z = (x + y xi)/den has |x/den| < 1 = |z| and den monic, so
    e = lead(y) lead(xi), where lead(xi) is the branch `xi_series` takes:
    the canonical square root of sgn D (odd) or the least Artin-Schreier
    root of sgn B (even separable).  z and its conjugate zbar are the roots
    of a X^2 + s X + c, s = b (odd) or fG (even separable), and
    |e - zbar| = 1, so a e^2 + s e + c = a (e - z)(e - zbar) gives
    log_q|z - e| = deg(a e^2 + s e + c) - deg a.  Verifies e not in F_q,
    e^2 = sgn(D)/4 (odd) or e^2 + e = sgn(B) (even separable) and the
    distance floors of the key lemmas.
    """
    order = pt.order
    k = order.field
    if k.infinite_type != "inert" or pt.n != 0:
        return None
    base = k.base
    desc2 = quadratic_extension(base)
    emb = embedding_table(base, desc2)
    if k.flavor == "odd":
        lead_xi, s = ff_sqrt(desc2, emb[k.D.sgn]), pt.b
    else:
        lead_xi, s = artin_schreier_solve(desc2, emb[k.B.sgn])[0], order.f * k.G
    e_code = desc2.mul(emb[pt.z.y.sgn], lead_xi)
    if e_code in set(emb):
        raise InvariantError("residue of z lies in F_q: |z|_i < 1 contradicts the fundamental domain")
    # residue identity
    if k.flavor == "odd":
        target = desc2.mul(emb[order.D_O.sgn], desc2.inv(emb[4 % base.p]))
        if desc2.mul(e_code, e_code) != target:
            raise InvariantError("e^2 != sgn(D)/4")
    elif desc2.add(desc2.mul(e_code, e_code), e_code) != emb[k.B.sgn]:
        raise InvariantError("e^2 + e != sgn(B)")
    a2, s2, c2 = (p.map_coeffs(emb, desc2) for p in (pt.a, s, pt.c))
    value = a2.scale(desc2.mul(e_code, e_code)) + s2.scale(e_code) + c2
    if value.is_zero():
        raise InvariantError("z = e would mean j = 0, an excluded order")  # pragma: no cover
    dist = value.deg - pt.a.deg
    floor = elliptic_floor_log(order)
    if dist > -1:
        raise InvariantError("|z - e| >= 1 at an n = 0 point")  # pragma: no cover
    if -dist > floor:
        raise InvariantError(f"|z - e| = q^{dist} below the floor q^-{floor}")
    return e_code, dist


def c_epsilon_set(points: list, eps: Fraction) -> list:
    """The points whose elliptic distance is < eps (0 < eps <= 1)."""
    if not (0 < eps <= 1):
        raise BadInputError("eps must satisfy 0 < eps <= 1")
    return [p for p in points if p.dist_e is not None and p.dist_e < eps]


def majb_check(pt: CMPoint, eps: Fraction) -> dict:
    """Exact data for the near-elliptic approximation lemmas, read from the
    integer data (a, b, c) with no series.

    For a point with |z - e| < eps: |a| = |D|^(1/2), |b| < eps|a|, and the
    flavor-specific closeness |sqrt(D)/(2e) - a| < eps|a| (odd) resp.
    |fG - a| < eps|a| and |b + beta*fG| < eps|a| with beta = xi - e (even).

    Odd: sqrt(D) = 2az + b is the point's branch.  As |z - e| < 1 and
    |b| < |a|, its leading coefficient is 2e, so |sqrt(D) + 2ae| = |4ae| =
    |a|; and (sqrt(D) - 2ae)(sqrt(D) + 2ae) = D - 4a^2 e^2 with |2e| = 1, so
    log_q|sqrt(D)/(2e) - a| = deg(D - 4a^2 e^2) - deg a, where 4e^2 = sgn(D)
    (`elliptic_neighbor` asserts e^2 = sgn(D)/4).
    Even: z = (b + fG xi)/a, so b + beta fG = az - e fG = a(z - e) + e(a - fG)
    with |e| = 1.  Its size is at most the larger of |a||z - e| < eps|a| and
    |a - fG|, and equal to |a - fG| when that is >= eps|a|.  So
    |b + beta fG| < eps|a| exactly when |a - fG| < eps|a|, that is when
    deg(a - fG) < deg a + log_q eps: one degree decides both tests.
    """
    order = pt.order
    k = order.field
    if pt.dist_e_log is None or not pt.dist_e < eps:
        raise BadInputError("majb_check needs a point with |z - e| < eps")
    out = {"a_matches_sqrtD": 2 * pt.a.deg == order.D_O.deg}
    eps_a_log = exact_log_q(eps, k.base.q) + pt.a.deg  # log_q(eps |a|)
    out["b_small"] = pt.b.is_zero() or pt.b.deg < eps_a_log
    if k.flavor == "odd":
        w = order.D_O - (pt.a * pt.a).scale(order.D_O.sgn)  # deg of the zero polynomial is NEG_INF
        out["sqrtD_over_2e_close"] = w.deg - pt.a.deg < eps_a_log
    else:
        out["fG_close"] = out["b_beta_close"] = (pt.a - order.f * k.G).deg < eps_a_log
    return out
