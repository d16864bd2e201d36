"""The desk-scale verification suites behind `verify` and the acceptance tests.

Each checker returns {"name", "ok", ...details}; run_all executes the full
battery for one q at the requested discriminant bound.  Everything asserted
here is either an exact rational identity, an exactly-resolved valuation, or
an inequality certified through directed-rounded interval enclosures.
"""

from __future__ import annotations

from fractions import Fraction

from . import certlog
from .ffield import FieldDesc, embedding_table, field, quadratic_extension
from . import polyring as pr
from . import bounds as bnd
from .brownval import moduli_of
from .classno import check_class_bound
from .cmpoints import c_epsilon_set, elliptic_floor_log, majb_check
from .laurent import LaurentSeries
from .modforms import hilbert_poly, verify_lemma_A1, verify_lemma_A2
from .quadfield import RatFunc, order_from_discriminant
from .sweeps import iter_orders, order_report


def check_hayes() -> dict:
    """The worked q = 3 example: valuations 9/-1, the product (T-T^2)^4, the
    explicit unit-power value for one square-root branch."""
    F3 = field(3)
    D = pr.parse_poly(F3, "T-T^2")
    order = order_from_discriminant(F3, D)
    mods = moduli_of(order, value_prec=40)
    ok_logs = [m.log_j for m in mods] == [9, -1]
    j1, j2 = mods[0].numeric, mods[1].numeric
    prod = j1 * j2
    poly, tail = prod.polynomial_part()
    F9 = quadratic_extension(F3)
    emb = embedding_table(F3, F9)
    ok_prod = tail is None and poly == (D**4).map_coeffs(emb, F9)
    H = hilbert_poly(order)
    ok_const = H.coeffs[0] == D**4 and H.m == 2
    # eta = 1 + T + sqrt(T^2 - T); j1 must equal (T-T^2)^2 eta^5 for one branch
    s = LaurentSeries.from_poly(pr.parse_poly(F3, "T^2-T"), F3).truncate(100).sqrt()
    matches = []
    for root in (s, -s):
        eta = LaurentSeries.from_poly(pr.parse_poly(F3, "T+1"), F3) + root
        cand = LaurentSeries.from_poly(D**2, F3) * eta**5
        hi = min(cand.prec, 30)
        codes = [emb[cand.coeff_code(e)] for e in range(cand.valuation(), hi)]
        cand9 = LaurentSeries.from_codes(F9, cand.valuation(), codes, hi)
        matches.append((j1.truncate(hi) - cand9).is_zero_known())
    ok_branch = sorted(matches) == [False, True]
    branch = "plus" if matches[0] else "minus"
    return {
        "name": "hayes",
        "ok": ok_logs and ok_prod and ok_const and ok_branch,
        "logs": [str(m.log_j) for m in mods],
        "product": pr.format_poly(poly),
        "matching_branch": branch,
        "hilbert_constant": pr.format_poly(H.coeffs[0]),
    }


def check_andre_oort(base: FieldDesc, d_bound: int | None = None) -> dict:
    """No polynomial product of degree <= q^2 - 2; for q = 3 a hit at q^2 - 1
    once |D| reaches q^2 (the hits pair the two conjugates of the h = 2
    inert orders with |D| = 9)."""
    q = base.q
    if d_bound is None:
        d_bound = q**6
    report = bnd.andre_oort_search(base, d_bound, q * q - 1)
    min_hit = report["min_hit_degree"]
    ok = min_hit is None or min_hit > q * q - 2
    expect_hit = q == 3 and d_bound >= q * q
    has_expected = (min_hit == q * q - 1) if expect_hit else True
    return {
        "name": "andre-oort",
        "ok": bool(ok and has_expected),
        "q": q,
        "hits": report["hits"],
        "pairs_checked": report["pairs_checked"],
        "skipped": len(report["skipped"]),
        "moduli": report["moduli"],
    }


def check_brown_sweep(base: FieldDesc, d_bound: int) -> dict:
    """-v(eval_j) equals the exact valuation formula on every enumerated point."""
    orders = 0
    points = 0
    for order in iter_orders(base, d_bound):
        rep = order_report(order, check_brown=True)  # raises on any mismatch
        orders += 1
        points += len(rep.points)
    return {"name": "brown-vs-numeric", "ok": True, "orders": orders, "points": points}


def check_class_numbers(base: FieldDesc, d_bound: int) -> dict:
    """Orbit = conductor (= L-route on inert separable maximal orders) everywhere."""
    counts = {"orders": 0, "lroute": 0, "bounds": 0}
    for order in iter_orders(base, d_bound):
        rep = order_report(order, check_brown=False)
        counts["orders"] += 1
        if rep.h_lroute is not None:
            counts["lroute"] += 1
        if order.field.infinite_type == "inert" and order.disc_deg() >= 1:
            check_class_bound(order)
            counts["bounds"] += 1
    return {"name": "class-numbers", "ok": True, **counts}


EPS_LOGS = (0, -1, -2)  # the windows eps = 1, 1/q, 1/q^2 of the odd counting lemma


def square_roots(a: pr.Poly) -> dict:
    """Residue code of b^2 mod a -> the codes of every b with deg b < deg a and that square."""
    fld = a.field
    roots: dict = {}
    for r in range(fld.order**a.deg):
        b = pr.code_poly(fld, r)
        roots.setdefault(pr.poly_code((b * b) % a), []).append(r)
    return roots


def window_counts(roots, deg_a: int, order: int) -> list:
    """For each eps = q^el of EPS_LOGS, how many of the root codes b have deg b < deg a + el.

    The codes below order^L are exactly the b of degree < L, b = 0 included.
    """
    return [sum(1 for b in roots if b < order ** max(0, deg_a + el)) for el in EPS_LOGS]


def check_counting_lemmas(base: FieldDesc, max_deg_a: int = 5, max_deg_d: int = 6, *, max_deg_m: int = 4) -> dict:
    """Exhaustive oracle equivalence for the congruence-counting lemmas; the
    easycounting bound is checked on every monic m of degree <= max_deg_m.

    For odd q, each pair (a, D) is every monic a of degree <= max_deg_a
    against every nonzero D of degree <= max_deg_d, handled on poly codes:
    D mod a comes from pr.residue_table, the scalar multiples of it from one
    digit table per scalar, and the factorizations from pr.spf_table.
    """
    q = base.q
    pairs = 0
    if base.p != 2:
        o = base.order
        table = pr.spf_table(base, max(max_deg_a, max_deg_d))
        facts = {}  # code of monic D -> {prime code: exponent}
        for dd in range(0, max_deg_d + 1):
            for c in range(o**dd, 2 * o**dd):
                facts[c] = dict(pr.factor_with_spf(c, table))
        scaled = pr.scale_tables(base, max_deg_a)
        for da in range(0, max_deg_a + 1):
            for a in pr.monic_of_degree(base, da):
                red = pr.residue_table(a, max_deg_d) if da > 0 else None
                roots = square_roots(a)
                items = pr.factor_with_spf(pr.poly_code(a), table)
                omega = len(items)
                # gcd_2(a, D) depends only on the monic part of D, and only on
                # the primes whose square divides a
                halves = [(pc, s // 2, pr.code_poly(base, pc)) for pc, s in items if s >= 2]
                bounds_of: dict = {}  # deg gcd_2(a, D) -> the bound 2^omega q^max(0, 1 + el + deg) per el
                window_memo: dict = {}
                class_memo: dict = {}
                for dd in range(0, max_deg_d + 1):
                    for dc in range(o**dd, 2 * o**dd):
                        if halves:
                            Dm_facts = facts[dc]
                            caps = tuple(min(Dm_facts.get(pc, 0) // 2, h) for pc, h, _P in halves)
                            g2d = sum(k * P.deg for k, (_pc, _h, P) in zip(caps, halves))
                        else:
                            caps, g2d = (), 0
                        bounds = bounds_of.get(g2d)
                        if bounds is None:
                            bounds = bounds_of[g2d] = [2**omega * q ** max(0, 1 + el + g2d) for el in EPS_LOGS]
                        r = red[dc] if da > 0 else 0
                        for sc, row in enumerate(scaled, 1):
                            D_scaled_code = row[r]
                            pairs += 1
                            counts = window_memo.get(D_scaled_code)
                            if counts is None:
                                counts = window_memo[D_scaled_code] = window_counts(roots.get(D_scaled_code, ()), da, o)
                            if da > 0:
                                key = (D_scaled_code, caps)
                                okc = class_memo.get(key)
                                if okc is None:
                                    sols = roots.get(D_scaled_code, ())
                                    okc = True
                                    if sols:
                                        g2 = pr.one(base)
                                        for k, (_pc, _h, P) in zip(caps, halves):
                                            if k:
                                                g2 = g2 * P**k
                                        m_cls = a // g2
                                        ncls = len({pr.poly_code(pr.code_poly(base, b) % m_cls) for b in sols})
                                        okc = ncls <= 2**omega and len(sols) == ncls * q ** (a.deg - m_cls.deg)
                                    class_memo[key] = okc
                                if not okc:
                                    Dm = pr.code_poly(base, dc)
                                    return {"name": "counting", "ok": False, "fail": f"classes/cover a={a} D~{Dm}*{sc}"}
                            for el, cnt, bound in zip(EPS_LOGS, counts, bounds):
                                if cnt > bound:
                                    Dm = pr.code_poly(base, dc)
                                    return {"name": "counting", "ok": False, "fail": f"bound a={a} D~{Dm}*{sc} eps=q^{el}"}
    else:
        eps_list = [Fraction(1), Fraction(1, q)]
        betas = [None, RatFunc(pr.one(base), pr.parse_poly(base, "T")), RatFunc(pr.parse_poly(base, "T+1"), pr.parse_poly(base, "T^2"))]
        for da in range(0, max_deg_a + 1):
            for a in pr.monic_of_degree(base, da):
                for delta in _all_nonzero(base, 2):
                    for mu in _all_of_deg_at_most(base, 3):
                        pairs += 1
                        if not bnd.count_congruence_even(a, delta, mu, Fraction(1)):
                            return {"name": "counting", "ok": False, "fail": f"a={a} delta={delta} mu={mu}"}
                for delta, mu, beta, eps in [
                    (pr.parse_poly(base, "T"), pr.one(base), betas[1], Fraction(1)),
                    (pr.parse_poly(base, "T+1"), pr.parse_poly(base, "T"), betas[2], Fraction(1, q)),
                ]:
                    if not bnd.count_congruence_even(a, delta, mu, eps, beta=beta):
                        return {"name": "counting", "ok": False, "fail": f"beta case a={a}"}
    # easycounting, exhaustively for deg m <= max_deg_m
    for dm in range(0, max_deg_m + 1):
        for m in pr.monic_of_degree(base, dm):
            for b0 in pr.all_of_degree_less(base, min(dm, 2)):
                for Mlog in (Fraction(0), Fraction(1), Fraction(dm), Fraction(dm + 1)):
                    if not bnd.easycounting_bound_check(m, b0, Mlog):
                        return {"name": "counting", "ok": False, "fail": f"easycounting m={m}"}
    return {"name": "counting", "ok": True, "pairs": pairs}


def _all_nonzero(base: FieldDesc, maxdeg: int):
    for d in range(0, maxdeg + 1):
        for m in pr.monic_of_degree(base, d):
            for s in range(1, base.order):
                yield m.scale(s)


def _all_of_deg_at_most(base: FieldDesc, maxdeg: int):
    yield pr.zero(base)
    yield from _all_nonzero(base, maxdeg)


def divisor_stats(items, norms) -> tuple:
    """(omega, d, sigma_1, mnum, mden) of a monic polynomial from its factorization.

    `items` is [(prime code, exponent), ...] and norms[P] = |P|; the Mertens
    product prod |P|/(|P| - 1) is mnum/mden.
    """
    dcount = sigma1 = mnum = mden = 1
    for P, e in items:
        pd = norms[P]
        dcount *= e + 1
        sigma1 *= (pd ** (e + 1) - 1) // (pd - 1)
        mnum *= pd
        mden *= pd - 1
    return len(items), dcount, sigma1, mnum, mden


def check_analytic_lemmas(base: FieldDesc, maxdeg: int = 10) -> dict:
    """Divisor/omega/sigma_1/Mertens bounds, exhaustively to degree `maxdeg`.

    The d(a) and omega(a) bounds involve log_q of integers; each distinct
    (value, degree) pair is certified once through interval enclosures.
    """
    q = base.q
    o = base.order
    table = pr.spf_table(base, maxdeg)
    lnq2 = certlog.ln(q) * certlog.ln(q)
    checked: dict = {}
    norms: dict = {}  # prime code -> |P| = q^deg P
    count = 0
    for d in range(1, maxdeg + 1):
        for c in range(o**d, 2 * o**d):
            count += 1
            items = pr.factor_with_spf(c, table)
            if table[0][c] == c:  # c is irreducible
                norms[c] = q**d
            omega, dcount, sigma1, mnum, mden = divisor_stats(items, norms)
            # sigma_1(f)/|f| <= log_q|f| + 1 and mnum/mden <= 37 deg f, cross-multiplied
            if sigma1 > (d + 1) * q**d:
                return {"name": "analytic", "ok": False, "fail": f"sigma1 {pr.code_poly(base, c)}"}
            if mnum > 37 * d * mden:
                return {"name": "analytic", "ok": False, "fail": f"mertens {pr.code_poly(base, c)}"}
            if d >= 2:
                key = ("d", dcount, d)
                if key not in checked:
                    # ln d(a) * ln(deg a) <= 15 * deg a * (ln q)^2
                    lhs = certlog.ln(dcount) * certlog.ln(d) if dcount > 1 else certlog.Interval.point(0)
                    checked[key] = lhs.certainly_le(lnq2 * (15 * d))
                if not checked[key]:
                    return {"name": "analytic", "ok": False, "fail": f"maj-omega {pr.code_poly(base, c)}"}
                key2 = ("w", omega, d)
                if key2 not in checked:
                    # omega * ln 2 * ln(deg a) <= 15 * deg a * (ln q)^2
                    lhs = certlog.ln(2) * certlog.ln(d) * omega if omega else certlog.Interval.point(0)
                    checked[key2] = lhs.certainly_le(lnq2 * (15 * d))
                if not checked[key2]:
                    return {"name": "analytic", "ok": False, "fail": f"majomega {pr.code_poly(base, c)}"}
    # a_n bounds, exactly
    for n in range(1, 13):
        an = pr.count_monic_irreducibles(n, q)
        if an > q**n:
            return {"name": "analytic", "ok": False, "fail": f"a_n<=q^n n={n}"}
        lhs = 3 * n * an - 3 * q**n
        if lhs > 0 and lhs * lhs > 4 * n * n * q**n:
            return {"name": "analytic", "ok": False, "fail": f"a_n necklace bound n={n}"}
    return {"name": "analytic", "ok": True, "polynomials": count}


def check_unit_sweep(base: FieldDesc, d_bound: int) -> dict:
    report = bnd.unit_search(base, d_bound)
    ok = report["units_found"] == 0 and report["laclef_all_consistent"]
    return {
        "name": "unit-sweep",
        "ok": ok,
        "orders": report["orders"],
        "units_found": report["units_found"],
        "laclef": report["laclef_all_consistent"],
    }


def check_certificate(q: int) -> dict:
    rep = bnd.final_certificate(q)
    window_ok = None
    if q == 2:
        window_ok = Fraction("10387.5") <= rep.bound_loglog.lo and rep.bound_loglog.hi <= Fraction("10387.6")
    return {
        "name": "certificate",
        "ok": rep.ok(),
        "bound": rep.bound_loglog.decimal(6),
        "spec_window_q2": window_ok,
        "notes": rep.notes,
    }


def check_appendix_lemmas(base: FieldDesc, d_bound: int, max_deg_a: int = 2) -> dict:
    """Lemma A.1 (deg a <= max_deg_a) and the A.2 sum-valuation on every point."""
    q = base.q
    points = 0
    for order in iter_orders(base, d_bound):
        rep = order_report(order, check_brown=False)
        for pt in rep.points:
            points += 1
            rows = verify_lemma_A1(pt, max_deg_a=max_deg_a)
            if not all(r["ok"] for r in rows):
                return {"name": "appendix", "ok": False, "fail": f"{order.label()} a={pt.a}"}
            for params in ((q, 1, 1), (q - 1, 0, 0)):
                delta, mu, nu = params
                if delta < nu + 1:
                    continue
                r = verify_lemma_A2(pt, delta, mu, nu)
                if not r["ok"]:
                    return {"name": "appendix", "ok": False, "fail": f"A2 {order.label()} a={pt.a}"}
    return {"name": "appendix", "ok": True, "points": points}


def check_elliptic_lemmas(base: FieldDesc, d_bound: int) -> dict:
    """Distance floors (with the attained-floor witness), majb data, cardC."""
    q = base.q
    floor_attained = False
    cardc_checked = 0
    for order in iter_orders(base, d_bound):
        rep = order_report(order, check_brown=False)
        near = [p for p in rep.points if p.dist_e_log is not None]
        for p in near:
            if -p.dist_e_log > elliptic_floor_log(order):
                return {"name": "elliptic", "ok": False, "fail": f"floor {order.label()}"}
            if -p.dist_e_log == elliptic_floor_log(order):
                floor_attained = True
            res = majb_check(p, Fraction(1))
            if not all(res.values()):
                return {"name": "elliptic", "ok": False, "fail": f"majb {order.label()} a={p.a}"}
        # cardC bound for |D| >= q^4
        d = order.disc_deg()
        if order.field.infinite_type == "inert" and d >= 4:
            for eps in (Fraction(1), Fraction(1, q), Fraction(1, q * q)):
                card = len(c_epsilon_set(near, eps))
                # 3 q eps sqrt|D| |D|^(15/(2 loglog sqrt|D|)) log_q sqrt|D|
                loglog = certlog.log_q(Fraction(d, 2), q)
                expo = certlog.Interval.point(Fraction(15 * d, 2)) / loglog
                power = bnd._interval_pow_q(q, expo)
                bound = certlog.Interval.point(3 * q * eps * Fraction(q) ** (d // 2) * Fraction(d, 2)) * power
                if not bound.certainly_ge(card):
                    return {"name": "elliptic", "ok": False, "fail": f"cardC {order.label()} eps={eps}"}
                cardc_checked += 1
    return {"name": "elliptic", "ok": True, "floor_attained": floor_attained, "cardC_checked": cardc_checked}


def run_all(base: FieldDesc, d_bound: int) -> list:
    """The full battery for one q; returns the list of check reports."""
    out = []
    if base.q == 3:
        out.append(check_hayes())
    out.append(check_brown_sweep(base, d_bound))
    out.append(check_appendix_lemmas(base, d_bound))
    out.append(check_class_numbers(base, d_bound))
    out.append(check_elliptic_lemmas(base, d_bound))
    out.append(check_counting_lemmas(base))
    out.append(check_analytic_lemmas(base))
    out.append(check_andre_oort(base, d_bound))
    out.append(check_unit_sweep(base, d_bound))
    out.append(check_certificate(base.q))
    return out
