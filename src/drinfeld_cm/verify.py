"""The desk-scale verification suites behind `verify` and the acceptance tests.

Each checker returns {"name", "ok", ...details}; run_all executes the full
battery for one q at the requested discriminant bound.  Everything asserted
here is either an exact rational identity, an exactly-resolved valuation, or
an inequality certified through directed-rounded interval enclosures.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from . import certlog
from .errors import InvariantError
from .ffield import FieldDesc, embedding_table, field, quadratic_extension
from . import polyring as pr
from . import bounds as bnd
from .brownval import moduli_of
from .classno import check_class_bound
from .cmpoints import c_epsilon_set, elliptic_floor_log, majb_check
from .laurent import LaurentSeries
from .modforms import hilbert_poly, verify_appendix
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
    """Orbit = conductor (`moduli_of` checks it) everywhere, and the class bound on inert orders."""
    counts = {"orders": 0, "lroute": 0, "bounds": 0}
    for order in iter_orders(base, d_bound):
        rep = order_report(order, check_brown=False)
        counts["orders"] += 1
        if rep.h_lroute is not None:
            counts["lroute"] += 1
        if order.field.infinite_type == "inert" and order.disc_deg() >= 1:
            check_class_bound(order, rep.h_orbit)
            counts["bounds"] += 1
    return {"name": "class-numbers", "ok": True, **counts}


EPS_LOGS = (0, -1, -2)  # the windows eps = 1, 1/q, 1/q^2 of the counting lemma


def value_tables(a: pr.Poly, deltas: list) -> np.ndarray:
    """tables[k, code(b)] = code((b^2 + delta_k b) mod a) for every delta_k of
    `deltas` and every residue b mod a.

    The values at a set of residues b come in one array pass for all the
    deltas: the b are coefficient rows (`pr.digit_rows`), each b + delta
    goes through the add table, and the row products b (b + delta) are
    reduced mod a (`pr.reduce_rows`), in blocks of about CHUNK rows.  For
    odd p that set is every residue.  For p = 2 the map b -> b^2 + delta b
    is additive and the bits of a code are its coordinates over F_2, so the
    pass runs on the bits alone and each table is built by doubling: the
    entries below 2^(i+1) are those below 2^i XOR the image of bit i.
    """
    fld = a.field
    d, size = a.deg, fld.order**a.deg
    width = max([d] + [len(delta.coeffs) for delta in deltas])
    shifts = pr.digit_rows(fld, np.array([pr.poly_code(delta) for delta in deltas]), width)[:, None, :]

    def values(codes):
        b = pr.digit_rows(fld, codes, width)
        moved = pr.add_codes(fld, b, shifts).reshape(len(deltas) * len(b), width)  # b + delta, delta by delta
        prod = pr.product_rows(fld, np.tile(b[:, :d], (len(deltas), 1)), moved)
        return pr.row_codes(fld, pr.reduce_rows(prod, a)).reshape(len(deltas), len(b))

    tables = np.zeros((len(deltas), size), dtype=np.int64)
    if fld.p == 2:
        bits = 1 << np.arange(size.bit_length() - 1)
        for bit, image in zip(bits.tolist(), values(bits).T):
            tables[:, bit : 2 * bit] = tables[:, :bit] ^ image[:, None]
        return tables
    step = max(1, pr.CHUNK // len(deltas))
    for s in range(0, size, step):
        tables[:, s : s + step] = values(np.arange(s, min(size, s + step)))
    return tables


def counting_bound(omega: int, q: int, el, g2_deg):
    """2^omega(a) max(1, q eps |gcd_2|) for eps = q^el: the counting lemma's
    bound on the solutions in the window (elementwise on arrays)."""
    return 2**omega * q ** np.maximum(0, 1 + el + g2_deg)


def window_counts(table: np.ndarray, deg_a: int, order: int, shift: int = 0, zeta_log=None) -> np.ndarray:
    """counts[i, r]: how many residues b with table[b] = r lie in the window
    |b + beta delta| < q^el |a|, el = EPS_LOGS[i].

    Write beta delta = u + zeta with u in A and |zeta| < 1: `shift` is the
    code of u mod a, added to b by XOR (the shifted windows are those of
    characteristic 2), and zeta_log = log_q |zeta|, None for zeta = 0.  A
    nonzero b' = b + u mod a is inside when deg b' < deg a + el, and b' = 0
    stands for zeta.  With no shift this counts the b of degree
    < deg a + el, b = 0 included.
    """
    moved = np.arange(len(table)) ^ shift
    rows = []
    for el in EPS_LOGS:
        inside = moved < order ** max(0, deg_a + el)
        if zeta_log is not None and zeta_log >= deg_a + el:
            inside &= moved != 0
        rows.append(np.bincount(table[inside], minlength=len(table)))
    return np.array(rows)


def crt_reductions(a: pr.Poly, moduli: list) -> list:
    """code(b mod m) for every residue b mod a, one array per modulus m.

    InvariantError unless the residues mod a map one-to-one onto the tuples
    of residues mod the moduli (the prime powers P^s || a).
    """
    size = a.field.order**a.deg
    reductions = [pr.residue_table(m, size) for m in moduli]
    key = np.zeros(size, dtype=np.int64)
    for m, red in zip(moduli, reductions):
        key = key * a.field.order**m.deg + red
    if len(np.unique(key)) != size:
        raise InvariantError(f"the residues mod {a} are not the tuples of residues mod its prime powers")
    return reductions


def check_crt(table: np.ndarray, reductions: list, local_tables: list) -> None:
    """InvariantError unless every value of the table mod a reduces, mod each
    prime power P^s || a, to the value of the local table at b mod P^s.

    With `crt_reductions` this is the CRT cross-check for every mu at once:
    the solutions of b^2 + delta b = mu mod a read from the table are then
    exactly the CRT gluings of the local solutions.
    """
    for red, local in zip(reductions, local_tables):
        if not np.array_equal(red[table], local[red]):
            raise InvariantError("a value mod a does not reduce to its value mod a prime power of a")


def check_counting_lemmas(base: FieldDesc, max_deg_a: int = 5, max_deg_d: int = 6, *, max_deg_m: int = 4) -> dict:
    """The congruence-counting lemma, exhaustively, and the easycounting bound
    on every monic m of degree <= max_deg_m.

    One rule in both characteristics: for every monic a of degree
    <= max_deg_a, every delta of the characteristic's delta-set and every mu,
    the solutions b mod a of b^2 + delta b = mu lie in at most 2^omega(a)
    classes modulo m = a / gcd_2(a, delta^2 + 4 mu) and fill every class they
    meet, and at most 2^omega(a) q^max(0, 1 + el + deg gcd_2) of them lie in
    the window |b| < q^el |a|, for each el of EPS_LOGS.  For odd q the
    delta-set is {0} (b^2 = D is the case delta = 0) and mu = D runs over
    the nonzero polynomials of degree <= max_deg_d.  For even q delta runs
    over the nonzero polynomials of degree <= 2 and mu over all of degree
    <= 3, so max_deg_d sizes D for odd q only; the two beta rows of each a
    also count the shifted window |b + beta delta| < eps |a|.

    Everything runs on arrays of coefficient rows through the code tables of
    F_q (`pr.digit_rows`, `pr.product_rows`, `pr.reduce_rows`); no step
    makes a Poly product per residue.  Each a makes one table of
    code((b^2 + delta b) mod a) over the residues b for all deltas at once
    (`value_tables`), and mu mod a for every mu from the coefficient rows of
    the mus, made once; every (delta, mu) reads its solutions, window
    counts and class checks from them.  For composite a each table is
    checked against the tables mod the prime powers of a (`check_crt`); the
    local tables are made once per P^s.  gcd_2(a, delta^2 + 4 mu) is read
    from one matrix of halved exponents of the discriminants, made once.
    The easycounting bound is one array pass per (deg m, M_log)
    (`bnd.easycounting_counts`), compared with the exact bound
    max(1, q^(1 + M_log) / |m|).  A pair is one (a, delta, mu).
    """
    q, o = base.q, base.order
    even = base.p == 2
    mu_deg = 3 if even else max_deg_d
    mus = np.arange(0 if even else 1, o ** (mu_deg + 1))
    mu_rows = pr.digit_rows(base, mus, mu_deg + 1)
    # the monic part of delta^2 + 4 mu for every (delta, mu), as an index into
    # disc_codes: delta^2 for p = 2, and mu's own monic part for delta = 0
    if even:
        deltas = [pr.code_poly(base, c) for c in range(1, o**3)]
        discs = [pr.poly_code((d * d).monic()) for d in deltas]
        disc_codes = sorted(set(discs))
        disc_index = [np.full(len(mus), disc_codes.index(c)) for c in discs]
    else:
        deltas = [pr.zero(base)]
        top = mu_deg - np.argmax(mu_rows[:, ::-1] != 0, axis=1)  # the degree of mu
        inverse = np.array([0] + [base.inv(c) for c in range(1, o)], dtype=mu_rows.dtype)
        lead_inv = inverse[mu_rows[np.arange(len(mus)), top]]
        monic = pr.mul_codes(base, mu_rows, lead_inv[:, None])
        codes, index = np.unique(pr.row_codes(base, monic), return_inverse=True)
        disc_codes = codes.tolist()
        disc_index = [index]
    spf = pr.spf_table(base, max(max_deg_a, 4 if even else max_deg_d))
    # the exponent // 2 of each disc at each prime of degree <= max_deg_a / 2,
    # a prime whose square may divide some a; a column per prime that occurs
    disc_facts = [pr.factor_with_spf(c, spf) for c in disc_codes]
    small = o ** (max_deg_a // 2 + 1)
    column = {pc: i for i, pc in enumerate(sorted({pc for f in disc_facts for pc, _ in f if pc < small}))}
    halved = np.zeros((len(disc_codes), len(column)), dtype=np.int8)
    for r, f in enumerate(disc_facts):
        for pc, e in f:
            if pc < small:
                halved[r, column[pc]] = e // 2
    beta_rows = {}  # code of delta -> (mu, u, log_q |zeta|, el) with beta delta = u + zeta
    if even:
        t, one = pr.T(base), pr.one(base)
        for delta, mu, beta, el in ((t, one, RatFunc(one, t), 0), (t + one, t, RatFunc(t + one, t * t), -1)):
            bd = beta * RatFunc.of(delta)
            u, rem = divmod(bd.num, bd.den)
            zl = RatFunc(rem, bd.den).v_infinity()
            beta_rows[pr.poly_code(delta)] = (mu, u, None if zl is None else -zl, el)
    els = np.array(EPS_LOGS)[:, None]
    local_tables: dict = {}  # code of P^s -> value_tables(P^s, deltas)
    pairs = 0
    for da in range(max_deg_a + 1):
        size = o**da
        for a in pr.monic_of_degree(base, da):
            items = pr.factor_with_spf(pr.poly_code(a), spf)
            omega = len(items)
            parts = [pr.code_poly(base, pc) ** s for pc, s in items] if omega > 1 else []  # the CRT moduli
            reductions = crt_reductions(a, parts) if parts else []
            # gcd_2(a, disc) depends only on the exponents of disc at the primes
            # whose square divides a: the discs that agree there form one group
            capped = [(column[pc], s // 2) for pc, s in items if s >= 2 and pc in column]
            if capped:
                cols, heights = zip(*capped)
                caps, first, group = np.unique(
                    np.minimum(halved[:, cols], heights), axis=0, return_index=True, return_inverse=True
                )
            else:  # gcd_2 = 1 for every disc
                caps, first, group = np.zeros((1, 0)), [0], np.zeros(len(disc_codes), dtype=np.int64)
            classes = []  # per group: (deg gcd_2, code of b mod a / gcd_2 for every residue b, or None)
            for cap, i in zip(caps, first):
                g2 = pr.gcd2(a, pr.code_poly(base, disc_codes[i])) if cap.any() else pr.one(base)
                classes.append((g2.deg, pr.residue_table(a // g2, size) if g2.deg else None))
            g2_deg = np.array([g2d for g2d, _ in classes])
            res = pr.row_codes(base, pr.reduce_rows(mu_rows, a))  # code of mu mod a
            tables = value_tables(a, deltas)
            for m in parts:
                if pr.poly_code(m) not in local_tables:
                    local_tables[pr.poly_code(m)] = value_tables(m, deltas)
            for j, (delta, index) in enumerate(zip(deltas, disc_index)):
                dc = pr.poly_code(delta)
                table = tables[j]
                local = [local_tables[pr.poly_code(m)][j] for m in parts]
                check_crt(table, reductions, local)
                counts = window_counts(table, da, o)
                mu_group = group[index]
                bad = np.zeros(len(mus), dtype=bool)
                for k in np.unique(mu_group):
                    g2d, cls = classes[k]
                    if not g2d:  # the classes mod a itself: one per solution
                        ncls = counts[0]
                    else:
                        ncls = np.bincount(np.unique(table * size + cls) // size, minlength=size)
                    ok = (ncls <= 2**omega) & (counts[0] == ncls * o**g2d)
                    bad |= (mu_group == k) & ~ok[res]
                over = counts[:, res] > counting_bound(omega, q, els, g2_deg[mu_group])
                failing = bad | over.any(axis=0)
                if failing.any():
                    i = int(failing.argmax())
                    at = f"a={a} delta={delta} mu={pr.code_poly(base, int(mus[i]))}"
                    if bad[i]:
                        return {"name": "counting", "ok": False, "fail": f"classes/cover {at}"}
                    el = EPS_LOGS[int(over[:, i].argmax())]
                    return {"name": "counting", "ok": False, "fail": f"bound {at} eps=q^{el}"}
                pairs += len(mus)
                if dc in beta_rows:
                    mu, u, zeta_log, el = beta_rows[dc]
                    shifted = window_counts(table, da, o, pr.poly_code(u % a), zeta_log)
                    g2d = g2_deg[mu_group[pr.poly_code(mu) - mus[0]]]
                    if shifted[EPS_LOGS.index(el), pr.poly_code(mu % a)] > counting_bound(omega, q, el, g2d):
                        return {"name": "counting", "ok": False, "fail": f"beta case a={a} delta={delta}"}
    # easycounting, exhaustively for deg m <= max_deg_m: every b0 of degree
    # < min(deg m, 2) is its own residue mod m; the first failing m is named
    for dm in range(0, max_deg_m + 1):
        failing = np.zeros(o**dm, dtype=bool)
        for Mlog in (Fraction(0), Fraction(1), Fraction(dm), Fraction(dm + 1)):
            bound = max(Fraction(1), Fraction(q) ** (1 + Mlog) / q**dm)
            failing |= (bnd.easycounting_counts(base, dm, min(dm, 2), Mlog) > math.floor(bound)).any(axis=1)
        if failing.any():
            m = pr.code_poly(base, o**dm + int(failing.argmax()))
            return {"name": "counting", "ok": False, "fail": f"easycounting m={m}"}
    return {"name": "counting", "ok": True, "pairs": pairs}


class LogTable(dict):
    """Enclosures of ln n, each taken by one `certlog.ln` call on first use,
    and `lnq2`, the enclosure of (ln q)^2 made from the one of ln q."""

    def __init__(self, q: int):
        super().__init__()
        self.lnq2 = self[q] * self[q]

    def __missing__(self, n: int):
        value = self[n] = certlog.ln(n)
        return value


def log_bound_holds(kind: str, value: int, d: int, logs: LogTable) -> bool:
    """Whether 15 deg a (ln q)^2, deg a = d, certainly bounds ln d(a) ln(deg a)
    (kind "d", value d(a)) or omega(a) ln 2 ln(deg a) (kind "w", value
    omega(a)); the enclosures come from the table `logs`."""
    if kind == "d":
        lhs = logs[value] * logs[d] if value > 1 else certlog.Interval.point(0)
    else:
        lhs = logs[2] * logs[d] * value if value else certlog.Interval.point(0)
    return lhs.certainly_le(logs.lnq2 * (15 * d))


def check_analytic_lemmas(base: FieldDesc, maxdeg: int = 10) -> dict:
    """Divisor/omega/sigma_1/Mertens bounds, exhaustively to degree `maxdeg`.

    For every monic a of degree d = 1, ..., maxdeg: sigma_1(a)/|a| <= d + 1
    and the Mertens product prod_{P | a} |P|/(|P| - 1) <= 37 d, both exactly
    and cross-multiplied, and for d >= 2 the two log bounds of
    `log_bound_holds` on d(a) and omega(a).  The statistics come one degree
    at a time from `pr.sieve_stats`, whose recurrences run through
    R(a) = a / spf(a)^E, and each check runs on a whole block at once.  The
    log bounds are certified once per distinct (kind, value, degree), from
    interval enclosures of ln n taken once per n per call (`LogTable`).  A
    failure names the least failing a in code order and, at that a, the
    first failing check in the order sigma1, mertens, maj-omega (d(a)),
    majomega (omega(a)).
    """
    q = base.q
    table = pr.spf_table(base, maxdeg)
    logs = LogTable(q)
    checked: dict = {}
    count = 0
    for d, first, omega, dcount, sigma1, mnum, mden in pr.sieve_stats(base, table, maxdeg):
        fails = [("sigma1", sigma1 > (d + 1) * q**d), ("mertens", mnum > 37 * d * mden)]
        for kind, name, values in (("d", "maj-omega", dcount), ("w", "majomega", omega)) if d >= 2 else ():
            seen = np.bincount(values)
            holds = np.zeros(len(seen), dtype=bool)
            for v in np.flatnonzero(seen).tolist():
                if (kind, v, d) not in checked:
                    checked[kind, v, d] = log_bound_holds(kind, v, d, logs)
                holds[v] = checked[kind, v, d]
            fails.append((name, ~holds[values]))
        failing = np.logical_or.reduce([bad for _, bad in fails])
        if failing.any():
            i = int(failing.argmax())
            name = next(name for name, bad in fails if bad[i])
            return {"name": "analytic", "ok": False, "fail": f"{name} {pr.code_poly(base, first + i)}"}
        count += len(omega)
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


def check_certificate(base: FieldDesc) -> dict:
    q = base.q
    rep = bnd.final_certificate(base)
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
    """Lemma A.1 (the delta_a valuation, deg a <= max_deg_a) and the A.2
    sum-valuation for (delta, mu, nu) = (q, 1, 1) and (q - 1, 0, 0) on every
    point, as one stack per order (`modforms.verify_appendix`): one embedding
    of the order's points and one Carlitz sum S_a for every (point, a) that
    either lemma needs.  The A.1 valuation of t(az) itself is the assertion
    `modforms.carlitz_S` makes on every row it computes."""
    q = base.q
    params = [(q, 1, 1), (q - 1, 0, 0)]
    points = 0
    for order in iter_orders(base, d_bound):
        rep = order_report(order, check_brown=False)
        for pt, (a1, a2) in zip(rep.points, verify_appendix(rep.points, params, max_deg_a)):
            points += 1
            if not all(r["ok"] for r in a1):
                return {"name": "appendix", "ok": False, "fail": f"{order.label()} a={pt.a}"}
            if not all(r["ok"] for r in a2):
                return {"name": "appendix", "ok": False, "fail": f"A2 {order.label()} a={pt.a}"}
    return {"name": "appendix", "ok": True, "points": points}


def check_elliptic_lemmas(base: FieldDesc, d_bound: int) -> dict:
    """The attained distance floor, majb data, cardC.

    The floor |z - e| >= q^-elliptic_floor_log itself is asserted by
    `cmpoints.elliptic_neighbor` on every point as the order is enumerated;
    this suite records that some point attains it.  The cardC bound is
    stated for inert orders with |D| >= q^4; when none lies below d_bound
    the report says under "unchecked" that it checked no case.
    """
    q = base.q
    floor_attained = False
    cardc_checked = 0
    for order in iter_orders(base, d_bound):
        rep = order_report(order, check_brown=False)
        near = [p for p in rep.points if p.dist_e_log is not None]
        for p in near:
            if -p.dist_e_log == elliptic_floor_log(order):
                floor_attained = True
            res = majb_check(p, Fraction(1))
            if not all(res.values()):
                return {"name": "elliptic", "ok": False, "fail": f"majb {order.label()} a={p.a}"}
        # cardC bound for |D| >= q^4
        d = order.disc_deg()
        if order.field.infinite_type == "inert" and d >= 4:
            _, power = bnd.disc_power(q, d)
            for eps in (Fraction(1), Fraction(1, q), Fraction(1, q * q)):
                card = len(c_epsilon_set(near, eps))
                # 3 q eps sqrt|D| |D|^(15/(2 loglog sqrt|D|)) log_q sqrt|D|
                bound = certlog.Interval.point(3 * q * eps * Fraction(q) ** (d // 2) * Fraction(d, 2)) * power
                if not bound.certainly_ge(card):
                    return {"name": "elliptic", "ok": False, "fail": f"cardC {order.label()} eps={eps}"}
                cardc_checked += 1
    rep = {"name": "elliptic", "ok": True, "floor_attained": floor_attained, "cardC_checked": cardc_checked}
    if not cardc_checked:
        rep["unchecked"] = "cardC checked 0 cases; no inert order with |D| >= q^4 lies below --dbound"
    return rep


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
    out.append(check_certificate(base))
    return out
