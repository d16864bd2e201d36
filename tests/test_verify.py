from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from drinfeld_cm.errors import InvariantError
from drinfeld_cm.ffield import field
from drinfeld_cm import polyring as pr
from drinfeld_cm.quadfield import RatFunc
from drinfeld_cm import verify
from drinfeld_cm.verify import (
    EPS_LOGS,
    check_analytic_lemmas,
    check_counting_lemmas,
    check_elliptic_lemmas,
    check_crt,
    counting_bound,
    crt_reductions,
    value_tables,
    window_counts,
)

FIELDS = {2: field(2), 3: field(3), 4: field(2, 2), 5: field(5)}


@pytest.mark.parametrize("q", [3, 5])
def test_analytic_lemmas_tiny(q):
    n = 3
    rep = check_analytic_lemmas(field(q), maxdeg=n)
    assert rep["ok"] is True
    assert rep["polynomials"] == sum(q**d for d in range(1, n + 1))  # every monic of degree 1..n


def test_analytic_lemmas_f4_to_degree_8():
    rep = check_analytic_lemmas(field(2, 2), 8)
    assert rep == {"name": "analytic", "ok": True, "polynomials": sum(4**d for d in range(1, 9))}


def test_analytic_lemmas_f7_to_degree_7():
    # d(T^7 - T) = 2^7 is the largest value of d(a) here, and np.bincount reads it
    rep = check_analytic_lemmas(field(7), 7)
    assert rep == {"name": "analytic", "ok": True, "polynomials": sum(7**d for d in range(1, 8))}


def _least_with(base, kind, value, d):
    """The least monic a of degree d in code order with d(a) = value (kind "d")
    or omega(a) = value (kind "w"), by factoring every one."""
    for a in pr.monic_of_degree(base, d):
        items = pr.factor(a)[1]
        dcount = 1
        for _, e in items:
            dcount *= e + 1
        if (dcount if kind == "d" else len(items)) == value:
            return a
    raise AssertionError("no polynomial with this key")


@pytest.mark.parametrize(
    "keys, name",
    [
        ([("d", 2, 3)], "maj-omega"),  # the least prime of degree 3, T^3+2*T+1
        ([("d", 3, 4)], "maj-omega"),  # (T^2+1)^2, the 20th monic of degree 4
        ([("d", 8, 5)], "maj-omega"),
        ([("w", 2, 3)], "majomega"),
        ([("w", 3, 5)], "majomega"),
        ([("w", 1, 4), ("d", 5, 4)], "maj-omega"),  # both fail first at T^4: d(a) is checked first
        ([("d", 3, 4), ("w", 2, 4)], "majomega"),  # omega = 2 at T^4+1 comes before (T^2+1)^2
    ],
)
def test_analytic_failure_names_the_least_polynomial_with_the_failing_key(monkeypatch, keys, name):
    # one (kind, value, degree) key of the log bounds fails; the suite must name
    # the least polynomial that has it, found here by brute force, and certify
    # every key once
    base = field(3)
    real = verify.log_bound_holds
    asked = []

    def failing(base, kind, value, d):
        asked.append((kind, value, d))
        return (kind, value, d) not in keys and real(base, kind, value, d)

    monkeypatch.setattr(verify, "log_bound_holds", failing)
    rep = check_analytic_lemmas(base, 5)
    least = min((_least_with(base, *key) for key in keys), key=pr.poly_code)
    assert rep == {"name": "analytic", "ok": False, "fail": f"{name} {least}"}
    assert len(asked) == len(set(asked))


def test_analytic_suite_takes_each_log_once(monkeypatch):
    # one certlog.ln call per distinct argument for the life of the base
    # field: a second run takes none, and every enclosure the field holds
    # equals a fresh one
    from drinfeld_cm import certlog
    from drinfeld_cm.bounds import ln_int

    real_ln = certlog.ln
    args = []

    def counting(x):
        args.append(x)
        return real_ln(x)

    monkeypatch.setattr(certlog, "ln", counting)
    base = field(3)
    for _ in range(2):
        rep = check_analytic_lemmas(base, 9)
        assert rep == {"name": "analytic", "ok": True, "polynomials": 29523}
        assert len(args) == len(set(args)) == 32
    monkeypatch.setattr(certlog, "ln", real_ln)
    assert 3 in args
    for n in args:
        assert ln_int(base, n) == certlog.ln(n)
    assert base.held("ln q squared", lambda: None) == certlog.ln(3) * certlog.ln(3)


@pytest.mark.parametrize("q, d", [(2, 3), (2, 9), (3, 2), (3, 5), (5, 2), (5, 9)])
def test_log_bound_holds_up_to_the_exact_threshold(q, d):
    # omega ln 2 ln d <= 15 d (ln q)^2 exactly for omega <= K, and
    # ln d(a) = k ln 2 for d(a) = 2^k; K is found at 200 bits and lies far
    # from an integer (q = 2 with d = 2 or 4 would put it on one), so each
    # key reads every enclosure it should
    import mpmath

    with mpmath.workprec(200):
        bound = 15 * d * mpmath.ln(q) ** 2 / (mpmath.ln(2) * mpmath.ln(d))
        K = int(mpmath.floor(bound))
        assert min(bound - K, K + 1 - bound) > mpmath.mpf(10) ** -6
    base = field(q)
    assert verify.log_bound_holds(base, "w", K, d)
    assert not verify.log_bound_holds(base, "w", K + 1, d)
    assert verify.log_bound_holds(base, "d", 2**K, d)
    assert not verify.log_bound_holds(base, "d", 2 ** (K + 1), d)


@pytest.mark.parametrize("q", [3, 5])
def test_counting_lemmas_tiny(q):
    # F_3 runs the default easycounting range (deg m <= 4), F_5 deg m <= 2
    da, dd = 1, 2
    kwargs = {"max_deg_m": 2} if q == 5 else {}
    rep = check_counting_lemmas(field(q), da, dd, **kwargs)
    assert rep["ok"] is True
    # every monic a of degree <= da against every nonzero D of degree <= dd
    monic_a = sum(q**d for d in range(da + 1))
    monic_d = sum(q**d for d in range(dd + 1))
    assert rep["pairs"] == monic_a * monic_d * (q - 1)


def brute_window(sols, a, el, u=None, zeta_log=None):
    """How many residues b of `sols` have |b + beta delta| < q^el |a|, with
    beta delta = u + zeta, |zeta| = q^zeta_log (zeta = 0 when zeta_log is
    None): b' = (b + u) mod a has size |b'|, or |zeta| when b' = 0."""
    L = a.deg + el
    count = 0
    for b in sols:
        moved = (b + u) % a if u is not None else b
        if moved.is_zero():
            count += zeta_log is None or zeta_log < L
        else:
            count += moved.deg < L
    return count


@pytest.mark.parametrize("q", [3, 5, 2, 4])
def test_window_counts_match_brute_force(q):
    # the suite's path against a direct enumeration of the residues b mod a:
    # mu mod a from the residue table, its solutions and its window counts
    # from the table of b^2 + delta b mod a
    fld = FIELDS[q]
    even = fld.p == 2
    mu_deg = 3  # deg mu <= 3 for even q, deg D <= 3 for odd q
    mus = [pr.code_poly(fld, c) for c in range(0 if even else 1, q ** (mu_deg + 1))]
    deltas = [pr.code_poly(fld, c) for c in range(1, q**3)] if even else [pr.zero(fld)]
    t, one = pr.T(fld), pr.one(fld)
    # the two beta rows of even q: (delta, mu, u, log_q |zeta|, el) with beta delta = u + zeta
    beta_rows = []
    rows = ((t, one, RatFunc(one, t), 0), (t + one, t, RatFunc(t + one, t * t), -1))
    for delta, mu, beta, el in rows if even else ():
        bd = beta * RatFunc.of(delta)
        u, rem = divmod(bd.num, bd.den)
        zl = RatFunc(rem, bd.den).v_infinity()
        beta_rows.append((delta, mu, u, None if zl is None else -zl, el))
    assert [(u, z) for _, _, u, z, _ in beta_rows] == ([(one, None), (one, -2)] if even else [])
    checked = 0
    for da in range(3):
        for a in pr.monic_of_degree(fld, da):
            res = pr.residue_table(a, q ** (mu_deg + 1))
            mu_mod_a = [(pr.poly_code(mu), pr.poly_code(mu % a)) for mu in mus]
            residues = list(pr.all_of_degree_less(fld, da))
            for delta, table in zip(deltas, value_tables(a, deltas)):
                counts = window_counts(table, da, q)
                direct: dict = {}
                for b in residues:
                    direct.setdefault(pr.poly_code((b * b + delta * b) % a), []).append(b)
                read = {r: np.flatnonzero(table == r).tolist() for r in range(len(table))}
                expect = {r: [pr.poly_code(b) for b in direct.get(r, [])] for r in range(len(table))}
                windows = {r: [brute_window(direct.get(r, []), a, el) for el in EPS_LOGS] for r in range(len(table))}
                for code, r in mu_mod_a:
                    assert res[code] == r
                    assert read[res[code]] == expect[r]
                    assert counts[:, res[code]].tolist() == windows[r]
                    checked += 1
                for d, mu, u, zeta_log, el in beta_rows:
                    if d == delta:
                        sols = direct.get(pr.poly_code(mu % a), [])
                        shifted = window_counts(table, da, q, pr.poly_code(u % a), zeta_log)
                        want = [brute_window(sols, a, e, u, zeta_log) for e in EPS_LOGS]
                        assert shifted[:, pr.poly_code(mu % a)].tolist() == want
    assert checked == sum(q**d for d in range(3)) * len(deltas) * len(mus)


@pytest.mark.parametrize(
    "q, a_text, delta_text",
    [(2, "T^3+T", "T"), (2, "T^4+T^2+T", "T^2+1"), (3, "T^3+T^2", "0"), (4, "T^2+T", "2*T+3"), (5, "T^3+T", "0")],
)
def test_crt_check_catches_a_perturbed_entry(q, a_text, delta_text):
    fld = FIELDS[q]
    a = pr.parse_poly(fld, a_text)
    delta = pr.parse_poly(fld, delta_text)
    parts = [P**s for P, s in pr.factor(a)[1]]
    assert len(parts) >= 2
    reductions = crt_reductions(a, parts)
    local = [value_tables(m, [delta])[0] for m in parts]
    table = value_tables(a, [delta])[0]
    check_crt(table, reductions, local)
    for b in range(len(table)):
        bad = table.copy()
        bad[b] = (bad[b] + 1) % len(table)
        with pytest.raises(InvariantError):
            check_crt(bad, reductions, local)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_value_tables_agree_with_poly_arithmetic(q):
    # every a of degree <= 2 (deg a = 0 included, and one non-monic a) against
    # every delta of degree <= 1 and two of degree 2 and 3, so deg delta >= deg a
    # occurs at every deg a; F_4 is not a prime field, so its code tables are
    # not arithmetic mod p, and its tables are doubled from the bits of b
    fld = FIELDS[q]
    deltas = [pr.code_poly(fld, c) for c in range(q**2)] + [pr.code_poly(fld, c) for c in (q**2 + 1, q**3 + q)]
    moduli = [a for d in range(3) for a in pr.monic_of_degree(fld, d)] + [pr.parse_poly(fld, "2*T^2+1")]
    for a in moduli:
        tables = value_tables(a, deltas)
        assert tables.shape == (len(deltas), q ** max(0, a.deg))
        for delta, table in zip(deltas, tables):
            want = [pr.poly_code((b * (b + delta)) % a) for b in pr.all_of_degree_less(fld, a.deg)]
            assert table.tolist() == want


def test_crt_reductions_need_coprime_moduli():
    fld = field(3)
    t = pr.T(fld)
    with pytest.raises(InvariantError):
        crt_reductions(t * t, [t, t])


def test_counting_bound_is_the_lemmas():
    # 2^omega max(1, q eps |gcd_2|) with eps = q^el, in exact arithmetic
    for omega, q, el, g2_deg in product(range(3), (2, 3, 4, 5), EPS_LOGS, range(3)):
        want = 2**omega * max(1, q * Fraction(q) ** el * q**g2_deg)
        assert counting_bound(omega, q, el, g2_deg) == want


def test_counting_lemmas_even_q_above_2():
    # eps = 1/q in the second beta case; every monic a of degree 0 against
    # every nonzero delta of degree <= 2 and mu of degree <= 3
    rep = check_counting_lemmas(field(2, 2), 0, 0, max_deg_m=1)
    assert rep == {"name": "counting", "ok": True, "pairs": 16128}


def test_counting_lemmas_f2_default_sizes():
    # every monic a of degree <= 5, nonzero delta of degree <= 2, mu of degree <= 3
    assert check_counting_lemmas(field(2)) == {"name": "counting", "ok": True, "pairs": 63 * 7 * 16}


def test_counting_reads_tables_not_one_division_per_mu(monkeypatch):
    # 21 monic a x 63 delta x 256 mu: the table path divides O(#(a, delta))
    # times, so a path that divides once per mu cannot come back unnoticed
    calls = []
    real = pr.Poly.__divmod__

    def counting(self, other):
        calls.append(1)
        return real(self, other)

    monkeypatch.setattr(pr.Poly, "__divmod__", counting)
    rep = check_counting_lemmas(field(2, 2), 2, 0, max_deg_m=0)
    assert rep == {"name": "counting", "ok": True, "pairs": 338688}
    assert len(calls) < 338688 // 10


def test_counting_makes_few_poly_products(monkeypatch):
    # the residue tables, value tables and easycounting counts are array
    # passes on coefficient rows; a per-residue or per-(m, b0, t) Poly product
    # or division coming back would cost tens of thousands of calls (27 509
    # products and 22 508 divisions before the array passes)
    calls = {"mul": 0, "divmod": 0}
    real_mul, real_divmod = pr.Poly.__mul__, pr.Poly.__divmod__

    def counting_mul(self, other):
        calls["mul"] += 1
        return real_mul(self, other)

    def counting_divmod(self, other):
        calls["divmod"] += 1
        return real_divmod(self, other)

    monkeypatch.setattr(pr.Poly, "__mul__", counting_mul)
    monkeypatch.setattr(pr.Poly, "__divmod__", counting_divmod)
    rep = check_counting_lemmas(field(3), 4, 6)
    assert rep == {"name": "counting", "ok": True, "pairs": 264506}
    assert calls["mul"] < 2500 and calls["divmod"] < 2500


def test_easycounting_failure_names_the_least_failing_m(monkeypatch):
    # a count of bound + 1 at the 5th and 7th monic m of degree 2 over F_3 (one
    # M_log each) is reported at the 5th, in code order; a count equal to the
    # bound max(1, q^(1 + M_log)/|m|) = 3^(1 + M_log - 2) passes
    real = verify.bnd.easycounting_counts
    excess = []

    def overcounting(base, deg_m, b0_deg, M_log):
        counts = real(base, deg_m, b0_deg, M_log)
        if deg_m == 2 and M_log in (2, 3):
            counts[4 if M_log == 3 else 6, -1] = 3 ** int(M_log - 1) + excess[0]
        return counts

    monkeypatch.setattr(verify.bnd, "easycounting_counts", overcounting)
    for extra, want in ((0, {"name": "counting", "ok": True, "pairs": 2}),
                        (1, {"name": "counting", "ok": False, "fail": f"easycounting m={pr.code_poly(field(3), 9 + 4)}"})):
        excess[:] = [extra]
        assert check_counting_lemmas(field(3), 0, 0, max_deg_m=3) == want


def test_cardc_bound_runs_on_inert_orders_from_q4():
    # verify at q = 2, |D| <= 8 and q = 3, |D| <= 27 stays below |D| = q^4, where the cardC bound starts
    rep = check_elliptic_lemmas(field(2), 16)
    assert rep["ok"] and rep["cardC_checked"] == 60


def test_appendix_runs_one_carlitz_sum_per_order_and_elliptic_embeds_nothing(monkeypatch):
    # the order reports (points and j-values) are held before counting
    from drinfeld_cm import modforms, quadfield

    base = field(3)
    orders = verify.check_brown_sweep(base, 27)["orders"]
    calls = []

    def counting(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    counting(modforms, "carlitz_S")
    counting(modforms, "embed")
    counting(quadfield, "embed")
    assert verify.check_appendix_lemmas(base, 27) == {"name": "appendix", "ok": True, "points": 237}
    assert calls.count("carlitz_S") == calls.count("embed") == orders == 69
    calls.clear()
    assert check_elliptic_lemmas(base, 27)["ok"] and calls == []


def test_a_failing_maximal_class_bound_fails_verify(monkeypatch, capsys):
    # h(O_K) past 2/(q+1) q^(deg D_K/2) deg D_K is an invariant violation:
    # exit 1.  The reports, whose conductor counts read h(O_K) too, are held first
    from drinfeld_cm import classno, cli

    verify.check_hayes()
    verify.check_brown_sweep(field(3), 9)
    monkeypatch.setattr(classno, "maximal_class_number", lambda fld: 10**6)
    assert cli.main(["verify", "--dbound", "9"]) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("invariant violation: class bound h(O_K) <= 2/(q+1)")
