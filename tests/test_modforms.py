import math
from collections import OrderedDict
from dataclasses import replace
from fractions import Fraction

import pytest

from drinfeld_cm.errors import BadInputError, InvariantError
from drinfeld_cm.ffield import field, quadratic_extension, embedding_table
from drinfeld_cm.laurent import LaurentSeries
from drinfeld_cm import polyring as pr
from drinfeld_cm.brownval import brown_prec, log_abs_j, moduli_of
from drinfeld_cm.cmpoints import enumerate_points
from drinfeld_cm import brownval, modforms, sweeps
from drinfeld_cm.modforms import (
    _truncate,
    eval_j,
    eval_j_stack,
    hilbert_poly,
    unit_check,
    verify_appendix,
)
from drinfeld_cm.quadfield import QuadSeries, order_from, order_from_discriminant, validate_field

from conftest import empty_registry

F2 = field(2)
F3 = field(3)
F4 = field(2, 2)
F5 = field(5)


def P(fld, text):
    return pr.parse_poly(fld, text)


def hayes_order():
    # over the registry's current F_3: after `empty_registry`, one that holds nothing yet
    base = field(3)
    return order_from_discriminant(base, P(base, "T-T^2"))


def all_points(order):
    return enumerate_points(order)


def test_eval_j_matches_formula_hayes():
    for pt in all_points(hayes_order()):
        assert -eval_j(pt, brown_prec(pt)).value.valuation() == log_abs_j(pt)


def test_eval_j_matches_formula_other_flavors():
    orders = [
        order_from_discriminant(F3, P(F3, "T")),
        order_from_discriminant(F3, P(F3, "T^3+2*T+1")),
        order_from(validate_field(F2, "even_insep"), P(F2, "T")),
        order_from(validate_field(F2, "even_sep", B=P(F2, "T+1"), C=P(F2, "T")), pr.one(F2)),
        order_from(validate_field(F2, "even_sep", B=P(F2, "T"), C=pr.one(F2)), pr.one(F2)),
    ]
    for o in orders:
        for pt in all_points(o):
            assert -eval_j(pt, brown_prec(pt)).value.valuation() == log_abs_j(pt)


def test_lemma_A1_identity():
    # insep z = sqrt(T): v(t(z)) = (2 - 1/2)*2 = 3 (the worked example), and v(delta_a) = -v(t(az))
    o = order_from(validate_field(F2, "even_insep"), pr.one(F2))
    ((rows, _),) = verify_appendix([all_points(o)[0]], [], max_deg_a=2)
    assert all(r["ok"] for r in rows) and len(rows) == 1 + 2 + 4
    assert rows[0]["v_delta_computed"] == -3
    # deg a = 1 scales the valuation by q
    assert rows[1]["v_delta_computed"] == -6
    seed = [p for p in all_points(hayes_order()) if p.a.is_one()][0]
    ((rows3, _),) = verify_appendix([seed], [], max_deg_a=2)
    assert all(r["ok"] for r in rows3)
    assert rows3[0]["v_delta_computed"] == -Fraction(9, 2)  # v(t(z)^2) = 9


def test_lemma_A2():
    seed = [p for p in all_points(hayes_order()) if p.a.is_one()][0]
    # (delta=q, mu=1, nu=1) and (delta=q-1, nu=0): the leading term of 1 - gt
    ((_, (r1, r2)),) = verify_appendix([seed], [(3, 1, 1), (2, 0, 0)])
    assert r1["ok"] and r1["expected"] == (3 - 1) * Fraction(3, 2) * 3
    assert r2["ok"]
    with pytest.raises(BadInputError):
        verify_appendix([seed], [(1, 0, 1)])  # delta < nu + 1
    with pytest.raises(BadInputError):
        verify_appendix([seed], [(3, 10**6, 1)])  # mu too large


def test_hayes_product_and_branch():
    mods = moduli_of(hayes_order(), value_prec=40)
    j1, j2 = mods[0].numeric, mods[1].numeric
    prod = j1 * j2
    poly, tail = prod.polynomial_part()
    assert tail is None
    F9 = quadratic_extension(F3)
    emb = embedding_table(F3, F9)
    assert poly == (P(F3, "T-T^2") ** 4).map_coeffs(emb, F9)
    # j1 = (T-T^2)^2 * (1 + T + sqrt(T^2-T))^5 for exactly one branch
    s = LaurentSeries.from_poly(P(F3, "T^2-T"), F3).truncate(60).sqrt()
    matches = []
    for root in (s, -s):
        eta = LaurentSeries.from_poly(P(F3, "T+1"), F3) + root
        cand = LaurentSeries.from_poly(P(F3, "T-T^2") ** 2, F3) * eta**5
        codes = [emb[cand.coeff_code(e)] for e in range(cand.valuation(), 25)]
        cand9 = LaurentSeries.from_codes(F9, cand.valuation(), codes, 25)
        matches.append((j1.truncate(25) - cand9).is_zero_known())
    assert sorted(matches) == [False, True]


def test_hilbert_hayes():
    H = hilbert_poly(hayes_order())
    assert H.m == 2
    assert H.coeffs[0] == P(F3, "T-T^2") ** 4
    assert H.coeffs[2].is_one()
    assert H.coeffs[1].deg == 9  # -(j1 + j2)
    assert H.constant_term_degree() == 8
    assert unit_check(H) == ("nonunit", 8)


def test_hilbert_stability(monkeypatch):
    H1 = hilbert_poly(hayes_order())
    monkeypatch.setattr(brownval, "_store", {})  # an emptied store: H2 is built afresh
    monkeypatch.setattr(brownval, "_holding", OrderedDict())
    monkeypatch.setattr(modforms, "GUARD", 30)
    H2 = hilbert_poly(hayes_order())
    assert H2 is not H1 and H1.coeffs == H2.coeffs and H1.residuals != H2.residuals


def test_hilbert_insep():
    o = order_from(validate_field(F2, "even_insep"), P(F2, "T"))
    H = hilbert_poly(o)
    assert H.m == 2
    x0, y0 = H.coeffs[0]
    assert (x0 * x0 + pr.T(F2) * y0 * y0).deg == 18  # |const|^2 = q^18 -> degree 9
    assert H.constant_term_degree() == 9
    assert unit_check(H)[0] == "nonunit"


def test_hilbert_poly_under_a_user_modulus_is_over_the_orders_base():
    # F_9 = F_3[x]/(x^2 + x + 2) here, F_3[x]/(x^2 + 1) by default; D has the
    # leading coefficient x, a non-square, so infinity is inert
    base = field(3, 2, 1, (2, 1, 1))
    default = field(3, 2)
    D = P(base, "3*T^2+1")
    H = hilbert_poly(order_from_discriminant(base, D))
    assert all(c.field == base for c in H.coeffs)
    # the isomorphism to the default presentation sends x to a root of x^2 + x + 2
    root = next(r for r in range(9) if default.add(default.add(default.mul(r, r), r), 2) == 0)
    image = [default.add(c0, default.mul(c1, root)) for c0, c1 in map(base.coords, range(9))]
    H0 = hilbert_poly(order_from_discriminant(default, D.map_coeffs(image, default)))
    assert [c.map_coeffs(image, default) for c in H.coeffs] == H0.coeffs


def test_hilbert_h_of_j_vanishes():
    # H(j_i) = 0 to precision for each conjugate
    o = hayes_order()
    H = hilbert_poly(o)
    mods = moduli_of(o, value_prec=40)
    F9 = quadratic_extension(F3)
    for m in mods:
        j = m.numeric
        acc = LaurentSeries.zero(F9, None)
        for c in reversed(H.coeffs):
            acc = acc * j + LaurentSeries.from_poly(c, F9)
        assert acc.is_zero_known()


def test_eval_j_plan_reported():
    seed = [p for p in all_points(hayes_order()) if p.a.is_one()][0]
    jv = eval_j(seed, 25)
    assert jv.plan["max_deg_a"] >= 1 and jv.plan["e_c_terms"] >= 2


SHARED_STATE_ORDERS = {
    "inert odd": hayes_order,
    "inert even_sep": lambda: order_from(sep4("2*T+2", "T"), pr.one(field(2, 2))),
    "ramified odd": lambda: order_from_discriminant(field(3), P(field(3), "T^3+2*T+1")),
}


@pytest.mark.parametrize("name", sorted(SHARED_STATE_ORDERS))
def test_eval_j_shared_state_matches_fresh(name):
    # after `empty_registry` an order is built over a fresh base field and a
    # fresh QuadField, which hold no Carlitz context and no xi series
    make = SHARED_STATE_ORDERS[name]
    lo, hi = 12, 40

    def fresh(i, prec):
        empty_registry()
        return eval_j(enumerate_points(make())[i], prec)

    npts = len(enumerate_points(make()))
    expect = {(i, prec): fresh(i, prec) for i in range(npts) for prec in (lo, hi)}
    for precs in ((hi, lo), (lo, hi)):
        empty_registry()
        pts = enumerate_points(make())
        for prec in precs:
            for i, pt in enumerate(pts):
                got, want = eval_j(pt, prec), expect[(i, prec)]
                assert got.plan == want.plan
                if isinstance(got.value, LaurentSeries):
                    assert got.value == want.value
                else:
                    assert (got.value.x, got.value.y) == (want.value.x, want.value.y)
        k = pts[0].order.field
        contexts = [key for key in k.base._held if key[0] == "carlitz"]
        assert 0 < len(contexts) < 2 * npts  # some points shared a context
        if k.infinite_type == "inert":
            assert any(key[0] == "xi" for key in k._held)  # the field held its xi series


def sep4(B, C):
    base = field(2, 2)  # the registry's current F_4, as in hayes_order
    return validate_field(base, "even_sep", B=P(base, B), C=P(base, C))


def odd(q, D):
    base = field(q)  # the registry's current F_q, as in hayes_order
    return order_from_discriminant(base, P(base, D))


STACK_ORDERS = {
    "q3 odd inert": hayes_order,
    "q3 odd ramified": lambda: odd(3, "T^3+T"),
    "q4 even_sep inert": lambda: order_from(sep4("2*T+2", "T"), pr.one(field(2, 2))),
    "q4 even_sep ramified": lambda: order_from(sep4("T", "1"), P(field(2, 2), "T+2")),
    "q4 even_insep": lambda: order_from(validate_field(field(2, 2), "even_insep"), P(field(2, 2), "T^2")),
    "q5 odd inert": lambda: odd(5, "2*T^2+2"),
    "q5 odd ramified": lambda: odd(5, "2*T^3+1"),
}


def stacks(order):
    """The order's points grouped as the store stacks them: equal n, eps and |j|."""
    groups: dict = {}
    for pt in enumerate_points(order):
        groups.setdefault((pt.n, pt.eps, log_abs_j(pt)), []).append(pt)
    return list(groups.values())


def same_value(a, b):
    parts = (lambda v: (v,) if isinstance(v, LaurentSeries) else (v.x, v.y))
    return parts(a.value) == parts(b.value) and a.plan == b.plan


def one_point_values(make, precs_of) -> list:
    """eval_j at every point of the order make() builds, over a fresh field
    registry, at each precision list of precs_of(points); then the registry
    is emptied again, so a stack evaluated next shares no held context or
    plan with these."""
    empty_registry()
    pts = enumerate_points(make())
    values = [[eval_j(p, prec) for p, prec in zip(pts, precs)] for precs in precs_of(pts)]
    empty_registry()
    return values


@pytest.mark.parametrize("name", sorted(STACK_ORDERS))
def test_stacked_rows_equal_one_point_evaluations(name):
    make = STACK_ORDERS[name]

    def precs_of(pts):
        return [brown_prec(p) for p in pts], [20] * len(pts)

    want = one_point_values(make, precs_of)
    pts = enumerate_points(make())
    groups = stacks(make())
    assert max(map(len, groups)) > 1
    if "ramified" in name:  # a row whose x-part is 0 shares a stack with rows whose x-part is not
        assert any(any(p.b.is_zero() for p in g) and not all(p.b.is_zero() for p in g) for g in groups)
    for group in groups:
        for k, prec in enumerate((brown_prec(group[0]), 20)):
            rows = eval_j_stack(group, prec)
            assert [jv.point for jv in rows] == group
            assert all(same_value(jv, want[k][pts.index(pt)]) for jv, pt in zip(rows, group))


@pytest.mark.parametrize("name", sorted(STACK_ORDERS))
def test_one_call_over_an_order_equals_one_point_evaluations(name):
    # the points differ in n, |j| and precision, so the rows differ in every valuation
    make = STACK_ORDERS[name]

    def precs_of(pts):
        return [brown_prec(p) for p in pts], [20] * len(pts)

    want = one_point_values(make, precs_of)
    pts = enumerate_points(make())
    assert len({p.n for p in pts}) > 1
    for precs, expect in zip(precs_of(pts), want):
        rows = eval_j_stack(pts, precs)
        assert [jv.point for jv in rows] == pts
        for jv, w, prec in zip(rows, expect, precs):
            assert same_value(jv, w) and jv.value.prec == prec


def test_close_needs_share_a_stack_and_far_ones_do_not():
    # needs within a digit, as at the Brown precision: one stack
    needs = [Fraction(10), Fraction(21, 2), Fraction(11)]
    assert modforms._close([0, 1, 2], needs.__getitem__, lambda i: 9) == [[0, 1, 2]]
    # short rows padded to a longer one cost less than one more stack
    assert modforms._close(["d2", "d0"], {"d0": 15, "d2": 2}.get, {"d0": 8, "d2": 72}.get) == [["d2", "d0"]]
    # 28 rows padded from 112 to 142 digits cost more than one more stack
    assert modforms._close(["d0", "d1"], {"d0": 142, "d1": 112}.get, {"d0": 5, "d1": 28}.get) == [["d1"], ["d0"]]


def test_stack_rejects_points_of_two_orders():
    pts = enumerate_points(hayes_order())
    other = enumerate_points(order_from_discriminant(F3, P(F3, "2*T^2+2")))
    with pytest.raises(BadInputError):
        eval_j_stack([pts[0], other[0]], 12)


def test_a_forged_row_in_a_mixed_stack_is_caught():
    pts = enumerate_points(order_from_discriminant(F3, P(F3, "2*T^4+2")))
    assert len({p.n for p in pts}) == 3
    far = next(p for p in pts if p.n == 0 and log_abs_j(p) == -1)
    near = next(p for p in pts if p.n == 0 and log_abs_j(p) == -5)
    high = next(p for p in pts if p.n == 2)
    precs = [brown_prec(p) for p in pts]
    # the z of a point of another n: the embedding's valuation is checked
    forged = [replace(p, z=far.z) if p is high else p for p in pts]
    with pytest.raises(InvariantError, match="v\\(z\\) is 0, formula says -2"):
        eval_j_stack(forged, precs)
    # the z of a point of the same n but another |j|: only the check of every row sees it
    forged = [replace(p, z=near.z) if p is far else p for p in pts]
    with pytest.raises(InvariantError, match="numeric valuation of j is 5"):
        eval_j_stack(forged, 12)


def test_stack_checks_the_valuation_of_every_row():
    # a forged second row carries the z of a point whose j has valuation 5,
    # not the stack's 1; the stack's least valuation is still 1, so only the
    # check of every row sees it
    pts = enumerate_points(order_from_discriminant(F3, P(F3, "2*T^4+2")))
    far = next(p for p in pts if p.n == 0 and log_abs_j(p) == -1)
    near = next(p for p in pts if p.n == 0 and log_abs_j(p) == -5)
    assert all(same_value(jv, eval_j(far, 12)) for jv in eval_j_stack([far, far], 12))
    with pytest.raises(InvariantError, match="numeric valuation of j is 5"):
        eval_j_stack([far, replace(far, z=near.z)], 12)


def test_stacked_retry_matches_one_point_retry(monkeypatch):
    # Carlitz data 20 digits short make the first round fall short of the
    # precision asked for: the whole stack retries, with the plan of the
    # one-point retry for every row
    real = modforms._context_for
    works = set()

    def starved(order, prec):
        works.add(prec)
        return real(order, prec - 20)

    monkeypatch.setattr(modforms, "_context_for", starved)
    empty_registry()  # the orders below are built over fresh base fields, which hold no context
    for name in ("q3 odd inert", "q4 even_sep inert"):
        group = max(stacks(STACK_ORDERS[name]()), key=len)
        works.clear()
        rows = eval_j_stack(group, 20)
        assert len(group) > 1 and len(works) == 2  # one retry
        for jv, pt in zip(rows, group):
            assert same_value(jv, eval_j(pt, 20)) and jv.value.prec == 20


def record_rounds(monkeypatch) -> list:
    """From now on, record (margin, points, short) for every call of
    `modforms._eval_rows`, one round of a stack: short[i] is True where
    points[i] fell short of its precision."""
    rounds = []
    real = modforms._eval_rows

    def recording(points, precs, margin):
        out = real(points, precs, margin)
        rounds.append((margin, points, [jv is None for jv in out]))
        return out

    monkeypatch.setattr(modforms, "_eval_rows", recording)
    return rounds


def test_the_first_round_of_a_stack_runs_at_the_target(monkeypatch):
    rounds = record_rounds(monkeypatch)
    for make in STACK_ORDERS.values():
        pts = enumerate_points(make())
        eval_j_stack(pts, [brown_prec(p) for p in pts])
        eval_j_stack(pts, 20)
    assert rounds and all(margin == 0 and not any(short) for margin, _, short in rounds)


@pytest.mark.parametrize("name", ["q3 odd inert", "q4 even_insep", "q5 odd inert"])
def test_short_rows_reach_their_target_on_the_retry_at_margin_18(name, monkeypatch):
    # Carlitz data 16 digits short leave rows of the first round, made at the
    # target itself, short of it; only those rows are made again, 18 digits
    # past the target, and reach it with the digits of an unstarved one-point
    # evaluation and the plan of one made 18 digits further
    pts = enumerate_points(STACK_ORDERS[name]())
    want = [(eval_j(p, 20), eval_j(p, 38).plan) for p in pts]
    real = modforms._context_for
    monkeypatch.setattr(modforms, "_context_for", lambda order, prec: real(order, prec - 16))
    rounds = record_rounds(monkeypatch)
    rows = eval_j_stack(pts, 20)
    made = {0: [], 18: []}  # the point indices of each margin's rounds, and whether they fell short
    for margin, points, short in rounds:
        made[margin] += [(pts.index(p), s) for p, s in zip(points, short)]
    assert sorted(i for i, _ in made[0]) == list(range(len(pts)))
    retried = sorted(i for i, s in made[0] if s)
    assert retried and sorted(i for i, _ in made[18]) == retried and not any(s for _, s in made[18])
    for i, jv in enumerate(rows):
        one_point, plan = want[i]
        assert jv.point == pts[i] and jv.value.prec == 20 and coordinates(jv.value) == coordinates(one_point.value)
        assert jv.plan == (plan if i in retried else one_point.plan)


def test_the_sweep_buys_no_retries(monkeypatch):
    # cold order reports with the Brown check on the 150 orders of F_3[T]
    # with |D| <= 81: one round per order, every row at its target
    rounds = record_rounds(monkeypatch)
    for order in sweeps.iter_orders(field(3), 81):
        sweeps.order_report(order, check_brown=True)
    rows = [s for _, _, short in rounds for s in short]
    assert (len(rounds), len(rows), sum(rows)) == (150, 1182, 0)


def parent_t_pow_qm1(ctx, z_at, terms, targets):
    """t(az)^(q-1) as `t_pow_qm1` made it with 1/S taken to the whole
    relative length of S and then cut at keep/q: the oracle of the cut."""
    q = ctx.q
    theta, m0 = modforms._theta(terms.pts[0]), int(terms.m[0])
    k1 = modforms._theta_offsets(theta, q, terms.m.tolist(), m0)
    v_t1 = theta * q**m0
    t_prec = max(t - (q - 1) * k1[n + d] for (n, d), t in targets.items())
    ell = t_prec - (q - 1) * v_t1
    v_s = -v_t1 + Fraction(q, q - 1)
    s_val = modforms.carlitz_S(ctx, z_at, terms, {(n, d): v_s - k1[n + d] + ell + 1 for n, d in targets})
    keep = s_val.prec - (q + 1) * v_s
    inv_q = _truncate(_truncate(s_val.inverse(), keep / q).frobenius_q(), keep)
    return _truncate(s_val * (inv_q * ctx.pi_inv), t_prec)


@pytest.mark.parametrize("name", sorted(STACK_ORDERS))
def test_t_pow_qm1_inverts_S_only_to_the_digits_its_q_th_power_keeps(name, monkeypatch):
    # (1/S)^q is cut at keep, so 1/S must reach ceil(keep/q): S is cut at the
    # least precision whose inverse does, and t^(q-1) is the oracle's
    calls = []
    real_S, real_t = modforms.carlitz_S, modforms.t_pow_qm1

    def recording_S(*args):
        calls[-1]["S"] = real_S(*args)
        return calls[-1]["S"]

    def recording_t(*args):
        calls.append({"args": args})
        calls[-1]["t"] = real_t(*args)
        return calls[-1]["t"]

    def recording_inverse(real):
        def inverse(self):
            out = real(self)
            call = calls[-1] if calls else {}
            if "S" in call and "cut" not in call and isinstance(self, type(call["S"])):
                call["cut"], call["inv"] = self, out  # the first inverse of S's kind after S
            return out

        return inverse

    pts = enumerate_points(STACK_ORDERS[name]())
    with monkeypatch.context() as m:
        m.setattr(modforms, "carlitz_S", recording_S)
        m.setattr(modforms, "t_pow_qm1", recording_t)
        for cls in (LaurentSeries, QuadSeries):
            m.setattr(cls, "inverse", recording_inverse(cls.inverse))
        for prec in ([brown_prec(p) for p in pts], 60):
            eval_j_stack(pts, prec)
    assert calls
    for call in calls:
        s, q = call["S"], call["args"][0].q
        v_s = s.valuation()
        need = math.ceil((s.prec - (q + 1) * v_s) / q)
        assert call["inv"].prec == need and call["cut"].prec == need + 2 * v_s
        assert _truncate(s, need + 2 * v_s - 1).inverse().prec < need
        want = parent_t_pow_qm1(*call["args"])
        assert coordinates(call["t"]) == coordinates(want)


def coordinates(v) -> tuple:
    """The Laurent coordinates of a value: itself, or x and y of a QuadSeries."""
    return (v,) if isinstance(v, LaurentSeries) else (v.x, v.y)


def per_point_lemma_A2(pt, delta, mu, nu, extra_prec=8):
    """Q = sum_a a^mu S_a^(-delta) R_a^nu, R_a = S_a - az, at one point, to
    extra_prec digits past the valuation Lemma A.2 gives it: one degree of a
    at a time, each with its own Carlitz sum, up to the first d > 0 whose
    terms lie beyond that.  The routine `verify_appendix` replaced, kept as
    its oracle."""
    order = pt.order
    q = order.field.q
    gamma = delta - nu
    theta = modforms._theta(pt)
    target_q = gamma * theta * q**pt.n - gamma * Fraction(q, q - 1) + extra_prec
    ctx = modforms._context_for(order, (delta + nu + 2) * (extra_prec + q + 6))
    z_el = modforms.embed([pt.z], pt.n + extra_prec + 14)
    qsum = None
    d = 0
    while d == 0 or gamma * theta * q ** (pt.n + d) - mu * d - gamma * Fraction(q, q - 1) < target_q:
        v_s = -theta * q ** (pt.n + d) + Fraction(q, q - 1)
        monics, a_stack = modforms._monic_stack(order.field.base, ctx.cdesc, d, 1)
        terms = modforms._Terms(ctx, [pt], [(d, [0])])
        s_val = modforms.carlitz_S(ctx, lambda prec: z_el, terms, {(pt.n, d): v_s + extra_prec + q + 4})
        s_inv, r_val = s_val.inverse(), s_val - z_el * a_stack
        acc = s_inv
        for _ in range(delta - 1):
            acc = acc * s_inv
        for _ in range(nu):
            acc = acc * r_val
        acc = acc * modforms._monic_stack(order.field.base, ctx.cdesc, d, mu)[1]
        acc = acc.spread(1, [0] * len(monics), [0] * len(monics))  # the sum over the monics
        qsum = acc if qsum is None else qsum + acc
        d += 1
    return _truncate(qsum, target_q)


@pytest.mark.parametrize("extra_prec", [8, 30])
@pytest.mark.parametrize("name", sorted(STACK_ORDERS))
def test_appendix_stack_equals_per_point_sums(name, extra_prec):
    # one stack over the order's points, which differ in n: every A.2 sum
    # equals the per-point oracle digit for digit, not only in valuation (the
    # valuation is that of the deg a = 0 term alone).  The largest mu the
    # hypothesis allows at every point, and 30 digits, bring the terms of
    # deg a >= 1 into the digits compared.
    pts = enumerate_points(STACK_ORDERS[name]())
    q = pts[0].order.field.q
    mu = min(math.ceil(q**p.n * (q - p.eps * (q - 1))) for p in pts) - 1
    params = [(q, 1, 1), (q - 1, 0, 0), (q, mu, 1)]
    assert len({p.n for p in pts}) > 1
    for pt, (a1, a2) in zip(pts, verify_appendix(pts, params, extra_prec=extra_prec)):
        assert len(a1) == 1 + q + q * q and all(r["ok"] for r in a1)
        for (delta, mu, nu), row in zip(params, a2):
            assert (row["delta"], row["mu"], row["nu"]) == (delta, mu, nu) and row["ok"]
            want = per_point_lemma_A2(pt, delta, mu, nu, extra_prec)
            assert coordinates(row["Q"]) == coordinates(want)
