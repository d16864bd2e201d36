"""The process-wide store of order objects (`brownval.OrderCM.of`)."""

import ast
import contextlib
import inspect
import io
import math
import textwrap
from fractions import Fraction

from drinfeld_cm import brownval, certlog, cli, modforms, sweeps
from drinfeld_cm import polyring as pr
from drinfeld_cm.bounds import upper_bound_h
from drinfeld_cm.brownval import OrderCM, log_abs_j, moduli_of, weil_height
from drinfeld_cm.errors import InvariantError
from drinfeld_cm.ffield import field
from drinfeld_cm.modforms import GUARD, hilbert_constant_degree, hilbert_poly
from drinfeld_cm.quadfield import order_from_discriminant

from conftest import count_calls, count_products, count_rows
from test_cli import separate_run

F3 = field(3)


def odd_order(D):
    return order_from_discriminant(F3, pr.parse_poly(F3, D))


def count_builds(monkeypatch) -> list:
    builds = []
    real = OrderCM.__init__

    def counting(self, order):
        builds.append(order)
        real(self, order)

    monkeypatch.setattr(OrderCM, "__init__", counting)
    return builds


def run(argv) -> tuple:
    """(exit code, stdout) of one in-process request."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def moduli_keys(order):
    return [(m.log_j, [(p.a, p.b) for p in m.points]) for m in moduli_of(order)]


def test_least_recently_used_entry_loses_its_values(monkeypatch):
    monkeypatch.setattr(brownval, "VALUE_CAP", 2)
    a, b, c = (odd_order(D) for D in ("2*T^2+T", "2*T^2+2", "2*T^2+1"))  # inert, h = 2 each
    first = {o: (hilbert_poly(o).to_jsonable(), moduli_keys(o)) for o in (a, b)}
    hilbert_poly(a)  # reads a's held values: a is now the most recently used
    first[c] = (hilbert_poly(c).to_jsonable(), moduli_keys(c))
    cm_a, cm_b, cm_c = map(OrderCM.of, (a, b, c))
    assert cm_a.values and not cm_b.values and cm_c.values
    assert cm_b.certified  # only the values go
    calls = count_rows(monkeypatch)
    again = (hilbert_poly(b).to_jsonable(), moduli_keys(b))
    assert again == first[b]
    assert len(calls) == 2  # b's two classes, evaluated afresh
    assert not cm_a.values and cm_b.values and cm_c.values
    assert OrderCM.of(b) is cm_b
    for o in (a, c):
        assert (hilbert_poly(o).to_jsonable(), moduli_keys(o)) == first[o]


def test_failed_certification_caches_no_success(monkeypatch):
    argv = ["hilbert", "--q", "3", "--flavor", "odd", "--D", "T^3"]
    real = brownval._cross_check
    raised = []

    def fail_once(cm, mods):
        if not raised:
            raised.append(cm.order)
            raise InvariantError("injected")
        real(cm, mods)

    monkeypatch.setattr(brownval, "_cross_check", fail_once)
    assert run(argv) == (1, "")
    assert not OrderCM.of(raised[0]).certified  # nothing certified was stored
    monkeypatch.setattr(brownval, "_cross_check", real)
    assert run(argv) == separate_run(argv)


def test_order_that_fails_fails_on_every_repeat(monkeypatch):
    real = brownval.conjugate_classes

    def merge(points):  # joins the two classes of valuation 6 of D = T^3
        classes = real(points)
        twins = [cls for cls in classes if log_abs_j(cls[0]) == 6]
        if len(twins) != 2:
            return classes  # the maximal order, D = T
        return [cls for cls in classes if cls not in twins] + [twins[0] + twins[1]]

    monkeypatch.setattr(brownval, "conjugate_classes", merge)
    requests = [[cmd, "--q", "3", "--flavor", "odd", "--D", "T^3"] for cmd in ("hilbert", "height", "class-number")]
    first = [run(argv) for argv in requests]
    assert [code for code, _ in first] == [1, 1, 1]
    assert [run(argv) for argv in requests] == first  # the count check runs on every request


def test_hilbert_plan_ignores_a_held_higher_precision(monkeypatch):
    # the printed plan is `modforms.plan_of` at W + 6: a value held to W + 20
    # is read as it is, and prints the plan of a cold run
    argv = ["hilbert", "--q", "3", "--flavor", "odd", "--D", "T"]
    order = odd_order("T")
    cm = OrderCM.of(order)
    classes = cm.classes()
    W = int(math.ceil(sum(max(Fraction(0), log_abs_j(cls[0])) for cls in classes))) + GUARD + 6
    (held,) = cm.j_values([cls[0] for cls in classes], W + 20)  # the order has one class
    rows = count_rows(monkeypatch)
    code, out = run(argv)
    assert rows == []  # no evaluation
    assert (code, out) == separate_run(argv)
    assert '"truncation": {"e_c_terms": 3, "max_deg_a": 1}' in out
    assert held.plan != {"e_c_terms": 3, "max_deg_a": 1}  # the held evaluation's plan differs


def test_repeated_requests_reuse_the_store(monkeypatch):
    requests = [
        ["hilbert", "--q", "3", "--flavor", "odd", "--D", "T^3"],
        ["height", "--q", "3", "--flavor", "odd", "--D", "T^3"],
        ["class-number", "--q", "3", "--flavor", "odd", "--D", "T^3"],
        ["hilbert", "--q", "4", "--flavor", "even_insep", "--f", "T"],
        ["height", "--q", "5", "--flavor", "odd", "--D", "2*T^2+2"],
    ]
    first = [run(argv) for argv in requests]
    assert all(code == 0 for code, _ in first)
    calls = count_rows(monkeypatch)
    builds = count_builds(monkeypatch)
    assert [run(argv) for argv in requests] == first
    assert calls == [] and builds == []


def test_unit_search_row_builds_one_object(monkeypatch):
    order = odd_order("2*T^4+T+1")  # inert, |D| = 81: the constant-degree route
    deg = hilbert_constant_degree(order)
    builds = count_builds(monkeypatch)
    calls = count_rows(monkeypatch)
    h = weil_height(moduli_of(order))
    ub = upper_bound_h(order, Fraction(1, 3))
    assert builds == [] and calls == []
    assert deg > 0 and h > 0 and ub["conditional"]


HELD_REQUESTS = [
    ["--q", "3", "--flavor", "odd", "--D", "T^3"],
    ["--q", "4", "--flavor", "even_sep", "--B", "T", "--C", "1", "--f", "T+2"],  # infinity ramifies
    ["--q", "4", "--flavor", "even_insep", "--f", "T"],
]


def test_repeated_hilbert_and_height_are_read_from_the_store(monkeypatch):
    requests = [[cmd, *argv] for argv in HELD_REQUESTS for cmd in ("hilbert", "height")]
    first = [run(argv) for argv in requests]
    products = count_products(monkeypatch)
    logs = []
    real_ln = certlog.ln

    def counting_ln(x):
        logs.append(x)
        return real_ln(x)

    monkeypatch.setattr(certlog, "ln", counting_ln)
    again = [run(argv) for argv in requests]
    assert products == [] and logs == []  # no series product, no logarithm
    assert again == first == [separate_run(argv) for argv in requests]


def test_a_class_polynomial_that_fails_its_check_is_not_held(monkeypatch):
    argv = ["hilbert", "--q", "3", "--flavor", "odd", "--D", "T^3"]
    real = modforms.HilbertPoly.constant_term_degree
    monkeypatch.setattr(modforms.HilbertPoly, "constant_term_degree", lambda H: real(H) + 1)
    assert run(argv) == (1, "")
    cm = OrderCM.of(odd_order("T^3"))
    assert cm.hilbert is None and cm.values  # the values stay, the polynomial is not held
    monkeypatch.setattr(modforms.HilbertPoly, "constant_term_degree", real)
    calls = count_rows(monkeypatch)
    assert run(argv) == separate_run(argv)
    assert calls == [] and cm.hilbert is not None  # rebuilt from the held values, then held


def _syntax(method):
    return ast.parse(textwrap.dedent(inspect.getsource(method)))


def _attributes_set_by_init() -> set:
    targets = []
    for node in ast.walk(_syntax(OrderCM.__init__)):
        if isinstance(node, ast.Assign):
            targets += node.targets
        elif isinstance(node, ast.AnnAssign):
            targets.append(node.target)
    return {t.attr for t in targets if isinstance(t, ast.Attribute) and getattr(t.value, "id", None) == "self"}


def _attributes_cleared_on_eviction() -> set:
    """The x of every `old.x.clear()` and `old.x = None` in the eviction loop of `OrderCM._evaluate`."""
    (loop,) = [node for node in ast.walk(_syntax(OrderCM._evaluate)) if isinstance(node, ast.While)]
    calls = [node.value for node in loop.body if isinstance(node, ast.Expr)]
    resets = [node for node in loop.body if isinstance(node, ast.Assign) and getattr(node.value, "value", 0) is None]
    cleared = {c.func.value.attr for c in calls if isinstance(c.func, ast.Attribute) and c.func.attr == "clear"}
    return cleared | {t.attr for node in resets for t in node.targets if isinstance(t, ast.Attribute)}


# what an entry keeps when it loses its values; the eviction branch names the rest
KEPT_ON_EVICTION = {"order", "key", "points", "certified", "report", "height_bounds", "_classes", "_exact_moduli", "_involution", "_h_conductor"}


def test_every_holder_states_its_eviction_policy():
    cleared = _attributes_cleared_on_eviction()
    assert cleared == {"values", "hilbert"}
    assert not cleared & KEPT_ON_EVICTION
    assert _attributes_set_by_init() == cleared | KEPT_ON_EVICTION


def test_a_held_answer_still_runs_the_count_check():
    requests = [[cmd, "--q", "3", "--flavor", "odd", "--D", "T^3"] for cmd in ("hilbert", "height")]
    assert all(run(argv)[0] == 0 for argv in requests)
    cm = OrderCM.of(odd_order("T^3"))
    assert cm.hilbert and cm.height_bounds
    cm._h_conductor += 1  # an independent count that no longer agrees
    assert [run(argv) for argv in requests] == [(1, ""), (1, "")]


def test_the_brown_check_makes_one_evaluation_per_order(monkeypatch):
    calls = count_calls(monkeypatch)
    for D in ("T-T^2", "T^3"):  # the Hayes order; two classes of T^3 share the valuation 6
        calls.clear()
        rep = sweeps.order_report(odd_order(D), check_brown=True)
        assert len(calls) == 1 and len(calls[0]) == len(rep.points)
    logs = [m.log_j for m in rep.moduli]
    assert len(set(logs)) < len(logs)  # the cross-check separated them from the held values


def test_a_class_polynomial_makes_one_evaluation(monkeypatch):
    # the classes' first points have two values of n; the printed truncation
    # and residuals are those of one evaluation per (n, |j|) group
    calls = count_calls(monkeypatch)
    for D, plan, residuals in (
        ("T-T^2", {"max_deg_a": 2, "e_c_terms": 3}, [16, 25, None]),
        ("T^3", {"max_deg_a": 2, "e_c_terms": 4}, [22, 28, 46, None]),
    ):
        calls.clear()
        order = odd_order(D)
        assert len({cls[0].n for cls in OrderCM.of(order).classes()}) == 2
        H = hilbert_poly(order)
        assert len(calls) == 1
        assert H.plan == plan and H.residuals == residuals
