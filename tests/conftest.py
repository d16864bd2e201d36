from collections import OrderedDict

import pytest

from drinfeld_cm import brownval, ffield


def empty_registry():
    """Drop every canonical field descriptor: the next `ffield.field` call
    builds a fresh one, which holds nothing yet, not even the QuadFields over
    it (objects a test made before keep what they hold)."""
    ffield._descriptor.cache_clear()


@pytest.fixture(autouse=True)
def empty_store(monkeypatch):
    """Every test starts with an empty store of order objects and an empty
    field registry, so call counts do not depend on test order."""
    monkeypatch.setattr(brownval, "_store", {})
    monkeypatch.setattr(brownval, "_holding", OrderedDict())
    empty_registry()


def _record_evaluations(monkeypatch, record) -> None:
    """From now on, pass the rows [(point, precision), ...] of every call of
    `modforms.eval_j_stack`, the entry every held j-value comes from, to
    record."""
    from drinfeld_cm import modforms

    real = modforms.eval_j_stack

    def counting(points, prec):
        record(list(zip(points, [prec] * len(points) if isinstance(prec, int) else prec)))
        return real(points, prec)

    monkeypatch.setattr(modforms, "eval_j_stack", counting)


def count_calls(monkeypatch) -> list:
    """From now on, record the rows of every `modforms.eval_j_stack` call, one list per call."""
    calls = []
    _record_evaluations(monkeypatch, calls.append)
    return calls


def count_rows(monkeypatch) -> list:
    """From now on, record (point, precision) for every row evaluated
    through `modforms.eval_j_stack`: a point evaluated twice is recorded
    twice."""
    rows = []
    _record_evaluations(monkeypatch, rows.extend)
    return rows


def count_products(monkeypatch) -> list:
    """From now on, record the row counts of the operands of every call of
    `laurent._raw_mul`, the one product kernel of the series layer."""
    from drinfeld_cm import laurent

    calls = []
    real = laurent._raw_mul

    def counting(desc, A, B, ncols=None):
        calls.append((A.shape[0], B.shape[0]))
        return real(desc, A, B, ncols)

    monkeypatch.setattr(laurent, "_raw_mul", counting)
    return calls
