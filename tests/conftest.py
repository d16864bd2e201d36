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


def count_rows(monkeypatch) -> list:
    """From now on, record (point, precision) for every row
    evaluated through `modforms.eval_j_stack`, the entry every held j-value
    comes from: a point evaluated twice is recorded twice."""
    from drinfeld_cm import modforms

    rows = []
    real = modforms.eval_j_stack

    def counting(points, prec):
        rows.extend((pt, prec) for pt in points)
        return real(points, prec)

    monkeypatch.setattr(modforms, "eval_j_stack", counting)
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
