from collections import OrderedDict

import pytest

from drinfeld_cm import brownval


@pytest.fixture(autouse=True)
def empty_store(monkeypatch):
    """Every test starts with an empty store of order objects, so call counts do not depend on test order."""
    monkeypatch.setattr(brownval, "_store", {})
    monkeypatch.setattr(brownval, "_holding", OrderedDict())


def count_rows(monkeypatch) -> list:
    """From now on, record (point, precision, coefficient field) for every row
    evaluated through `modforms.eval_j_stack`, the entry every held j-value
    comes from: a point evaluated twice is recorded twice."""
    from drinfeld_cm import modforms

    rows = []
    real = modforms.eval_j_stack

    def counting(points, prec, **kwargs):
        rows.extend((pt, prec, kwargs.get("cdesc")) for pt in points)
        return real(points, prec, **kwargs)

    monkeypatch.setattr(modforms, "eval_j_stack", counting)
    return rows
