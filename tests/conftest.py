from collections import OrderedDict

import pytest

from drinfeld_cm import brownval


@pytest.fixture(autouse=True)
def empty_store(monkeypatch):
    """Every test starts with an empty store of order objects, so call counts do not depend on test order."""
    monkeypatch.setattr(brownval, "_store", {})
    monkeypatch.setattr(brownval, "_holding", OrderedDict())
