"""The benchmark's stored answers (`perfbench/reference/`) made again.

Every sweep, queries and lemmas answer is recomputed the way
`perfbench/make_reference.py` made it, through the helpers of
`perfbench/workloads.py`, and must equal the stored one; a failure names the
first key that differs.  Nothing under `perfbench/` is written.
"""

import importlib
import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def make_reference(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("make_reference")


@pytest.mark.parametrize("name", ["sweep", "queries", "lemmas"])
def test_stored_answers_are_made_again(name, make_reference):
    want = make_reference.wl.load_reference(name)
    got = json.loads(json.dumps(getattr(make_reference, f"make_{name}")()))  # as the stored JSON reads
    first = next((k for k in sorted(want.keys() | got.keys()) if got.get(k) != want.get(k)), None)
    assert first is None, f"{name} {first!r}: made {got.get(first)!r}, stored {want.get(first)!r}"
