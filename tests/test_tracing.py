"""The benchmark's tracer (`perfbench/tracing.py`) wraps package functions
named by dotted paths.  Every path it names must still resolve, so a change
that moves or renames a traced function fails here, not in a traced run
that would then read 0 for it.  The tracer is read, never changed."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _tracer_module()
TRACED = TRACER.SPANS + TRACER.COUNTS


def test_every_traced_module_imports():
    for name in TRACER.MODULES:
        importlib.import_module(f"drinfeld_cm.{name}")


@pytest.mark.parametrize("module, path, label", TRACED, ids=[label for *_, label in TRACED])
def test_every_traced_path_resolves_to_a_package_function(module, path, label):
    owner = importlib.import_module(f"drinfeld_cm.{module}")
    *owners, attr = path.split(".")
    for part in owners:
        owner = getattr(owner, part)
    # the tracer replaces owner.__dict__[attr], so the attribute must be defined there
    assert callable(vars(owner).get(attr)), f"{module}.{path} ({label}) is not a function of the package"
