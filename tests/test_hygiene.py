"""Static checks on the package source: no unused import, no uncalled definition.

A definition (function, method or class) counts as used when its name occurs
anywhere under src/, tests/ or perfbench/ outside its own definition: as a
name, an attribute, an imported name, or a word in a string that is not a
docstring (string annotations, `monkeypatch.setattr` targets and the tracer's
span paths name functions that way).  Dunders are exempt; so is the package
`__init__.py`, which imports to re-export.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "drinfeld_cm"
WORD = re.compile(r"[A-Za-z_]\w*")


def _modules():
    return sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _string_words(tree) -> set:
    """The identifiers in every string constant of the tree except docstrings."""
    docs = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                docs.add(id(first.value))
    words = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docs:
            words.update(WORD.findall(node.value))
    return words


def _names(tree) -> set:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_no_unused_imports():
    unused = []
    for path in _modules():
        tree = ast.parse(path.read_text())
        read = _names(tree) | _string_words(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__"):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in read:
                        unused.append(f"{path.name}:{node.lineno} {bound}")
    assert not unused, "unused imports:\n" + "\n".join(unused)


def test_every_definition_is_named_elsewhere():
    used = set()
    for top in ("src", "tests", "perfbench"):
        for path in (ROOT / top).rglob("*.py"):
            tree = ast.parse(path.read_text())
            used |= _names(tree) | _string_words(tree)
            for node in ast.walk(tree):
                if isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.alias):
                    used.add(node.name.split(".")[-1])
    uncalled = []
    for path in _modules():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                dunder = node.name.startswith("__") and node.name.endswith("__")
                if not dunder and node.name not in used:
                    uncalled.append(f"{path.name}:{node.lineno} {node.name}")
    assert not uncalled, "named nowhere else:\n" + "\n".join(uncalled)
