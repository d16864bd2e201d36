"""Static checks on the package source: no unused import, no uncalled
definition, no definition that only tests use (save the listed reference
implementations), no series-type test outside the series layer, no cycle
among the imports that run when a module is imported, no import inside a
function unless it closes such a cycle (a package module is imported at the
top of a module unless it reaches that module through top-level imports),
and no module-level cache outside the listed ones.

A definition counts as used only through what can name it:
- a method (a function defined in a class body): an attribute access
  (`x.name`) or a dotted-path string (the tracer's span paths such as
  "LaurentSeries.__mul__", `monkeypatch.setattr` targets);
- any other function or class: a name in its own module, an attribute
  access, an imported name or a dotted-path string.
A dotted-path string is a string constant, other than a docstring, made of
identifiers joined by dots; prose strings count for nothing, and neither does
a local variable of the same name in another module.  Dunders are exempt; so
is the package `__init__.py`, which imports to re-export.
"""

import ast
import re
from graphlib import TopologicalSorter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "drinfeld_cm"
PATH = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")
SERIES_TYPES = {"LaurentSeries", "QuadSeries"}
SERIES_LAYER = {"quadfield.py", "laurent.py"}
# the caches kept at module level: the registry of canonical field descriptors,
# the order store and its recency list, factorizations, the digit weights of
# the packed product and the argument parser; other held data has an owner
# (a FieldDesc, a QuadField or an OrderCM)
MODULE_CACHES = {
    "ffield._descriptor",
    "brownval._store",
    "brownval._holding",
    "polyring.factor",
    "laurent._digits",
    "cli._parser",
}


def _modules():
    return sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _walk(tree, skip=None):
    """ast.walk, leaving out the subtree `skip`."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is not skip:
            yield node
            stack.extend(ast.iter_child_nodes(node))


def _path_words(tree, skip=None) -> set:
    """The identifiers of every dotted-path string constant of the tree except
    docstrings, leaving out the subtree `skip`."""
    docs = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                docs.add(id(first.value))
    words = set()
    for node in _walk(tree, skip):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docs:
            if PATH.fullmatch(node.value):
                words.update(node.value.split("."))
    return words


def _names(tree) -> set:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_no_unused_imports():
    unused = []
    for path in _modules():
        tree = ast.parse(path.read_text())
        read = _names(tree) | _path_words(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__"):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in read:
                        unused.append(f"{path.name}:{node.lineno} {bound}")
    assert not unused, "unused imports:\n" + "\n".join(unused)


def _definitions(tree):
    """(node, is_method) for every function and class definition of the tree."""
    methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node, id(node) in methods and not isinstance(node, ast.ClassDef)


def test_every_definition_is_named_elsewhere():
    reached = set()  # attribute accesses, imported names and dotted-path strings, anywhere
    for top in ("src", "tests", "perfbench"):
        for path in (ROOT / top).rglob("*.py"):
            tree = ast.parse(path.read_text())
            reached |= _path_words(tree)
            for node in ast.walk(tree):
                if isinstance(node, ast.Attribute):
                    reached.add(node.attr)
                elif isinstance(node, ast.alias):
                    reached.add(node.name.split(".")[-1])
    uncalled = []
    for path in _modules():
        tree = ast.parse(path.read_text())
        own_names = _names(tree)
        for node, is_method in _definitions(tree):
            dunder = node.name.startswith("__") and node.name.endswith("__")
            used = node.name in reached or (not is_method and node.name in own_names)
            if not dunder and not used:
                uncalled.append(f"{path.name}:{node.lineno} {node.name}")
    assert not uncalled, "named nowhere else:\n" + "\n".join(uncalled)


def test_series_types_are_tested_only_in_the_series_layer():
    # every other module does arithmetic on embedded values through quadfield's
    # value interface, without asking whether it holds a flat or a quadratic one
    offenders = []
    for path in _modules():
        if path.name in SERIES_LAYER:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance":
                named = {n.id for arg in node.args[1:] for n in ast.walk(arg) if isinstance(n, ast.Name)}
                named |= {n.attr for arg in node.args[1:] for n in ast.walk(arg) if isinstance(n, ast.Attribute)}
                if named & SERIES_TYPES:
                    offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, "isinstance on a series type outside quadfield and laurent:\n" + "\n".join(offenders)


def _relative_imports(tree, in_functions: bool):
    """(line, package module) of every relative import of a module, either
    those outside every function body (the ones that run when the module is
    itself imported) or those inside one."""
    stack = [(node, False) for node in tree.body]
    while stack:
        node, inside = stack.pop()
        inside = inside or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        if isinstance(node, ast.ImportFrom) and node.level and inside == in_functions:
            for name in [node.module] if node.module else [alias.name for alias in node.names]:
                yield node.lineno, name
        stack.extend((child, inside) for child in ast.iter_child_nodes(node))


def _import_time_relative_imports(tree):
    """Package modules a module imports when it is itself imported."""
    return {name for _, name in _relative_imports(tree, in_functions=False)}


def _import_graph() -> dict:
    return {path.stem: _import_time_relative_imports(ast.parse(path.read_text())) for path in _modules()}


def test_top_level_imports_are_acyclic():
    # ffield finds its moduli with polyring, which builds on ffield: ffield
    # imports polyring only inside functions, so the layering stays a DAG
    order = list(TopologicalSorter(_import_graph()).static_order())  # CycleError on a cycle
    assert order.index("ffield") < order.index("polyring")


def test_function_level_imports_close_a_cycle():
    # an import inside a function is kept only where the imported module
    # reaches the importing one through top-level imports, so moving it to the
    # top would close a cycle
    graph = _import_graph()

    def reaches(start, goal):
        seen, stack = set(), [start]
        while stack:
            for nxt in graph.get(stack.pop(), ()):
                if nxt == goal:
                    return True
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return False

    movable = [
        f"{path.name}:{line} {name}"
        for path in _modules()
        for line, name in _relative_imports(ast.parse(path.read_text()), in_functions=True)
        if not reaches(name, path.stem)
    ]
    assert not movable, "function-level imports that can move to the top of their module:\n" + "\n".join(movable)


def _uses(tree, skip=None) -> tuple:
    """(attribute, imported and dotted-path words; plain names) of a tree,
    leaving out the subtree `skip`."""
    words, names = _path_words(tree, skip), set()
    for node in _walk(tree, skip):
        if isinstance(node, ast.Attribute):
            words.add(node.attr)
        elif isinstance(node, ast.alias):
            words.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Name):
            names.add(node.id)
    return words, names


def test_every_definition_is_used_by_the_program():
    # the reach check above counts tests as users; this one does not, so code
    # that only tests call is deleted rather than kept alive by its own tests
    trees = {path: ast.parse(path.read_text()) for top in ("src", "perfbench") for path in (ROOT / top).rglob("*.py")}
    words = {path: _uses(tree)[0] for path, tree in trees.items()}
    test_only = []
    for path in _modules():
        tree = trees[path]
        for node, is_method in _definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            own_words, own_names = _uses(tree, skip=node)
            elsewhere = any(name in w for p, w in words.items() if p != path)
            used = elsewhere or name in own_words or (not is_method and name in own_names)
            if not used:
                test_only.append(f"{path.name}:{node.lineno} {name}")
    assert not test_only, "named by no program code outside its own body:\n" + "\n".join(test_only)


def _called_name(node):
    """The name a decorator or call target ends in (`lru_cache` for
    `functools.lru_cache(maxsize=8)`), or None."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def _module_caches(tree) -> set:
    """The caches a module keeps from call to call: a function or method
    under `lru_cache` or `cache`, an empty dict or a dict, OrderedDict or
    defaultdict made by a call and bound at module or class level (a class's
    as `Class.name`), and a module global that a function rebinds."""
    found = set()
    scopes = [("", tree.body)] + [(f"{c.name}.", c.body) for c in tree.body if isinstance(c, ast.ClassDef)]
    for prefix, body in scopes:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(_called_name(d) in ("lru_cache", "cache") for d in node.decorator_list):
                    found.add(prefix + node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
                value = node.value
                empty = isinstance(value, ast.Dict) and not value.keys
                made = isinstance(value, ast.Call) and _called_name(value) in ("dict", "OrderedDict", "defaultdict")
                if empty or made:
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    found.update(prefix + t.id for t in targets if isinstance(t, ast.Name))
    found.update(name for node in ast.walk(tree) if isinstance(node, ast.Global) for name in node.names)
    return found


def test_cache_rule_sees_every_form():
    source = """
from collections import OrderedDict
from functools import cache, lru_cache
import functools

TABLE = {"a": 1}
_seen: dict = {}
_recent = OrderedDict()
_last = None


@lru_cache(maxsize=None)
def one(x):
    return x


@functools.cache
def two(x):
    return x


class Owner:
    _shared: dict = {}
    names = {"b": 2}

    @functools.lru_cache(maxsize=8)
    def three(self):
        return 3


def remember(x):
    global _last
    _last = x
"""
    assert _module_caches(ast.parse(source)) == {"_seen", "_recent", "one", "two", "Owner._shared", "Owner.three", "_last"}


def test_only_the_listed_module_level_caches_remain():
    kept = {f"{path.stem}.{name}" for path in _modules() for name in _module_caches(ast.parse(path.read_text()))}
    assert not kept - MODULE_CACHES, "module-level caches outside the list:\n" + "\n".join(sorted(kept - MODULE_CACHES))
    assert not MODULE_CACHES - kept, "listed caches that are gone:\n" + "\n".join(sorted(MODULE_CACHES - kept))
