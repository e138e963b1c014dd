"""The packaging metadata points only at files and entry points that
exist, and the package carries no code that its entry points do not
reach."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # in the standard library from 3.11

ROOT = Path(__file__).resolve().parents[1]


def _project():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]


def test_declared_readme_exists():
    readme = _project().get("readme")
    if isinstance(readme, dict):
        readme = readme.get("file")
    if readme is not None:
        assert (ROOT / readme).is_file(), readme


def test_declared_scripts_import():
    for name, target in _project().get("scripts", {}).items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in filter(None, attr.split(".")):
            obj = getattr(obj, part)
        assert callable(obj), name


PACKAGE = ROOT / "src" / "segalspans"
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _docstring_ids(tree):
    # a bare string statement is documentation, not a use
    return {
        id(node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
    }


def _defined(stmt):
    """The top-level names a module statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = []
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
        targets = [stmt.target]
    return {
        node.id
        for target in targets
        for node in ast.walk(target)
        if isinstance(node, ast.Name)
    }


def _words(node, docstrings):
    """Every name a node mentions: identifiers, attributes, import
    names and aliases, and the words of non-docstring string constants."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield from sub.name.split(".")
            if sub.asname:
                yield sub.asname
        elif (
            isinstance(sub, ast.Constant)
            and isinstance(sub.value, str)
            and id(sub) not in docstrings
        ):
            yield from WORD.findall(sub.value)


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


# besides every check_* and every generator
ENTRY_POINTS = ("validate", "verify_localization", "LocalizeBudget")


def _package():
    """module -> (top-level name -> statement, imported name -> (module, name))."""
    modules = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _parse(path)
        defs = {name: stmt for stmt in tree.body for name in _defined(stmt)}
        # imports inside functions count too
        imports = {
            alias.asname or alias.name: (node.module, alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level
            for alias in node.names
        }
        modules[path.stem] = (defs, imports)
    return modules


def _benchmark_names():
    """(module, name) pairs the benchmark imports, or names in a string
    such as the tracer's "finset.FinMap.validated" or public("cycy.check_cy_conditions")."""
    names = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("segalspans."):
                names.update((node.module.split(".", 1)[1], a.name) for a in node.names)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                parts = node.value.split(".")
                if len(parts) > 1:
                    names.add((parts[0], parts[1]))
    return names


def test_every_top_level_name_has_a_user():
    # the users are the entry points and what they reach: a definition
    # reaches every top-level name its statement mentions.  Tests are no
    # entry point, so code that only tests call belongs in tests/
    modules = _package()
    todo = [
        (stem, name)
        for stem, (defs, _) in modules.items()
        for name in defs
        if stem == "generators" or name.startswith("check_") or name in ENTRY_POINTS
    ]
    todo += _benchmark_names()
    reached = set()
    while todo:
        key = todo.pop()
        if key in reached or key[0] not in modules:
            continue
        defs, imports = modules[key[0]]
        if key[1] in imports:
            todo.append(imports[key[1]])
        if key[1] not in defs:
            continue
        reached.add(key)
        for node in ast.walk(defs[key[1]]):
            if isinstance(node, ast.Name):
                todo.append(imports.get(node.id, (key[0], node.id)))
    unreached = sorted(
        f"{stem}.{name}"
        for stem, (defs, _) in modules.items()
        for name in defs
        if (stem, name) not in reached
    )
    assert not unreached, unreached


def _attribute_names(node):
    return Counter(
        sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)
    )


def test_every_method_has_a_user():
    # a method or property of a package class is used when the package or
    # the benchmark names it as an attribute outside its own body; one
    # that only tests call belongs in tests/
    paths = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    trees = {path: _parse(path) for path in paths}
    named = sum(map(_attribute_names, trees.values()), Counter())
    unused = [
        f"{path.stem}.{cls.name}.{fn.name}"
        for path, tree in trees.items()
        if path.parent == PACKAGE
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef)
        and not (fn.name.startswith("__") and fn.name.endswith("__"))
        and named[fn.name] == _attribute_names(fn)[fn.name]
    ]
    assert not unused, unused


def _unused_imports(path, counted):
    """path:line name for each name that a top-level import statement
    selected by counted binds and that the module never mentions."""
    tree = _parse(path)
    imported = {}
    for stmt in tree.body:
        if counted(stmt):
            for alias in stmt.names:
                imported[alias.asname or alias.name.split(".")[0]] = stmt.lineno
    docstrings = _docstring_ids(tree)
    seen = {
        w
        for stmt in tree.body
        if not isinstance(stmt, (ast.Import, ast.ImportFrom))
        for w in _words(stmt, docstrings)
    }
    return [
        f"{path.name}:{line} {name}"
        for name, line in imported.items()
        if name not in seen
    ]


def test_every_relative_import_is_used():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        unused += _unused_imports(
            path, lambda stmt: isinstance(stmt, ast.ImportFrom) and stmt.level
        )
    assert not unused, unused


def test_every_test_module_import_is_used():
    unused = []
    for path in sorted((ROOT / "tests").glob("*.py")):
        unused += _unused_imports(
            path,
            lambda stmt: isinstance(stmt, ast.Import)
            or (isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__"),
        )
    assert not unused, unused


def test_no_module_imports_a_private_name_of_another():
    # an underscore-prefixed name is private to its module, wherever the
    # import statement sits
    private = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("segalspans")
            ):
                private += [
                    f"{path.name}:{node.lineno} {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert not private, private


def test_benchmark_tracer_finds_every_target(monkeypatch):
    # the benchmark's tracer wraps named functions of the package and
    # raises LookupError on entry when one was renamed or deleted
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem != "__init__":
            importlib.import_module(f"segalspans.{path.stem}")
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py"
    )
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)  # for its dataclasses
    spec.loader.exec_module(tracer)
    with tracer.Tracer():
        pass
    # a traced run fails when a target of its workload records no call, so
    # every localize-sweep target (res and D_on_map among them) must stay
    # on the sweep's path at its smallest benchmark budget
    from segalspans.localize import LocalizeBudget, verify_localization

    with tracer.Tracer() as traced:
        verify_localization(LocalizeBudget(1, 1, 1, 0))
    assert traced.unreached("localize-sweep") == []


# constructor validators: they raise ValueError instead of reporting
CONSTRUCTOR_CHECKS = ("check_rank", "check_block")


def test_checkers_take_the_object_and_nothing_else():
    # a checker is check(x) -> Report: no option grows back that no
    # caller sets
    from segalspans import cycy, localize, segal, sobj, spanalg

    checkers = {"sobj.validate": sobj.validate}
    for module in (segal, spanalg, cycy):
        short = module.__name__.rsplit(".", 1)[1]
        checkers.update(
            (f"{short}.{name}", fn)
            for name, fn in vars(module).items()
            if name.startswith("check_")
            and name not in CONSTRUCTOR_CHECKS
            and inspect.isfunction(fn)
            and fn.__module__ == module.__name__
        )
    assert {
        "segal.check_2segal", "segal.check_unital", "segal.check_1segal",
        "segal.check_2segal_triangulations", "spanalg.check_algebra_conditions",
        "spanalg.check_associativity", "cycy.check_cy_conditions",
        "cycy.check_nondegeneracy",
    } <= set(checkers)
    wide = {
        name: str(inspect.signature(fn))
        for name, fn in checkers.items()
        if len(inspect.signature(fn).parameters) != 1
    }
    assert not wide, wide
    assert list(inspect.signature(localize.verify_localization).parameters) == ["bud", "deep"]
    bounds = dataclasses.fields(localize.LocalizeBudget)
    assert [f.name for f in bounds] == ["max_rank", "max_tuple", "max_fiber", "max_junk"]
    assert all(
        f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        for f in bounds
    )
