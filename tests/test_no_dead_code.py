"""No dead exports: every module-level function, class and method defined in
``src/weakfront`` is referenced somewhere in ``src/``, ``tests/`` or
``perfbench/``.  A reference is code that reads the name: a ``Name``, the
attribute of an ``Attribute``, or an imported name.  A name that is only
defined, or only mentioned in a docstring, a comment or a string (an
``__all__`` entry among them), has no caller, no test and no benchmark
binding.  Dunders and ``main`` (the console entry point, named in
``pyproject.toml``) are exempt.  Tests alone do not keep a definition alive:
outside the oracle and the generators, which are reference and generator
code for the tests, every definition is also referenced by the program
(``src/`` without ``__init__.py``, which only re-exports) or by
``perfbench/``, and a method there only through an attribute read
(``.name``): a local variable of the same name does not keep it alive.  No
leftover imports either: every name a module-level import binds is used in
its module or listed in its ``__all__``."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "weakfront"
SEARCHED = ("src", "tests", "perfbench")


def _definitions(tree):
    """(name, whether a method) of module-level functions and classes, and
    of their methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield item.name, True


PROGRAM = ("src", "perfbench")
TEST_SUPPORT = ("oracle.py", "randgen.py")


def _reference_counts(tops, skip=()):
    """How often each name is read in the files under ``tops``: as a
    ``Name``, as an attribute, or as a part of an imported name; and, apart,
    how often as an attribute."""
    counts, attrs = Counter(), Counter()
    for top in tops:
        for path in (ROOT / top).rglob("*.py"):
            if path in skip:
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    counts[node.id] += 1
                elif isinstance(node, ast.Attribute):
                    counts[node.attr] += 1
                    attrs[node.attr] += 1
                elif isinstance(node, ast.alias):
                    counts.update(node.name.split("."))
    return counts, attrs


def _unreferenced(counts, modules, method_counts):
    """Definitions in ``modules`` that ``counts`` never references; a method
    is looked up in ``method_counts`` instead."""
    return sorted(
        f"{path.stem}.{name}"
        for path in modules
        for name, method in _definitions(ast.parse(path.read_text()))
        if not (name.startswith("__") and name.endswith("__"))
        and name != "main"
        and (method_counts if method else counts)[name] == 0
    )


def test_every_definition_is_named_elsewhere():
    counts, _ = _reference_counts(SEARCHED)
    assert _unreferenced(counts, sorted(PACKAGE.glob("*.py")), counts) == []


def test_every_definition_is_named_by_the_program():
    counts, attrs = _reference_counts(PROGRAM, skip={PACKAGE / "__init__.py"})
    modules = [
        path for path in sorted(PACKAGE.glob("*.py")) if path.name not in TEST_SUPPORT
    ]
    assert _unreferenced(counts, modules, attrs) == []


def _unused_imports(tree):
    """Names bound by module-level imports that the module neither uses nor
    lists in ``__all__`` (``from __future__`` imports are directives, not
    bindings)."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        ):
            used.update(ast.literal_eval(node.value))
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    yield name


def test_every_module_level_import_is_used():
    unused = sorted(
        f"{path.stem}.{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in _unused_imports(ast.parse(path.read_text()))
    )
    assert unused == []


def _private_imports(tree):
    """``module.name`` for each ``_``-prefixed name the module imports from
    a weakfront module, at any depth of the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").split(".")[0] == "weakfront"
        ):
            for alias in node.names:
                if alias.name.startswith("_"):
                    yield f"{node.module}.{alias.name}"


def test_no_module_imports_a_private_name_of_another():
    """A private helper that another module needs belongs in a shared
    module under a public name."""
    private = sorted(
        f"{path.stem}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in _private_imports(ast.parse(path.read_text()))
    )
    assert private == []
