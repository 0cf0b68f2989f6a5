"""No dead exports: every module-level function, class and method defined in
``src/weakfront`` is named somewhere else in ``src/``, ``tests/`` or
``perfbench/``.  A name that occurs only at its own definition has no caller,
no test and no benchmark binding.  Dunders and ``main`` (the console entry
point, named in ``pyproject.toml``) are exempt.  No leftover imports either:
every name a module-level import binds is used in its module or listed in
its ``__all__``."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "weakfront"
SEARCHED = ("src", "tests", "perfbench")


def _definitions(tree):
    """Names of module-level functions and classes, and of their methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield item.name


def _word_counts():
    counts = Counter()
    for top in SEARCHED:
        for path in (ROOT / top).rglob("*.py"):
            counts.update(re.findall(r"\w+", path.read_text()))
    return counts


def test_every_definition_is_named_elsewhere():
    counts = _word_counts()
    dead = sorted(
        f"{path.stem}.{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in _definitions(ast.parse(path.read_text()))
        if not (name.startswith("__") and name.endswith("__"))
        and name != "main"
        and counts[name] <= 1
    )
    assert dead == []


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
