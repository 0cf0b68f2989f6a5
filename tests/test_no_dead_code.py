"""No dead exports: every module-level function, class and method defined in
``src/weakfront`` is named somewhere else in ``src/``, ``tests/`` or
``perfbench/``.  A name that occurs only at its own definition has no caller,
no test and no benchmark binding.  Dunders and ``main`` (the console entry
point, named in ``pyproject.toml``) are exempt."""

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
