"""One exact number path: outside ``numeric.py``, which clears denominators
for the engine (``common_denominator``, ``scaled``, ``primitive`` and the
JSON codec), and ``oracle.py``, which clears its own so that it shares no
code with the engine, no module under ``src/weakfront`` reads the
``numerator`` or ``denominator`` of a number.  A read is the attribute of an
``Attribute`` node; a name in a docstring or a comment is not one.

Operators are cleared in one place too: a ``LinOp`` is stored as its
cleared form, and outside ``cones.py`` no function both reads an
``.entries`` attribute and calls ``common_denominator`` or ``scaled``, which
would clear an operator again instead of reading ``cleared()``.  So are
point sets: a ``FiniteVecSet`` is cleared by its constructor, a map by its
own, and outside ``numeric.py`` and ``oracle.py`` no function both reads a
``.points`` or ``.samples`` attribute and clears, which would clear a set
or a map again instead of reading its ``cleared()``."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "weakfront"
CLEARING = ("numeric.py", "oracle.py")
PARTS = ("numerator", "denominator")
CLEARS = ("common_denominator", "scaled")
POINT_SETS = ("points", "samples")


def _part_reads(tree):
    """``line: attr`` for each read of a number's numerator or denominator."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in PARTS:
            yield f"{node.lineno}: .{node.attr}"


def test_only_the_clearing_modules_read_numerators_and_denominators():
    reads = sorted(
        f"{path.name}:{read}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name not in CLEARING
        for read in _part_reads(ast.parse(path.read_text()))
    )
    assert reads == []


def test_the_rule_sees_a_read():
    tree = ast.parse("d = x.denominator\nn = f(y).numerator\n# z.numerator\n")
    assert list(_part_reads(tree)) == ["1: .denominator", "2: .numerator"]


def _functions(body, prefix=""):
    """(qualified name, node) of each function and method in ``body``."""
    for node in body:
        if isinstance(node, ast.ClassDef):
            yield from _functions(node.body, f"{prefix}{node.name}.")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield f"{prefix}{node.name}", node


def _called(func):
    """The name a call reads its function by: ``f`` or ``m.f``."""
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _clearings(tree, attrs):
    """The functions of ``tree`` that read one of the attributes ``attrs``
    and call a clearing helper."""
    for name, fn in _functions(tree.body):
        nodes = list(ast.walk(fn))
        reads = any(isinstance(n, ast.Attribute) and n.attr in attrs for n in nodes)
        clears = any(isinstance(n, ast.Call) and _called(n.func) in CLEARS for n in nodes)
        if reads and clears:
            yield name


def _operator_clearings(tree):
    """The functions of ``tree`` that read an ``.entries`` attribute and
    call a clearing helper."""
    return _clearings(tree, ("entries",))


def test_only_cones_clears_an_operator():
    clearings = sorted(
        f"{path.name}:{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "cones.py"
        for name in _operator_clearings(ast.parse(path.read_text()))
    )
    assert clearings == []


def test_the_rule_sees_an_operator_cleared():
    tree = ast.parse(
        "def f(L):\n    return common_denominator(L.entries)\n"
        "class C:\n"
        "    def g(self, M, d):\n"
        "        return [numeric.scaled(r, d) for r in M.entries]\n"
        "def h(L):\n    return L.cleared()\n"
        "def k(v, entries):\n    return scaled(v, 2), entries\n"
    )
    assert list(_operator_clearings(tree)) == ["f", "C.g"]


def test_only_the_constructor_of_a_point_set_clears_it():
    clearings = sorted(
        f"{path.name}:{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name not in CLEARING
        for name in _clearings(ast.parse(path.read_text()), POINT_SETS)
    )
    assert clearings == []


def test_the_rule_sees_a_point_set_cleared():
    tree = ast.parse(
        "def f(M):\n    return common_denominator(M.points)\n"
        "class C:\n"
        "    def g(self, F, d):\n"
        "        return [numeric.scaled(v, d) for _, v in F.samples]\n"
        "def h(M):\n    return M.cleared()\n"
        "def k(points):\n    return scaled(points[0], 2)\n"
    )
    assert list(_clearings(tree, POINT_SETS)) == ["f", "C.g"]
