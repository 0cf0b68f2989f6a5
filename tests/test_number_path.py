"""One exact number path: outside ``numeric.py``, which clears denominators
for the engine (``cleared``, ``primitive`` and the JSON codec), and
``oracle.py``, which clears its own so that it shares no code with the
engine, no module under ``src/weakfront`` reads the parts of a number: its
``numerator``, its ``denominator`` or its ``as_integer_ratio``.  A read is
the attribute of an ``Attribute`` node; a name in a docstring or a comment
is not one.

Operators are cleared in one place too: a ``LinOp`` is stored as its
cleared form, and outside ``cones.py`` no function both reads an
``.entries`` attribute and calls ``cleared`` on some entries, which would
clear an operator again instead of reading its stored form, the method
``cleared()`` (which takes no argument, and so is not a clear).  So are
point sets: a ``FiniteVecSet`` is cleared by its constructor, a map by its
own, and outside ``numeric.py`` and ``oracle.py`` no function both reads a
``.points`` or ``.samples`` attribute and clears, which would clear a set
or a map again instead of reading its ``cleared()``.

Past the clear, the certificate search and the dual merge run on integers:
one certify op and one dual op on E3, with fractional L and y, make no
``Fraction`` arithmetic, comparison or hashing call once their inputs and
the instance's tables are built.  Nor does building the maps and the
instance, tables included, from decoded samples, C and the cones."""

import ast
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from weakfront import conjugate, duality, farkas, order_sets
from weakfront.cones import LinOp
from weakfront.instances import shipped_instance
from weakfront.randgen import rand_instance

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "weakfront"
CLEARING = ("numeric.py", "oracle.py")
PARTS = ("numerator", "denominator", "as_integer_ratio")
CLEARS = ("cleared",)
POINT_SETS = ("points", "samples")


def _part_reads(tree):
    """``line: attr`` for each read of a number's numerator, denominator or
    integer ratio."""
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
    tree = ast.parse(
        "d = x.denominator\nn = f(y).numerator\n# z.numerator\n"
        "p, q = c.as_integer_ratio()\nr = map(Fraction.as_integer_ratio, v)\n"
    )
    assert list(_part_reads(tree)) == [
        "1: .denominator", "2: .numerator", "4: .as_integer_ratio",
        "5: .as_integer_ratio",
    ]


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


def _clears(node):
    """A call of a clearing function on some entries: ``cleared(...)`` or
    ``numeric.cleared(...)`` with arguments, not the stored forms'
    ``X.cleared()``, which take none."""
    return (
        isinstance(node, ast.Call)
        and _called(node.func) in CLEARS
        and bool(node.args or node.keywords)
    )


def _clearings(tree, attrs):
    """The functions of ``tree`` that read one of the attributes ``attrs``
    and call a clearing function."""
    for name, fn in _functions(tree.body):
        nodes = list(ast.walk(fn))
        reads = any(isinstance(n, ast.Attribute) and n.attr in attrs for n in nodes)
        clears = any(_clears(n) for n in nodes)
        if reads and clears:
            yield name


def _operator_clearings(tree):
    """The functions of ``tree`` that read an ``.entries`` attribute and
    call a clearing function."""
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
        "def f(L):\n    return cleared(chain(*L.entries))\n"
        "class C:\n"
        "    def g(self, M, d):\n"
        "        return [numeric.cleared(r, d) for r in M.entries]\n"
        "def h(L):\n    return L.cleared(), L.entries\n"
        "def k(v, entries):\n    return cleared(v, 2), entries\n"
        "def m(L):\n    return cleared(entries=L.entries)\n"
    )
    assert list(_operator_clearings(tree)) == ["f", "C.g", "m"]


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
        "def f(M):\n    return cleared(chain(*M.points))\n"
        "class C:\n"
        "    def g(self, F, d):\n"
        "        return [numeric.cleared(v, d) for _, v in F.samples]\n"
        "def h(M):\n    return M.cleared(), M.points\n"
        "def k(points):\n    return cleared(points[0], 2)\n"
    )
    assert list(_clearings(tree, POINT_SETS)) == ["f", "C.g"]


# Fraction's arithmetic, comparison and hashing methods.
FRACTION_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__", "__mod__",
    "__rmod__", "__divmod__", "__rdivmod__", "__pow__", "__rpow__", "__neg__",
    "__pos__", "__abs__", "__trunc__", "__floor__", "__ceil__", "__round__",
    "__lt__", "__le__", "__gt__", "__ge__", "__eq__", "__hash__",
)


def _fraction_calls(monkeypatch, run) -> Counter:
    """The calls of each method in ``FRACTION_OPS`` that ``run()`` makes."""
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    with monkeypatch.context() as m:
        for name in FRACTION_OPS:
            m.setattr(Fraction, name, counting(name, getattr(Fraction, name)))
        run()
    return calls


E3 = shipped_instance("E3")


def test_a_certify_op_makes_no_fraction_arithmetic(monkeypatch):
    """The certificate search, (alpha), re-verification and conversion at
    indices 1-3 with fractional L and y: each index finds a certificate."""
    L = LinOp([[Fraction(1, 2), 0], [0, Fraction(1, 3)]])
    y = (Fraction(-1, 2), Fraction(-3, 2))
    cfg = E3.search_config()
    found = []

    def run():
        for i in (1, 2, 3):
            cert = conjugate.script_A_membership(i, E3, L, y, cfg)
            found.append(farkas.alpha_holds(E3, L, y) and cert is not None)
            assert farkas.verify_certificate(E3, farkas.FarkasQuery(L, y, i), cert)
            for target in range(i - 1, 0, -1):
                down = farkas.convert_certificate(E3, L, cert, target)
                q = farkas.FarkasQuery(L, y, target)
                assert farkas.verify_certificate(E3, q, down)

    assert _fraction_calls(monkeypatch, run) == Counter()
    assert found == [True, True, True]


@pytest.mark.parametrize(
    "rows,attained",
    [
        ([[Fraction(1, 2), 0], [0, Fraction(1, 3)]], 1),
        ([[1, Fraction(-1, 2)], [0, 1]], 3),
    ],
    ids=["one point", "three points"],
)
def test_a_dual_op_makes_no_fraction_arithmetic(monkeypatch, rows, attained):
    """VD2 on the split grid at ``l_box=1`` with a fractional L, checked
    against the primal frontier; with three attained points the mapping
    back sorts them too."""
    L = LinOp(rows)
    cfg = E3.search_config(l_box=1)
    out = []

    def run():
        d = duality.dual_value(E3, "VD2", L, cfg)
        out.append((d, order_sets.set_preceq(d.frontier, duality.winf_vp(E3, L))))

    assert _fraction_calls(monkeypatch, run) == Counter()
    [(d, below)] = out
    assert below and len(d.attained) == attained
    assert [h for h, _ in d.certificates] == list(d.attained.points)


def test_building_maps_and_an_instance_makes_no_fraction_arithmetic(monkeypatch):
    """E1-E5, gap_toy and three random draws, rebuilt from their decoded
    samples, C, K and S: the maps sort and deduplicate their points and the
    instance its C on integers, and the tables merge the maps' rows on
    integers, so no ``Fraction`` is hashed, compared or combined."""
    sources = [shipped_instance(n) for n in ("E1", "E2", "E3", "E4", "E5", "gap_toy")]
    sources += [rand_instance(random.Random(k)) for k in range(3)]
    data = [(P.F.samples, P.G.samples, P.C, P.K, P.S) for P in sources]
    built = []

    def run():
        for f, g, C, K, S in data:
            F, G = conjugate.SampledMap(f), conjugate.SampledMap(g)
            built.append(duality.ProblemInstance(F, G, C, K, S))

    assert _fraction_calls(monkeypatch, run) == Counter()
    for P, Q in zip(sources, built):
        assert (Q.F, Q.G, Q.C, Q.feasible_F) == (P.F, P.G, P.C, P.feasible_F)
        assert Q.tables.xs == P.tables.xs and Q.tables.c == P.tables.c
