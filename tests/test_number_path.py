"""One exact number path: outside ``numeric.py``, which clears denominators
for the engine (``common_denominator``, ``scaled``, ``primitive`` and the
JSON codec), and ``oracle.py``, which clears its own so that it shares no
code with the engine, no module under ``src/weakfront`` reads the
``numerator`` or ``denominator`` of a number.  A read is the attribute of an
``Attribute`` node; a name in a docstring or a comment is not one."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "weakfront"
CLEARING = ("numeric.py", "oracle.py")
PARTS = ("numerator", "denominator")


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
