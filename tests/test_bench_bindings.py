"""The benchmark's tracer binds engine functions by name and reads some of
their arguments by position.  These checks read ``perfbench/tracing.py`` and
``perfbench/run.py`` as source (nothing there is imported or run) and fail
when an engine change would leave a binding dangling."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _module(name):
    return ast.parse((PERFBENCH / name).read_text())


def _constant(tree, name):
    """The literal value assigned to a module-level name."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} is not assigned in the module")


TRACING = _module("tracing.py")
TARGETS = _constant(TRACING, "SPAN_TARGETS") + _constant(TRACING, "COUNT_TARGETS")
REQUIRED = _constant(_module("run.py"), "REQUIRED_CALLS")


def _resolve(mod_name, path):
    """The object the tracer wraps: a class-dict entry for methods (as the
    tracer reads it), a module attribute otherwise."""
    obj = importlib.import_module(f"weakfront.{mod_name}")
    if "." in path:
        cls_name, attr = path.split(".")
        cls = getattr(obj, cls_name)
        assert attr in cls.__dict__, f"{cls_name}.{attr} is not defined on the class"
        raw = cls.__dict__[attr]
        return raw.__func__ if isinstance(raw, classmethod) else raw
    return getattr(obj, path)


@pytest.mark.parametrize("mod_name,path,name", TARGETS, ids=[t[2] + ":" + t[1] for t in TARGETS])
def test_every_target_resolves_to_an_engine_function(mod_name, path, name):
    assert callable(_resolve(mod_name, path))


def test_every_required_call_is_a_target():
    names = {t[2] for t in TARGETS}
    for workload, required in REQUIRED.items():
        assert set(required) <= names, workload


def _positional_reads():
    """(span name, position, parameter name) for every
    ``_arg(args, kwargs, position, name)`` in ``Recorder.on_call``, under the
    ``name == ...`` / ``name in (...)`` test that guards it."""
    on_call = next(
        f
        for cls in TRACING.body
        if isinstance(cls, ast.ClassDef) and cls.name == "Recorder"
        for f in cls.body
        if isinstance(f, ast.FunctionDef) and f.name == "on_call"
    )
    reads = []

    def visit(node):
        if isinstance(node, ast.If):
            spans = ast.literal_eval(node.test.comparators[0])
            spans = (spans,) if isinstance(spans, str) else spans
            for call in ast.walk(ast.Module(body=node.body, type_ignores=[])):
                if (
                    isinstance(call, ast.Call)
                    and getattr(call.func, "id", None) == "_arg"
                ):
                    pos, param = (ast.literal_eval(a) for a in call.args[2:4])
                    reads.extend((s, pos, param) for s in spans)
            for child in node.orelse:
                visit(child)
        else:
            for child in ast.iter_child_nodes(node):
                visit(child)

    visit(on_call)
    return reads


READS = _positional_reads()


def test_the_tracer_reads_the_frontier_cores_arguments():
    spans = {s for s, _, _ in READS}
    assert {
        "staircase2d.classify_points_2d",
        "staircase2d.canonical_indices_2d",
    } <= spans


@pytest.mark.parametrize("span,pos,param", READS, ids=[f"{r[0]}:{r[2]}" for r in READS])
def test_arguments_read_by_position_keep_their_position(span, pos, param):
    for mod_name, path, name in TARGETS:
        if name == span:
            params = list(inspect.signature(_resolve(mod_name, path)).parameters)
            assert params[pos] == param, (span, params)
