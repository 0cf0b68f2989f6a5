"""Outside-in tracing of the engine's public functions.

Wrappers are installed from outside the program: each named function is
replaced on every ``weakfront`` module attribute that binds it (so
``duality.beta_value_set`` is wrapped as well as
``conjugate.beta_value_set``), and on the class for methods.  A span
wrapper records (id, name, start, end, parent, op) in memory and keeps exact
counts; ``Recorder.dump`` writes the spans out when the run ends.  The hot
leaves are wrapped by count-only wrappers in a pass of their own, so their
wrapper cost does not inflate any span's self time.
"""

from __future__ import annotations

import gzip
import json
import sys
from array import array
from collections import defaultdict
from time import perf_counter

# (module, attribute path, span name).  Several functions may share a name.
SPAN_TARGETS = (
    ("staircase2d", "classify_points_2d", "staircase2d.classify_points_2d"),
    ("staircase2d", "canonical_indices_2d", "staircase2d.canonical_indices_2d"),
    ("staircase2d", "RayBasis.for_cone", "staircase2d.RayBasis.for_cone"),
    ("order_sets", "classify_many", "order_sets.classify_many"),
    ("order_sets", "wsup_finite", "order_sets.wsup_finite"),
    ("order_sets", "winf_finite", "order_sets.winf_finite"),
    ("order_sets", "ws_sum", "order_sets.ws_sum"),
    ("order_sets", "GenSet.classify", "order_sets.GenSet.classify"),
    ("order_sets", "set_preceq", "order_sets.set_preceq"),
    ("cones", "is_positive_operator", "cones.is_positive_operator"),
    ("cones", "sample_positive_operators", "cones.sample_positive_operators"),
    ("cones", "sample_linops", "cones.sample_linops"),
    ("conjugate", "conjugate", "conjugate.conjugate"),
    ("conjugate", "compose", "conjugate.compose"),
    ("conjugate", "beta_value_set", "conjugate.beta_value_set"),
    ("conjugate", "script_A_membership", "conjugate.script_A_membership"),
    ("farkas", "alpha_holds", "farkas.alpha_holds"),
    ("farkas", "verify_certificate", "farkas.verify_certificate"),
    ("farkas", "convert_certificate", "farkas.convert_certificate"),
    ("duality", "dual_value", "duality.dual_value"),
    ("duality", "winf_vp", "duality.winf_vp"),
    ("oracle", "brute_region_bulk", "oracle.brute_region_bulk"),
    ("oracle", "scalar_lagrange_dual", "oracle.scalar_duals"),
    ("oracle", "scalar_fenchel_lagrange_dual2", "oracle.scalar_duals"),
    ("oracle", "scalar_fenchel_lagrange_dual3", "oracle.scalar_duals"),
    ("instances", "load_instance", "instances.load_instance"),
)
GENERATORS = {"cones.sample_positive_operators", "cones.sample_linops"}

COUNT_TARGETS = (
    ("numeric", "dot", "numeric.dot"),
    ("numeric", "mat_vec", "numeric.mat_vec"),
    ("cones", "classify_point", "cones.classify_point"),
)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs.get(name)


def _entries(op):
    return None if op is None else op.entries


class Recorder:
    """Spans and counts of one pass.

    ``op`` is the index of the op in flight (-1 outside ops); nothing is
    recorded while ``active`` is false.
    """

    def __init__(self):
        self.active = False
        self.op = -1
        self.names: list = []
        self._index: dict = {}
        self._stack: list = []  # [name index, start, child time, span id]
        self._next_id = 0
        self.span_id = array("q")
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_op = array("i")
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.depth = defaultdict(int)
        self.stats = defaultdict(int)  # "<name>.<stat>" -> exact count
        self.covered_s = 0.0  # time under top-level spans inside ops
        self._beta_keys: set = set()

    def index(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def enter(self, idx: int) -> None:
        self.depth[idx] += 1
        self._stack.append([idx, perf_counter(), 0.0, self._next_id])
        self._next_id += 1

    def exit(self) -> None:
        end = perf_counter()
        idx, start, child, sid = self._stack.pop()
        dur = end - start
        self.self_s[idx] += dur - child
        self.depth[idx] -= 1
        if self.depth[idx] == 0:
            self.incl_s[idx] += dur  # outermost call only, for recursion
        if self._stack:
            parent = self._stack[-1]
            parent[2] += dur
            parent_id = parent[3]
        else:
            parent_id = -1
            if self.op >= 0:
                self.covered_s += dur
        self.span_id.append(sid)
        self.span_name.append(idx)
        self.span_start.append(start)
        self.span_end.append(end)
        self.span_parent.append(parent_id)
        self.span_op.append(self.op)

    def in_span(self, name: str) -> bool:
        return self.depth[self._index[name]] > 0

    def dump(self, path) -> int:
        """Write every span as gzipped JSON; returns the span count."""
        doc = {
            "names": self.names,
            "fields": ["id", "name", "start", "end", "parent", "op"],
            "spans": [
                list(t)
                for t in zip(
                    self.span_id,
                    self.span_name,
                    self.span_start,
                    self.span_end,
                    self.span_parent,
                    self.span_op,
                )
            ],
        }
        with gzip.open(path, "wt", compresslevel=1) as f:
            json.dump(doc, f, separators=(",", ":"))
        return len(self.span_id)

    # --- per-function counts -------------------------------------------------

    def on_call(self, name, args, kwargs) -> None:
        st = self.stats
        if name == "staircase2d.classify_points_2d":
            st[name + ".points"] += len(_arg(args, kwargs, 2, "points"))
        elif name == "staircase2d.canonical_indices_2d":
            st[name + ".points"] += len(_arg(args, kwargs, 1, "vecs"))
        elif name == "order_sets.classify_many":
            st[name + ".points"] += len(_arg(args, kwargs, 2, "points"))
        elif name in ("order_sets.wsup_finite", "order_sets.winf_finite"):
            st[name + ".points_in"] += len(_arg(args, kwargs, 0, "M"))
        elif name == "conjugate.conjugate":
            st[name + ".cloud_points"] += len(_arg(args, kwargs, 0, "F").samples)
        elif name == "oracle.brute_region_bulk":
            st[name + ".grid_points"] += len(_arg(args, kwargs, 2, "grid"))
        elif name == "conjugate.beta_value_set":
            key = (
                id(_arg(args, kwargs, 1, "P")),
                _arg(args, kwargs, 0, "index"),
                _entries(_arg(args, kwargs, 2, "L")),
                _arg(args, kwargs, 3, "T").op.entries,
                _entries(_arg(args, kwargs, 4, "Lp")),
                _entries(_arg(args, kwargs, 5, "Lpp")),
            )
            self._beta_keys.add(key)
            st[name + ".distinct"] = len(self._beta_keys)
            if self.in_span("conjugate.script_A_membership"):
                st["conjugate.script_A_membership.candidates"] += 1
            if self.in_span("duality.dual_value"):
                st["duality.dual_value.certificates"] += 1

    def on_result(self, name, result) -> None:
        if name == "order_sets.wsup_finite":
            self.stats[name + ".gens_out"] += len(result.generators)
        elif name == "conjugate.script_A_membership":
            self.stats[name + ".found"] += result is not None
        elif name == "duality.dual_value":
            self.stats[name + ".attained"] += len(result.attained.points)


def _span_wrapper(rec: Recorder, name: str, fn):
    idx = rec.index(name)

    if name in GENERATORS:

        def pieces(it):
            while True:
                rec.enter(idx)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    rec.exit()
                rec.stats[name + ".yielded"] += 1
                yield item

        def gen_wrapper(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            rec.calls[idx] += 1
            return pieces(fn(*args, **kwargs))

        return gen_wrapper

    def wrapper(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        rec.calls[idx] += 1
        rec.on_call(name, args, kwargs)
        rec.enter(idx)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.exit()
        rec.on_result(name, result)
        return result

    return wrapper


def _count_wrapper(rec: Recorder, name: str, fn):
    idx = rec.index(name)
    calls = rec.calls

    def wrapper(*args, **kwargs):
        if rec.active:
            calls[idx] += 1
        return fn(*args, **kwargs)

    return wrapper


def _install(rec: Recorder, targets, make) -> dict:
    """Wrap each target everywhere it is bound; returns name -> bindings."""
    import weakfront  # noqa: F401  (loads every engine module)

    modules = [
        m
        for n, m in sorted(sys.modules.items())
        if m is not None and (n == "weakfront" or n.startswith("weakfront."))
    ]
    bound = defaultdict(int)
    for mod_name, path, name in targets:
        mod = sys.modules[f"weakfront.{mod_name}"]
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(mod, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(make(rec, name, raw.__func__)))
            else:
                setattr(cls, attr, make(rec, name, raw))
            bound[name] += 1
            continue
        fn = getattr(mod, path)
        wrapped = make(rec, name, fn)
        for m in modules:
            for attr, val in list(vars(m).items()):
                if val is fn:
                    setattr(m, attr, wrapped)
                    bound[name] += 1
    return dict(bound)


def install_spans(rec: Recorder) -> dict:
    for _, _, name in SPAN_TARGETS:
        rec.index(name)
    return _install(rec, SPAN_TARGETS, _span_wrapper)


def install_counts(rec: Recorder) -> dict:
    return _install(rec, COUNT_TARGETS, _count_wrapper)


def summary(rec: Recorder) -> dict:
    """Per-function calls, self and inclusive times, and exact counts."""
    out = {}
    for idx, name in enumerate(rec.names):
        out[name + ".calls"] = rec.calls.get(idx, 0)
        out[name + ".self_s"] = rec.self_s.get(idx, 0.0)
        out[name + ".s"] = rec.incl_s.get(idx, 0.0)
    out.update(rec.stats)
    return out
