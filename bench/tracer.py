"""In-memory span tracing of realstab's layers, installed from outside the package.

``install`` wraps the public functions of each realstab module, the public
methods and arithmetic operators of the classes it defines, and the two
private Monte-Carlo steps (draw and check). Because the package binds many
names at import (``from .poly import poly_gcd``), a function wrapper is
installed on every realstab module namespace that holds the original
object, and a method wrapper is installed on the class.

Each call records one span: name, start, end (``perf_counter_ns``), parent
span and op id. Spans live in flat arrays while the run is going and are
summarized (and optionally written out) when it ends. Self time is the span
duration minus the part its direct child spans cover; since spans of one
thread nest properly, that is the duration minus the children's durations.
"""

from __future__ import annotations

import array
import os
import sys
import time
import types

import numpy as np

LAYERS = ("poly", "ratfun", "matrix", "analysis", "realization", "iop", "sls",
          "youla", "uncertainty", "fileio", "cli")

# Operators that do algebra; comparisons and hashing are left unwrapped.
_DUNDERS = {"__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
            "__mul__", "__rmul__", "__matmul__", "__truediv__", "__rtruediv__",
            "__divmod__", "__floordiv__", "__mod__", "__call__"}

# Span names that differ from "<module>.<function name>".
_RENAMES = {
    "poly.poly_gcd": "poly.gcd",
    "realization.build_plant_controller": "realization.build",
    "realization.build_state_feedback": "realization.build",
    "realization.build_sf_sls": "realization.build",
    "realization.build_output_feedback": "realization.build",
    "realization.raw_realization": "realization.build",
    "uncertainty._sample_with_norm": "uncertainty.draw",
    "uncertainty._evaluate_sample": "uncertainty.check",
}
_PRIVATE_BOUNDARIES = {"uncertainty": ("_sample_with_norm", "_evaluate_sample")}

OP_SPAN = "bench.op"


class Recorder:
    """Flat span store plus the counters measured at layer boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array.array("H")
        self.parent = array.array("i")
        self.op = array.array("i")
        self.start = array.array("q")
        self.end = array.array("q")
        self.outer = array.array("b")  # 0 when an ancestor span has the same name
        self.stack = [-1]
        self.active: list[int] = []
        self.current_op = [-1]
        self.counters = {"poly.max_degree": 0, "poly.max_coeff_bits": 0,
                         "poly.gcd.nontrivial": 0, "fileio.bytes_written": 0}
        self._op_root = self.wrap(lambda fn: fn(), OP_SPAN)

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.active.append(0)
        return self._ids[name]

    def wrap(self, fn, name: str, after=None):
        """Return fn wrapped in a span; ``after(args, result)`` updates counters."""
        nid = self.intern(name)
        name_id, parent, op, start, end, outer = (
            self.name_id.append, self.parent.append, self.op.append,
            self.start.append, self.end.append, self.outer.append)
        ends, stack, active, current_op = self.end, self.stack, self.active, self.current_op
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(ends)
            name_id(nid)
            parent(stack[-1])
            op(current_op[0])
            outer(active[nid] == 0)
            end(0)
            stack.append(i)
            active[nid] += 1
            start(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                active[nid] -= 1
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        return traced

    def run_op(self, op_id: int, fn):
        """Run one benchmark op under a root span carrying its op id."""
        self.current_op[0] = op_id
        try:
            return self._op_root(fn)
        finally:
            self.current_op[0] = -1

    # -- counters measured at the boundaries ---------------------------------

    def _poly_sizes(self, polys) -> None:
        c = self.counters
        for p in polys:
            coeffs = p.coeffs
            if len(coeffs) - 1 > c["poly.max_degree"]:
                c["poly.max_degree"] = len(coeffs) - 1
            bits = max(max(q.numerator.bit_length(), q.denominator.bit_length())
                       for q in coeffs)
            if bits > c["poly.max_coeff_bits"]:
                c["poly.max_coeff_bits"] = bits

    def after_poly_mul(self, args, result) -> None:
        if result is not NotImplemented:
            self._poly_sizes((result,))

    def after_poly_divmod(self, args, result) -> None:
        if result is not NotImplemented:
            self._poly_sizes(result)

    def after_poly_gcd(self, args, result) -> None:
        if result.degree > 0:
            self.counters["poly.gcd.nontrivial"] += 1

    def after_save(self, args, result) -> None:
        self.counters["fileio.bytes_written"] += os.path.getsize(args[1])

    # -- results -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.end)

    def arrays(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.uint16),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
            "outer": np.frombuffer(self.outer, dtype=np.int8),
        }

    def summarize(self) -> dict:
        """Per span name: calls, outermost total seconds, self seconds."""
        a = self.arrays()
        dur = (a["end_ns"] - a["start_ns"]).astype(np.float64)
        has_parent = a["parent"] >= 0
        child_cover = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                                  minlength=len(dur))
        self_ns = dur - child_cover
        k = len(self.names)
        calls = np.bincount(a["name_id"], minlength=k)
        total = np.bincount(a["name_id"], weights=dur * a["outer"], minlength=k)
        self_sum = np.bincount(a["name_id"], weights=self_ns, minlength=k)
        return {name: {"calls": int(calls[i]), "total_s": float(total[i]) / 1e9,
                       "self_s": float(self_sum[i]) / 1e9}
                for i, name in enumerate(self.names)}

    def child_calls(self, child: str, parent: str) -> int:
        """Number of ``child`` spans whose direct parent is a ``parent`` span."""
        if child not in self._ids or parent not in self._ids:
            return 0
        a = self.arrays()
        parents = a["parent"][a["name_id"] == self._ids[child]]
        parents = parents[parents >= 0]
        return int(np.count_nonzero(a["name_id"][parents] == self._ids[parent]))

    def all_counters(self) -> dict:
        """The boundary counters plus those read off the span tree."""
        # Gauss-Jordan inverts one pivot entry per eliminated column.
        pivots = self.child_calls("ratfun.inverse", "matrix.inverse")
        return dict(self.counters, **{"matrix.inverse.pivots": pivots})

    def write(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def _span_name(module: str, fn_name: str) -> str:
    name = f"{module}.{fn_name.strip('_')}"
    return _RENAMES.get(f"{module}.{fn_name}", name)


def _own_function(obj, filename: str):
    """The plain function behind obj when its code lives in filename, else None."""
    fn = obj.__func__ if isinstance(obj, (classmethod, staticmethod)) else obj
    if isinstance(fn, types.FunctionType) and fn.__code__.co_filename == filename:
        return fn
    return None


def _methods(module):
    """(class, attribute, raw attribute, function) for every method to wrap."""
    for cls in list(vars(module).values()):
        if not (isinstance(cls, type) and cls.__module__ == module.__name__):
            continue
        for name, raw in list(vars(cls).items()):
            if name.startswith("_") and name not in _DUNDERS:
                continue
            fn = _own_function(raw, module.__file__)
            if fn is not None:
                yield cls, name, raw, fn


def _functions(layer: str, module):
    """Module-level functions to wrap: the public ones plus the named private steps."""
    names = [n for n in vars(module) if not n.startswith("_")]
    for name in names + list(_PRIVATE_BOUNDARIES.get(layer, ())):
        obj = vars(module)[name]
        if _own_function(obj, module.__file__) is obj:
            yield obj


def install(rec: Recorder) -> None:
    """Wrap every layer boundary of the loaded realstab package."""
    after = {"poly.mul": rec.after_poly_mul, "poly.divmod": rec.after_poly_divmod,
             "poly.gcd": rec.after_poly_gcd,
             "fileio.save_system": rec.after_save, "fileio.save_report": rec.after_save}
    replaced: dict[int, tuple] = {}
    for layer in LAYERS:
        module = sys.modules[f"realstab.{layer}"]
        methods = list(_methods(module))
        owners: dict[str, set] = {}
        for cls, _, _, fn in methods:
            owners.setdefault(fn.__name__.strip("_"), set()).add(cls)
        for cls, name, raw, fn in methods:
            base = fn.__name__.strip("_")
            # Qualify with the class only where two classes of a module share a name.
            span = f"{layer}.{cls.__name__}.{base}" if len(owners[base]) > 1 \
                else _span_name(layer, fn.__name__)
            wrapper = rec.wrap(fn, span, after.get(span))
            if isinstance(raw, (classmethod, staticmethod)):
                wrapper = type(raw)(wrapper)
            setattr(cls, name, wrapper)
        for fn in _functions(layer, module):
            span = _span_name(layer, fn.__name__)
            replaced[id(fn)] = (fn, rec.wrap(fn, span, after.get(span)))
    for name, namespace in list(sys.modules.items()):
        if name != "realstab" and not name.startswith("realstab."):
            continue
        for attr, value in list(vars(namespace).items()):
            hit = replaced.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(namespace, attr, hit[1])
