"""Spans and counters recorded around lagfloor's functions, from outside.

``install(tracer)`` wraps every function and method defined in a loaded
``lagfloor`` module, then rebinds each name that still points at an
original: the ``from .x import y`` copies in other modules, the package's
re-exports, and function values held in module-level dicts (the CLI's
command table).  Expr arithmetic operators get a counter only; a span per
operator would cost more than the operator.

A span is (name, start, end, parent, op id).  Spans live in flat arrays in
memory and are written once, by ``Tracer.dump``.  A layer is the module
that defines the function; ``_rowreduce_py`` belongs to ``linalg``.
"""

from __future__ import annotations

import functools
import json
import sys
import types
from array import array
from time import perf_counter

PACKAGE = "lagfloor"

EXPR_OPERATORS = frozenset(
    ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
     "__truediv__", "__rtruediv__", "__neg__", "__pow__")
)

LAYER_ALIASES = {"_rowreduce_py": "linalg", "_rowreduce": "linalg"}

# Module-level caches whose hit ratio is read: hits = calls - cache growth.
# The wrapper only takes len() of the dict before and after each call.
CACHE_PROBES = {
    ("hierarchy", "_invariant_forms"): "_INV_FORMS_CACHE",
    ("cecohom", "ce_differential"): "_DIFF_CACHE",
}

# Helpers of the expression algebra run per monomial; they are timed as part
# of their callers, like the operators.
UNSPANNED_LAYERS = frozenset(("expr",))


def layer_of(module_name: str) -> str:
    short = module_name.rpartition(".")[2] if module_name != PACKAGE else PACKAGE
    return LAYER_ALIASES.get(short, short)


class Tracer:
    """In-memory span store plus named counters."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.open_count: list[int] = []
        self.outer_s: list[float] = []  # time of outermost spans per name
        self.counters: dict[str, float] = {}
        self.op_id = -1
        self.on = False
        self._originals = []  # keeps wrapped originals alive for id() lookups

    # -- recording ---------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
            self.open_count.append(0)
            self.outer_s.append(0.0)
        return nid

    def count(self, key: str, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def enter(self, nid: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_op.append(self.op_id)
        self.span_end.append(0.0)
        self.stack.append(idx)
        self.open_count[nid] += 1
        self.span_start.append(perf_counter())
        return idx

    def leave(self, nid: int, idx: int):
        end = perf_counter()
        self.span_end[idx] = end
        self.stack.pop()
        self.open_count[nid] -= 1
        if not self.open_count[nid]:
            self.outer_s[nid] += end - self.span_start[idx]

    # -- wrapping ----------------------------------------------------------

    def span_wrapper(self, layer: str, qualname: str, fn, probe=None):
        nid = self.name_id(f"{layer}:{qualname}")
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            idx = tracer.enter(nid)
            state = probe.before(args, kwargs) if probe else None
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if probe:
                    probe.after(state, None, False)
                raise
            else:
                if probe:
                    probe.after(state, result, True)
                return result
            finally:
                tracer.leave(nid, idx)

        return wrapper

    def counter_wrapper(self, key: str, fn):
        counters = self.counters
        counters.setdefault(key, 0)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args):
            if tracer.on:
                counters[key] += 1
            return fn(*args)

        return wrapper

    # -- output ------------------------------------------------------------

    def self_times(self):
        """Self seconds per span name: duration minus direct children."""
        n = len(self.span_start)
        child = [0.0] * n
        start, end, parent = self.span_start, self.span_end, self.span_parent
        for i in range(n):
            par = parent[i]
            if par >= 0:
                child[par] += end[i] - start[i]
        per_name = [0.0] * len(self.names)
        calls = [0] * len(self.names)
        for i, nid in enumerate(self.span_name):
            per_name[nid] += end[i] - start[i] - child[i]
            calls[nid] += 1
        return per_name, calls

    def summary(self) -> dict:
        """Per span name: calls, self seconds, outermost seconds; plus counters."""
        self_s, calls = self.self_times()
        return {
            "spans": {
                name: {"calls": calls[i], "self_s": self_s[i], "outer_s": self.outer_s[i]}
                for i, name in enumerate(self.names)
                if calls[i]
            },
            "counters": dict(self.counters),
            "span_count": len(self.span_start),
        }

    def dump(self, path_prefix: str):
        """Write every span: a JSON header plus five flat binary arrays."""
        with open(path_prefix + ".json", "w") as fh:
            json.dump({"names": self.names, "arrays": ["name:i", "parent:i", "op:i", "start:d", "end:d"],
                       "count": len(self.span_start)}, fh)
        with open(path_prefix + ".bin", "wb") as fh:
            for arr in (self.span_name, self.span_parent, self.span_op, self.span_start, self.span_end):
                arr.tofile(fh)


class _RrefProbe:
    """rref(rows, ncols): counts calls and cells (rows x cols) of its input."""

    def __init__(self, tracer):
        self.tracer = tracer

    def before(self, args, kwargs):
        rows, ncols = args[0], args[1]
        self.tracer.count("linalg.rref_cells", len(rows) * ncols)

    def after(self, state, result, ok):
        pass


class _RowReduceProbe:
    """row_reduce: largest coefficient bit length of its input and output.

    The scan runs inside a ``trace:probe`` child span, so the time it takes
    is not charged to linalg's self time.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self.nid = tracer.name_id("trace:probe")

    def _scan(self, rows):
        best = 0
        for row in rows:
            for x in row:
                b = abs(x).bit_length()
                if b > best:
                    best = b
        if best > self.tracer.counters.get("linalg.max_coeff_bits", 0):
            self.tracer.counters["linalg.max_coeff_bits"] = best

    def before(self, args, kwargs):
        idx = self.tracer.enter(self.nid)
        self._scan(args[0])
        self.tracer.leave(self.nid, idx)

    def after(self, state, result, ok):
        if ok:
            idx = self.tracer.enter(self.nid)
            self._scan(result[1])
            self.tracer.leave(self.nid, idx)


class _FoundProbe:
    """find_potential: counts calls that returned a potential."""

    def __init__(self, tracer, key):
        self.tracer, self.key = tracer, key
        tracer.counters.setdefault(key, 0)

    def before(self, args, kwargs):
        return None

    def after(self, state, result, ok):
        if ok and result is not None:
            self.tracer.counters[self.key] += 1


class _CacheProbe:
    """Counts cache growth across each call; the dict is only measured."""

    def __init__(self, tracer, module, attr, key):
        self.tracer, self.module, self.attr, self.key = tracer, module, attr, key
        tracer.counters.setdefault(key, 0)

    def before(self, args, kwargs):
        return len(getattr(self.module, self.attr))

    def after(self, state, result, ok):
        self.tracer.counters[self.key] += len(getattr(self.module, self.attr)) - state


def _probe_for(tracer, module, layer, name):
    if (layer, name) == ("linalg", "rref"):
        return _RrefProbe(tracer)
    if (layer, name) == ("linalg", "row_reduce"):
        return _RowReduceProbe(tracer)
    if (layer, name) == ("calculus", "find_potential"):
        return _FoundProbe(tracer, "calculus.find_potential_found")
    if (layer, name) in CACHE_PROBES:
        return _CacheProbe(tracer, module, CACHE_PROBES[(layer, name)], f"{layer}.{name}.cache_growth")
    return None


def _lagfloor_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def _wrap_class(tracer, cls, layer, replaced):
    for attr, raw in list(vars(cls).items()):
        qual = f"{cls.__name__}.{attr}"
        if attr in EXPR_OPERATORS and layer == "expr" and cls.__name__ == "Expr":
            setattr(cls, attr, tracer.counter_wrapper("expr.ops", raw))
            continue
        if attr.startswith("__") or layer in UNSPANNED_LAYERS:
            continue
        if isinstance(raw, staticmethod):
            w = tracer.span_wrapper(layer, qual, raw.__func__)
            setattr(cls, attr, staticmethod(w))
            replaced[id(raw.__func__)] = (raw.__func__, w)
        elif isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(tracer.span_wrapper(layer, qual, raw.__func__)))
        elif isinstance(raw, types.FunctionType):
            setattr(cls, attr, tracer.span_wrapper(layer, qual, raw))


def install(tracer: Tracer):
    """Wrap every lagfloor function and method once; rebind imported names."""
    modules = _lagfloor_modules()
    replaced: dict[int, tuple] = {}
    for mod in modules:
        layer = layer_of(mod.__name__)
        for attr, obj in list(vars(mod).items()):
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if isinstance(obj, type):
                _wrap_class(tracer, obj, layer, replaced)
            elif isinstance(obj, types.FunctionType):
                if layer in UNSPANNED_LAYERS and attr.startswith("_"):
                    continue
                w = tracer.span_wrapper(layer, attr, obj, _probe_for(tracer, mod, layer, attr))
                setattr(mod, attr, w)
                replaced[id(obj)] = (obj, w)
    tracer._originals.extend(orig for orig, _ in replaced.values())
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            hit = replaced.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
            elif type(obj) is dict:
                for key, value in list(obj.items()):
                    hit = replaced.get(id(value))
                    if hit is not None and hit[0] is value:
                        obj[key] = hit[1]
    return tracer


def layer_metrics(summaries, import_s: float, traced_wall_s: float, untraced_wall_s: float) -> dict:
    """The per-layer metrics, from one or more ``Tracer.summary()`` dicts."""
    spans: dict[str, dict] = {}
    counters: dict[str, float] = {}
    for summ in summaries:
        for name, rec in summ["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "self_s": 0.0, "outer_s": 0.0})
            for k in acc:
                acc[k] += rec[k]
        for k, v in summ["counters"].items():
            counters[k] = max(counters.get(k, 0), v) if k.endswith("max_coeff_bits") else counters.get(k, 0) + v

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def outer(name):
        return spans.get(name, {}).get("outer_s", 0.0)

    def layer_self(layer):
        return sum(rec["self_s"] for name, rec in spans.items() if name.split(":", 1)[0] == layer)

    def hit_ratio(layer, fn):
        n = calls(f"{layer}:{fn}")
        growth = counters.get(f"{layer}.{fn}.cache_growth", 0)
        return (n - growth) / n if n else 0.0

    fp_calls = calls("calculus:find_potential")
    return {
        "expr.ops": ("count", counters.get("expr.ops", 0)),
        "calculus.lie_derivative_calls": ("count", calls("calculus:lie_derivative_scalar")),
        "calculus.self_s": ("s", layer_self("calculus")),
        "calculus.find_potential_found_ratio": (
            "ratio", counters.get("calculus.find_potential_found", 0) / fp_calls if fp_calls else 0.0),
        "pairs.pi_map_calls": ("count", calls("pairs:pi_map")),
        "pairs.closure_module_s": ("s", outer("pairs:closure_module")),
        "hierarchy.k3_space_s": ("s", outer("hierarchy:k3_space")),
        "hierarchy.phi3_s": ("s", outer("hierarchy:phi3")),
        "hierarchy.inv_forms_cache_hit_ratio": ("ratio", hit_ratio("hierarchy", "_invariant_forms")),
        "exprspace.systems": (
            "count", calls("exprspace:solve_linear_expr_system") + calls("exprspace:kernel_of_expr_system")),
        "linalg.self_s": ("s", layer_self("linalg")),
        "linalg.row_reduce_s": ("s", outer("linalg:row_reduce")),
        "linalg.rref_calls": ("count", calls("linalg:rref")),
        "linalg.rref_cells": ("count", counters.get("linalg.rref_cells", 0)),
        "linalg.max_coeff_bits": ("bits", counters.get("linalg.max_coeff_bits", 0)),
        "spectral.self_s": ("s", layer_self("spectral")),
        "cecohom.diff_cache_hit_ratio": ("ratio", hit_ratio("cecohom", "ce_differential")),
        "problemfile.self_s": ("s", layer_self("problemfile")),
        "cli.import_s": ("s", import_s),
        "trace.overhead_ratio": ("ratio", traced_wall_s / untraced_wall_s if untraced_wall_s else 0.0),
    }
