"""Per-layer tracing of the skeinrep package from outside it.

`install` wraps every public function of every skeinrep module under every
name that binds it: module globals (including `from ... import` copies and
the package namespace) and functions held in module-level dicts, lists and
tuples.  It also wraps the arithmetic and serialization methods of `Scalar`
and the product and inverse of `RingMatrix` on their classes.  Each call
becomes a span named after the defining module; spans are aggregated per
(name, parent) in memory, and a layer's self time is its span time minus
the time of the wrapped spans it caused.

`unwrapped_references` proves that no binding was missed: it lists every
reference to an original function that is still reachable from the
package after `install`.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

ROOT = "<job>"

# Public functions whose metric name differs from "<module>.<function>".
RENAMED = {"scalars.scalar_from_json": "scalars.from_json"}

# Functions whose distinct argument tuples are counted.
DISTINCT_ARGS = {"spaces.dimension"}

_SCALAR_OPS = {"__add__": "add", "__radd__": "add", "__mul__": "mul",
               "__rmul__": "mul", "invert": "invert"}


class Tracer:
    def __init__(self):
        self.stack = []        # [name, child_seconds] per open span
        self.spans = {}        # (name, parent) -> [calls, total_s, self_s]
        self.distinct = {name: set() for name in DISTINCT_ARGS}
        self.originals = {}    # id(original) -> (name, original)
        self.cached = {}       # name -> lru_cache object, for cache_info()

    def wrap(self, name, fn, namer=None):
        """A wrapper recording one span per call of `fn`.  `namer`, when
        given, picks the span name from the call's arguments."""
        stack, spans, perf_counter = self.stack, self.spans, time.perf_counter
        distinct = self.distinct.get(name)

        def wrapper(*args, **kwargs):
            span = namer(args) if namer is not None else name
            parent = stack[-1][0] if stack else ROOT
            if distinct is not None:
                distinct.add(repr((args, sorted(kwargs.items()))))
            frame = [span, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                rec = spans.get((span, parent))
                if rec is None:
                    rec = spans[(span, parent)] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]

        functools.update_wrapper(wrapper, fn)
        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        wrapper.__layertrace_wrapped__ = True
        return wrapper

    def exclude(self, seconds: float) -> None:
        """Keep time spent outside the program (a speed probe run from a
        signal handler) out of the self time of the span it interrupted."""
        if self.stack:
            self.stack[-1][1] += seconds

    # -- aggregation -----------------------------------------------------------

    def totals(self) -> dict:
        """name -> {"calls", "total_s", "self_s"} summed over parents."""
        out = {}
        for (name, _parent), (calls, total, own) in self.spans.items():
            t = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            t["calls"] += calls
            t["total_s"] += total
            t["self_s"] += own
        return out

    def span_table(self) -> list:
        return [{"name": name, "parent": parent, "calls": calls,
                 "total_s": total, "self_s": own}
                for (name, parent), (calls, total, own) in sorted(self.spans.items())]

    def cache_hit_ratio(self, name: str) -> float:
        info = self.cached[name].cache_info()
        lookups = info.hits + info.misses
        return info.hits / lookups if lookups else 0.0

    def distinct_ratio(self, name: str, calls: int) -> float:
        return len(self.distinct[name]) / calls if calls else 0.0


def _package_modules(package: str) -> list:
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == package or n.startswith(package + "."))]


def _is_function(obj) -> bool:
    return inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper)


def _short(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


def install(tracer: Tracer, package: str = "skeinrep") -> list:
    """Wrap the package's public functions and the traced methods; return
    the sorted list of wrapped span names."""
    modules = _package_modules(package)
    wrappers = {}
    for module in modules:
        for attr, obj in vars(module).items():
            if (attr.startswith("_") or not _is_function(obj)
                    or getattr(obj, "__module__", None) != module.__name__):
                continue
            name = f"{_short(module.__name__)}.{attr}"
            name = RENAMED.get(name, name)
            tracer.originals[id(obj)] = (name, obj)
            if isinstance(obj, functools._lru_cache_wrapper):
                tracer.cached[name] = obj
            wrappers[id(obj)] = tracer.wrap(name, obj)

    for module in modules:
        _rebind(vars(module), wrappers)

    names = {name for name, _ in tracer.originals.values()}
    scalar_cls = sys.modules[package + ".scalars"].Scalar
    for attr, op in _SCALAR_OPS.items():
        fn = vars(scalar_cls)[attr]
        rou, gen = f"scalars.rou.{op}", f"scalars.gen.{op}"
        tracer.originals[id(fn)] = (f"scalars.{op}", fn)
        namer = lambda args, rou=rou, gen=gen: rou if args[0]._vec is not None else gen  # noqa: E731
        setattr(scalar_cls, attr, tracer.wrap(f"scalars.{op}", fn, namer=namer))
        names.update({rou, gen})
    to_json = vars(scalar_cls)["to_json"]
    tracer.originals[id(to_json)] = ("scalars.to_json", to_json)
    scalar_cls.to_json = tracer.wrap("scalars.to_json", to_json)
    names.add("scalars.to_json")

    matrix_cls = sys.modules[package + ".matrices"].RingMatrix
    for attr, name in (("__mul__", "matrices.mul"), ("inverse", "matrices.inverse")):
        fn = vars(matrix_cls)[attr]
        tracer.originals[id(fn)] = (name, fn)
        setattr(matrix_cls, attr, tracer.wrap(name, fn))
        names.add(name)
    return sorted(names)


def _rebind(namespace: dict, wrappers: dict) -> None:
    """Replace originals by their wrappers in a module namespace and in the
    dicts, lists and tuples it holds (one level of tuples inside those)."""
    def swap(value):
        if id(value) in wrappers:
            return wrappers[id(value)]
        if type(value) is tuple and any(id(v) in wrappers for v in value):
            return tuple(wrappers.get(id(v), v) for v in value)
        return value

    for key, value in list(namespace.items()):
        if key.startswith("__"):
            continue
        new = swap(value)
        if new is not value:
            namespace[key] = new
        elif type(value) is dict:
            for k, v in list(value.items()):
                value[k] = swap(v)
        elif type(value) is list:
            value[:] = [swap(v) for v in value]


def unwrapped_references(tracer: Tracer, package: str = "skeinrep") -> list:
    """Places in the package that still reach an original function directly:
    module globals, their container values, class attributes, and the
    defaults and closure cells of every module-level function and method.
    Empty after a complete `install`."""
    originals = tracer.originals
    found = []

    def visit(value, where, depth=0):
        if id(value) in originals and originals[id(value)][1] is value:
            found.append(f"{where} -> {originals[id(value)][0]}")
            return
        if depth >= 2:
            return
        if type(value) is dict:
            for k, v in value.items():
                visit(v, f"{where}[{k!r}]", depth + 1)
        elif type(value) in (list, tuple, set, frozenset):
            for i, v in enumerate(value):
                visit(v, f"{where}[{i}]", depth + 1)

    def visit_function(fn, where):
        fn = inspect.unwrap(fn, stop=lambda f: getattr(f, "__layertrace_wrapped__", False))
        if not inspect.isfunction(fn):
            return
        for i, v in enumerate(fn.__defaults__ or ()):
            visit(v, f"{where} default {i}")
        for k, v in (fn.__kwdefaults__ or {}).items():
            visit(v, f"{where} default {k}")
        for i, cell in enumerate(fn.__closure__ or ()):
            try:
                visit(cell.cell_contents, f"{where} closure {i}")
            except ValueError:  # empty cell
                pass

    for module in _package_modules(package):
        for attr, value in vars(module).items():
            if attr.startswith("__"):
                continue
            where = f"{module.__name__}.{attr}"
            visit(value, where)
            if getattr(value, "__layertrace_wrapped__", False):
                continue
            if _is_function(value):
                visit_function(value, where)
            elif inspect.isclass(value) and value.__module__ == module.__name__:
                for cattr, cvalue in vars(value).items():
                    if getattr(cvalue, "__layertrace_wrapped__", False):
                        continue
                    visit(cvalue, f"{where}.{cattr}")
                    target = getattr(cvalue, "__func__", cvalue)
                    if _is_function(target):
                        visit_function(target, f"{where}.{cattr}")
    return found
