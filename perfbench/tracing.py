"""Per-layer tracing from outside the package.

``Tracer.install`` wraps every public function, public method and
arithmetic dunder defined in the ten thetacalc modules, and rebinds each
name that other modules imported with ``from .x import y`` (cli, expr and
the package ``__init__`` do that), so every call through a public name is
a span.  ``uninstall`` restores the originals, so untraced passes run the
unmodified program.

A span's self time is its duration minus the time of the spans it called.
A layer's ``self_s`` is the sum of the self times of its spans.  A named
function's ``self_s`` is the time spent in its own layer while the
function is on the stack: its self time plus that of same-layer spans it
called, up to the first span of another layer.  So ``linalg.rref.self_s``
is elimination work without the field arithmetic it calls, and
``monodromy.theta_determinant.self_s`` includes the formal-solution
products of the expansion.  Spans are aggregated per request in memory.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import time

LAYERS = ("cli", "expr", "forms", "dependence", "transforms", "monodromy",
          "algebraic", "operators", "linalg", "exact")
DUNDERS = ("__init__", "__call__", "__add__", "__radd__", "__sub__", "__rsub__",
           "__mul__", "__rmul__", "__truediv__", "__rtruediv__", "__neg__",
           "__pow__", "__floordiv__", "__mod__")


class Tracer:
    def __init__(self, package: str, focus):
        self.package = package
        self.focus = frozenset(focus)
        self.stack = []                  # frames [child_time, layer, chain]
        self.stats = {}                  # span name -> [calls, total_s, self_s]
        self.layer_self = dict.fromkeys(LAYERS, 0.0)
        self.focus_self = dict.fromkeys(self.focus, 0.0)
        self._patches = []               # (owner, attribute, original)

    # -- spans --------------------------------------------------------------
    def _wrap(self, name: str, layer: str, fn):
        stack, layer_self, focus_self = self.stack, self.layer_self, self.focus_self
        rec = self.stats.setdefault(name, [0, 0.0, 0.0])
        focused = name in self.focus
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            chain = stack[-1][2] if stack and stack[-1][1] == layer else ()
            if focused and name not in chain:
                chain = chain + (name,)
            frame = [0.0, layer, chain]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                own = dt - frame[0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += own
                layer_self[layer] += own
                for key in chain:
                    focus_self[key] += own
        return span

    def take(self) -> dict:
        """Aggregates since the last take (one request), then reset."""
        out = {"spans": {k: tuple(v) for k, v in self.stats.items() if v[0]},
               "layers": dict(self.layer_self), "focus": dict(self.focus_self)}
        for rec in self.stats.values():
            rec[:] = [0, 0.0, 0.0]
        for d in (self.layer_self, self.focus_self):
            for k in d:
                d[k] = 0.0
        return out

    # -- patching --------------------------------------------------------------
    def install(self):
        modules = {layer: importlib.import_module("%s.%s" % (self.package, layer))
                   for layer in LAYERS}
        wrapped = {}                     # id(original function) -> wrapper
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = self._wrap("%s.%s" % (layer, attr), layer, obj)
                    self._set(mod, attr, wrapped[id(obj)])
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj)
        # rebind names other modules imported directly
        for mod in list(modules.values()) + [importlib.import_module(self.package)]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrapped:
                    self._set(mod, attr, wrapped[id(obj)])

    def _wrap_class(self, layer, cls):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr not in DUNDERS:
                continue
            name = "%s.%s.%s" % (layer, cls.__name__, attr)
            if inspect.isfunction(obj):
                self._set(cls, attr, self._wrap(name, layer, obj))
            elif isinstance(obj, (classmethod, staticmethod)):
                self._set(cls, attr, type(obj)(self._wrap(name, layer, obj.__func__)))

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
