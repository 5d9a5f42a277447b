"""Span tracer that times calls into adae from outside the package.

``Tracer.install()`` wraps every public function of the adae modules (and the
public methods and constructors of their public classes), plus the
``scipy.linalg`` / ``numpy.linalg`` entry points adae calls.  Modules import
each other with ``from .numerics import ...``, so a function is rebound in
every ``adae.*`` namespace that holds it; ``uninstall()`` restores every
binding.  Spans are recorded only between ``begin(cmd_id)`` and ``end()``,
so the benchmark's own numpy use is not traced.

A span is (name, start, end, parent, command id), kept in parallel arrays in
memory and written out by ``dump()`` when the run ends.  Self time is a
span's duration minus the durations of its children.  Linear-algebra calls
made from inside another linear-algebra call are not spans: their time is
part of the outer call.

Counters are read from arguments, return values and exceptions at the same
boundaries; ``summary()`` turns spans and counters into per-layer metrics.
"""

import collections
import functools
import gzip
import importlib
import inspect
import json
import sys
import time
from array import array

LAYERS = ("numerics", "pencil", "chains", "growth", "semigroup", "forcing",
          "solver", "models", "io", "cli")

# entry points adae calls, and the kernel family each one counts towards
LINALG = {
    "scipy.linalg": {"svd": "svd", "svdvals": "svd", "inv": "inv",
                     "lu_factor": "lu", "lu_solve": "lu_solve", "expm": "expm",
                     "ordqz": "qz", "qz": "qz", "eigvalsh": "eigh", "eigh": "eigh",
                     "solve": "solve", "solve_triangular": "solve_triangular"},
    "numpy.linalg": {"norm": "norm", "pinv": "pinv", "inv": "inv",
                     "svd": "svd", "solve": "solve", "eigvalsh": "eigh"},
}

RESOLVENTS = ("pencil.resolvent_at", "pencil.pseudo_resolvent",
              "pencil.left_resolvent", "pencil.right_resolvent")
GROWTH_SWEEPS = ("growth.estimate_G_index", "growth.estimate_R_index",
                 "growth.check_Dk")

_MARK = "__perfbench_traced__"


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.start = array("d")
        self.stop = array("d")
        self.parent = array("i")
        self.command = array("i")
        self.cmd = None
        self.counters = collections.Counter()
        self._stack = []
        self._linalg_depth = 0
        self._resolvent_depth = 0
        self._saved = []
        self._default_grid_points = None

    # -- recording ---------------------------------------------------------

    def begin(self, cmd_id):
        self.cmd = cmd_id

    def end(self):
        self.cmd = None

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, name, kind=None, observe=None):
        nid = self._name_id(name)
        tracer = self
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.cmd is None or (kind == "linalg" and tracer._linalg_depth):
                return fn(*args, **kwargs)
            idx = len(tracer.start)
            tracer.name.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.command.append(tracer.cmd)
            tracer.stop.append(0.0)
            stack.append(idx)
            if kind == "linalg":
                tracer._linalg_depth += 1
            elif kind == "resolvent":
                tracer._resolvent_depth += 1
            result = exc = None
            tracer.start.append(clock())
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                tracer.stop[idx] = clock()
                stack.pop()
                if kind == "linalg":
                    tracer._linalg_depth -= 1
                elif kind == "resolvent":
                    tracer._resolvent_depth -= 1
                if observe is not None:
                    observe(args, kwargs, result, exc)

        setattr(traced, _MARK, True)
        return traced

    # -- installation ------------------------------------------------------

    def install(self):
        for layer in LAYERS:
            importlib.import_module(f"adae.{layer}")
        modules = [m for k, m in sorted(sys.modules.items())
                   if (k == "adae" or k.startswith("adae.")) and m is not None]
        replace = {}  # id(original function) -> wrapper
        for layer in LAYERS:
            mod = sys.modules[f"adae.{layer}"]
            for attr, obj in _public(mod):
                if inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    kind = "resolvent" if name in RESOLVENTS else None
                    replace[id(obj)] = (obj, self._wrap(
                        obj, name, kind, self._observer(name, obj)))
                elif inspect.isclass(obj):
                    self._install_class(layer, obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replace and replace[id(obj)][0] is obj:
                    self._rebind(mod, attr, replace[id(obj)][1])
        for modname, entries in LINALG.items():
            mod = importlib.import_module(modname)
            for attr, family in entries.items():
                fn = getattr(mod, attr, None)
                if fn is None:
                    continue
                name = f"lapack.{attr}" if modname == "scipy.linalg" else f"lapack.np.{attr}"
                self._rebind(mod, attr, self._wrap(
                    fn, name, "linalg", self._linalg_observer(family)))

    def _install_class(self, layer, cls):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                fn = raw.__func__
            elif inspect.isfunction(raw):
                fn = raw
            else:
                continue
            name = f"{layer}.{cls.__name__}" + ("" if attr == "__init__" else f".{attr}")
            wrapped = self._wrap(fn, name)
            if isinstance(raw, classmethod):
                wrapped = classmethod(wrapped)
            elif isinstance(raw, staticmethod):
                wrapped = staticmethod(wrapped)
            self._rebind(cls, attr, wrapped, raw)

    def _rebind(self, owner, attr, wrapper, original=None):
        if original is None:
            original = vars(owner)[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def saved_bindings(self):
        return list(self._saved)

    # -- counters ----------------------------------------------------------

    def _observer(self, name, fn):
        c = self.counters
        if name == "chains.build_chain":
            def observe(args, kwargs, result, exc):
                if result is not None:
                    built = len(result.V)
                    k = result.stabilization_k
                    c["chain.levels_built"] += built
                    c["chain.levels_useful"] += built if k is None else min(k + 2, built)
            return observe
        if name in GROWTH_SWEEPS:
            sig = inspect.signature(fn)

            def observe(args, kwargs, result, exc):
                if result is None or result.detail == "restriction subspace is trivial":
                    return
                grid = sig.bind(*args, **kwargs).arguments.get("grid")
                c["growth.grid_points"] += (self._default_points() if grid is None
                                            else len(grid.points))
                c["growth.grid_kept"] += len(result.evidence)
            return observe
        if name in RESOLVENTS:
            from adae.exceptions import NotInResolventSet

            def observe(args, kwargs, result, exc):
                if self._resolvent_depth == 0:  # outermost resolvent call only
                    c["resolvent.calls"] += 1
                    if isinstance(exc, NotInResolventSet):
                        c["resolvent.rejected"] += 1
            return observe
        if name == "solver.implicit_euler_reference":
            sig = inspect.signature(fn)

            def observe(args, kwargs, result, exc):
                if result is None:
                    return
                import numpy as np
                asked = np.asarray(sig.bind(*args, **kwargs).arguments["t_grid"], float)
                c["euler.calls"] += 1
                c["euler.grid_stretched"] += int(not np.array_equal(asked, result.times))
            return observe
        if name == "io.atomic_write_text":
            def observe(args, kwargs, result, exc):
                if exc is None:
                    text = args[1] if len(args) > 1 else kwargs["text"]
                    c["io.bytes_written"] += len(text.encode())
            return observe
        return None

    def _linalg_observer(self, family):
        c = self.counters

        def observe(args, kwargs, result, exc):
            a = args[0] if args else None
            shape = getattr(a, "shape", ())
            if family == "norm":
                ord_ = args[1] if len(args) > 1 else kwargs.get("ord")
                if ord_ == 2 and len(shape) == 2:
                    c["lapack.norm2.calls"] += 1
                    c["lapack.norm2.n3"] += _n3(shape)
                return
            c[f"lapack.{family}.calls"] += 1
            if family in ("svd", "inv") and len(shape) == 2:
                c[f"lapack.{family}.n3"] += _n3(shape)
        return observe

    def _default_points(self):
        if self._default_grid_points is None:
            from adae.growth import LambdaGrid
            saved, self.cmd = self.cmd, None
            try:
                self._default_grid_points = len(LambdaGrid.default().points)
            finally:
                self.cmd = saved
        return self._default_grid_points

    # -- results -----------------------------------------------------------

    def self_times(self):
        """Self time of every span: its duration minus its children's."""
        dur = [b - a for a, b in zip(self.start, self.stop)]
        child = [0.0] * len(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        return dur, [d - c for d, c in zip(dur, child)]

    def summary(self):
        """Per-name and per-layer call counts and self times, plus counters."""
        dur, self_t = self.self_times()
        calls = collections.Counter()
        self_s = collections.Counter()
        for nid, s in zip(self.name, self_t):
            calls[self.names[nid]] += 1
            self_s[self.names[nid]] += s
        layer_calls = collections.Counter()
        layer_self = collections.Counter()
        for name, n in calls.items():
            layer = name.split(".", 1)[0]
            layer_calls[layer] += n
            layer_self[layer] += self_s[name]
        roots = sum(d for d, p in zip(dur, self.parent) if p < 0)
        return {"calls": dict(calls), "self_s": dict(self_s),
                "layer_calls": dict(layer_calls), "layer_self_s": dict(layer_self),
                "counters": dict(self.counters), "root_s": roots,
                "self_sum_s": sum(self_t), "spans": len(dur)}

    def dump(self, path, commands):
        doc = {"names": self.names, "commands": commands,
               "name": list(self.name), "start": list(self.start),
               "end": list(self.stop), "parent": list(self.parent),
               "command": list(self.command)}
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)


def _public(mod):
    names = getattr(mod, "__all__", None)
    if names is None:
        names = [n for n in vars(mod) if not n.startswith("_")]
    for attr in names:
        obj = getattr(mod, attr, None)
        if getattr(obj, "__module__", None) == mod.__name__:
            yield attr, obj


def _n3(shape):
    m, n = shape
    return m * n * min(m, n)


def is_traced(obj):
    return getattr(obj, _MARK, False) or getattr(getattr(obj, "__func__", None), _MARK, False)
