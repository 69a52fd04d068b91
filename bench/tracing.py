"""Call tracing of gascert from the outside.

Every public function of the package modules is replaced, at every name
it is bound to (``riccati.distance_to_instability`` and
``cli.hinf_gain`` are imported by name, for instance), by a wrapper that
records a span.  Spans are aggregated into a call tree keyed by the
chain of span names, with call counts, total time and self time (span
minus its children).  Individual spans are kept only near the root of
each operation, where there are few of them.  Everything stays in memory
until ``dump``.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import time

import numpy as np

LAYERS = ("numerics", "model", "riccati", "connective", "control", "sim",
          "config", "cli")

# Methods that carry their own cost but are not module-level functions.
METHODS = {
    "model": {"NetworkModel": ("__init__", "in_edges", "out_edges",
                               "neighbor_count"),
              "Interconnection": ("gain",)},
}

# Individual span records stop at this depth (the operation is depth 0);
# deeper calls are only aggregated.
SPAN_DEPTH = 2


class _Node:
    __slots__ = ("name", "children", "calls", "total", "self_s")

    def __init__(self, name):
        self.name = name
        self.children = {}
        self.calls = 0
        self.total = 0.0
        self.self_s = 0.0

    def child(self, name):
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = _Node(name)
        return node

    def to_json(self):
        return {"name": self.name, "calls": self.calls, "s": self.total,
                "self_s": self.self_s,
                "children": [c.to_json() for c in self.children.values()]}


class Tracer:
    """Span recorder.  ``install`` wraps gascert; ``enabled`` gates recording."""

    def __init__(self):
        self.root = _Node("root")
        self.stack = [[self.root, 0.0]]
        self.enabled = False
        self.counters = {}
        self.spans = []
        self.op_id = 0
        self._restore = []

    # -- recording ---------------------------------------------------------

    def _enter(self, name):
        frame = [self.stack[-1][0].child(name), 0.0]
        self.stack.append(frame)
        return frame

    def _leave(self, frame, start, end):
        self.stack.pop()
        node = frame[0]
        dur = end - start
        node.calls += 1
        node.total += dur
        node.self_s += dur - frame[1]
        self.stack[-1][1] += dur
        depth = len(self.stack) - 1
        # control laws run per subsystem per RK4 stage: aggregate them only
        if depth <= SPAN_DEPTH and not node.name.startswith("control."):
            parent = self.stack[-1][0].name
            self.spans.append((self.op_id, node.name, parent, start, end))

    def count(self, key, value=1):
        """Add to a counter, in total and under the current operation."""
        op = self.stack[1][0].name if len(self.stack) > 1 else "none"
        for k in (key, f"{key}@{op}"):
            self.counters[k] = self.counters.get(k, 0) + value

    @contextlib.contextmanager
    def op(self, name):
        """One benchmark operation: the root span of everything it calls."""
        if not self.enabled:
            yield
            return
        self.op_id += 1
        frame = self._enter(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._leave(frame, start, time.perf_counter())

    # -- installation ------------------------------------------------------

    def _wrap(self, name, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            frame = tracer._enter(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._leave(frame, start, time.perf_counter())
            if hook is not None:
                # keep the hook's own cost out of the caller's self time
                h0 = time.perf_counter()
                hook(tracer, args, kwargs, result)
                tracer.stack[-1][1] += time.perf_counter() - h0
            return result

        return wrapper

    def install(self, package):
        """Wrap the public functions of every layer at every bound name."""
        import importlib

        modules = {layer: importlib.import_module(f"{package}.{layer}")
                   for layer in LAYERS}
        namespaces = [importlib.import_module(package), *modules.values()]
        for layer, mod in modules.items():
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapper = self._wrap(name, fn, HOOKS.get(name))
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            self._restore.append((ns, key, fn))
                            setattr(ns, key, wrapper)
            if layer == "cli":   # no __all__: its entry points are main and cmd_*
                for attr, fn in list(vars(mod).items()):
                    if inspect.isfunction(fn) and (attr.startswith("cmd_") or attr == "main"):
                        self._restore.append((mod, attr, fn))
                        setattr(mod, attr, self._wrap(f"cli.{attr}", fn))
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    fn = cls.__dict__[meth]
                    self._restore.append((cls, meth, fn))
                    setattr(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}", fn))

    def uninstall(self):
        for ns, key, fn in reversed(self._restore):
            setattr(ns, key, fn)
        self._restore.clear()

    # -- reading -----------------------------------------------------------

    def nodes(self):
        out = []
        todo = [(self.root, ())]
        while todo:
            node, path = todo.pop()
            out.append((node, path))
            todo.extend((c, path + (node.name,)) for c in node.children.values())
        return out[1:]

    def by_name(self):
        """``name -> (calls, total_s, self_s)`` summed over the call tree."""
        agg = {}
        for node, _ in self.nodes():
            calls, total, self_s = agg.get(node.name, (0, 0.0, 0.0))
            agg[node.name] = (calls + node.calls, total + node.total,
                              self_s + node.self_s)
        return agg

    def under(self, name, ancestor):
        """``(calls, total_s)`` of spans ``name`` below a span ``ancestor``."""
        calls, total = 0, 0.0
        for node, path in self.nodes():
            if node.name == name and ancestor in path:
                calls += node.calls
                total += node.total
        return calls, total

    def dump(self):
        return {"tree": self.root.to_json(),
                "counters": self.counters,
                "spans": [{"op": op, "name": n, "parent": p, "start": s, "end": e}
                          for op, n, p, s, e in self.spans]}


# -- hooks: counts measured where the work happens ---------------------------

def _project(tracer, args, kwargs, result):
    y = args[1] if len(args) > 1 else kwargs["y"]
    tracer.count("control.project.active",
                  int(not np.array_equal(result, np.asarray(y, dtype=float).reshape(-1))))


def _dump_report(tracer, args, kwargs, result):
    tracer.count("config.dump_report.bytes", len(result))


def _export_csv(tracer, args, kwargs, result):
    stream = args[1] if len(args) > 1 else kwargs["stream"]
    if isinstance(stream, (str, os.PathLike)):
        tracer.count("sim.export_csv.bytes", os.path.getsize(stream))


def _simulate(tracer, args, kwargs, result):
    steps = max(result.t.size - 1, 0)
    tracer.count("sim.simulate.steps", steps)
    tracer.count("sim.simulate.subsys_steps", steps * len(result.ids))


def _certify(tracer, args, kwargs, result):
    tracer.count("riccati.certify.not_ok", len(result.failing))


HOOKS = {
    "control.project": _project,
    "config.dump_report": _dump_report,
    "sim.export_csv": _export_csv,
    "sim.simulate": _simulate,
    "riccati.certify": _certify,
}
