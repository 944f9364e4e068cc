"""Layer tracing from outside the library.

`LayerTracer.install()` replaces the public functions and public methods of
the package modules with timing wrappers. A wrapped function is replaced in
every module namespace that holds it, so names imported into another module
(`causal.canonicalize`, `cli.build_scene`, ...) are traced too, and
`Event.__init__` is wrapped so that `Event` validation shows as its own span.
Nothing under `src/` is modified; `uninstall()` restores the originals.

Each span records its name, start and end (ns), the span that caused it and
the benchmark op it belongs to. Spans are appended to flat arrays in memory
and written out once, by `save()`. Self time is derived from the spans: a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import inspect
import time
from array import array
from enum import Enum

import numpy as np

LAYERS = ("minkowski", "manifold", "causal", "quotient", "figures", "cli")
PACKAGE = "desitter_horizons"


class LayerTracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("q")
        self.end = array("q")
        self.raised = array("b")
        self._stack = [-1]
        self._op = -1
        self._patches: list[tuple[object, str, object]] = []

    # -- span recording -------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str):
        sid = self._id(name)
        ns = time.perf_counter_ns
        stack = self._stack
        name_id, parent, op = self.name_id, self.parent, self.op
        start, end, raised = self.start, self.end, self.raised
        tracer = self

        def traced(*args, **kwargs):
            i = len(name_id)
            name_id.append(sid)
            parent.append(stack[-1])
            op.append(tracer._op)
            raised.append(0)
            end.append(0)
            stack.append(i)
            start.append(ns())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised[i] = 1
                raise
            finally:
                end[i] = ns()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def root(self, name: str, fn):
        """Wrap fn so that each call is a root span of the op given as its
        first argument."""
        traced = self.wrap(fn, name)

        def run(op_index: int, *args):
            self._op = op_index
            try:
                return traced(*args)
            finally:
                self._op = -1

        return run

    # -- installing wrappers ---------------------------------------------

    def install(self, modules: dict) -> None:
        """Wrap the public callables of `modules` ({short name: module}).

        `modules` also holds the package itself under the key PACKAGE, so
        re-exported names are replaced there as well.
        """
        replace: dict[int, object] = {}
        for short in LAYERS:
            mod = modules[short]
            for attr, obj in vars(mod).items():
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    replace[id(obj)] = self.wrap(obj, f"{short}.{attr}")
                elif (
                    inspect.isclass(obj)
                    and obj.__module__ == mod.__name__
                    and not issubclass(obj, Enum)
                ):
                    self._wrap_methods(short, obj)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replace:
                    self._patch(mod, attr, replace[id(obj)])

    def _wrap_methods(self, short: str, cls) -> None:
        for attr, obj in list(vars(cls).items()):
            public = not attr.startswith("_") or (
                attr == "__init__" and cls.__name__ == "Event"
            )
            if public and inspect.isfunction(obj):
                self._patch(cls, attr, self.wrap(obj, f"{short}.{cls.__name__}.{attr}"))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------

    def spans(self) -> dict:
        """Span table as numpy arrays, with durations and self times (ns)."""
        name_id = np.frombuffer(self.name_id, dtype=np.int32).copy()
        parent = np.frombuffer(self.parent, dtype=np.int64).copy()
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(
            self.start, dtype=np.int64
        )
        has_parent = parent >= 0
        child_ns = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=dur.size
        )
        module = np.array(
            [name.split(".", 1)[0] for name in self.names] or ["_"], dtype=object
        )
        return {
            "name_id": name_id,
            "parent": parent,
            "op": np.frombuffer(self.op, dtype=np.int64).copy(),
            "raised": np.frombuffer(self.raised, dtype=np.int8).astype(bool),
            "dur_ns": dur,
            "self_ns": dur - child_ns,
            "module": module[name_id] if dur.size else np.array([], dtype=object),
        }

    def id_of(self, name: str) -> int:
        return self._ids.get(name, -1)

    def save(self, path) -> None:
        """Write the span table once, at the end of a traced run."""
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            op=np.frombuffer(self.op, dtype=np.int64),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            raised=np.frombuffer(self.raised, dtype=np.int8),
        )
