"""In-memory spans around the public functions of the expprod layers.

The benchmark patches every public function of each layer module at every
module that holds it by name (``orders.product_log`` as well as
``ncalg.product_log``), so no program file changes.  A span is
(name, start, end, parent); the benchmark's own task spans are the roots.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("poly", "ncalg", "schemes", "orders", "propagate", "qmc", "cli")

# Class members that the per-layer metrics name; everything else traced is a
# public module-level function.
MEMBERS = (("poly", "RationalPoly", "evaluate"), ("propagate", "HermitianPart", "__init__"))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        # name -> callback(result), for counters read off return values
        self.observers: dict[str, object] = {}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.start.append(perf_counter())
        self.end.append(0.0)
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    def root(self, name: str):
        """Context manager for a task span (a root of the span forest)."""
        tracer = self

        class _Root:
            def __enter__(self):
                self.idx = tracer._open(tracer._id(name))

            def __exit__(self, *exc):
                tracer._close(self.idx)

        return _Root()

    def wrap(self, name: str, fn):
        nid = self._id(name)
        observe = self.observers.get(name)
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            idx = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if observe is not None:
                observe(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self, package: str = "expprod") -> list[tuple[object, str, object]]:
        """Patch the layers in place; returns what ``uninstall`` restores."""
        wrapped: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            mod = sys.modules[f"{package}.{layer}"]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                wrapped[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
        patched = []
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == package or modname.startswith(package + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    patched.append((mod, attr, obj))
        for layer, cls_name, attr in MEMBERS:
            cls = getattr(sys.modules[f"{package}.{layer}"], cls_name)
            fn = cls.__dict__[attr]
            label = cls_name if attr == "__init__" else attr
            setattr(cls, attr, self.wrap(f"{layer}.{label}", fn))
            patched.append((cls, attr, fn))
        return patched

    @staticmethod
    def uninstall(patched) -> None:
        for owner, attr, obj in reversed(patched):
            setattr(owner, attr, obj)


class SpanTable:
    """Vectorised view of the recorded spans: durations, self times, roots."""

    def __init__(self, tracer: Tracer):
        self.names = list(tracer.names)
        self.name = np.frombuffer(tracer.name, dtype=np.int_).copy()
        self.parent = np.frombuffer(tracer.parent, dtype=np.int_).copy()
        start = np.frombuffer(tracer.start, dtype=float)
        end = np.frombuffer(tracer.end, dtype=float)
        self.dur = end - start
        n = self.name.size
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=self.dur[has_parent], minlength=n)
        self.self_time = self.dur - child[:n]
        # root of each span by pointer jumping (parents precede children)
        up = np.where(has_parent, self.parent, np.arange(n))
        while True:
            nxt = up[up]
            if np.array_equal(nxt, up):
                break
            up = nxt
        self.root = up
        layer_of = np.array([nm.split(".", 1)[0] for nm in self.names] or [""], dtype=object)
        self.layer = layer_of[self.name] if n else np.array([], dtype=object)
        parent_layer = np.where(has_parent, self.layer[np.maximum(self.parent, 0)], "")
        # a span adds to its layer's inclusive time only at the layer boundary
        self.boundary = self.layer != parent_layer
        parent_name = np.where(has_parent, self.name[np.maximum(self.parent, 0)], -1)
        self.outermost = self.name != parent_name

    def select(self, name: str | None = None, layer: str | None = None, roots=None):
        mask = np.ones(self.name.size, dtype=bool)
        if name is not None:
            mask &= self.name == (self.names.index(name) if name in self.names else -2)
        if layer is not None:
            mask &= self.layer == layer
        if roots is not None:
            mask &= np.isin(self.root, np.asarray(sorted(roots), dtype=np.int_))
        return mask

    def calls(self, mask) -> int:
        return int(mask.sum())

    def inclusive(self, mask, by_layer: bool = False) -> float:
        edge = self.boundary if by_layer else self.outermost
        return float(self.dur[mask & edge].sum())

    def self_s(self, mask) -> float:
        return float(self.self_time[mask].sum())

    def task_roots(self, prefix: str = "task.") -> dict[str, list[int]]:
        """Task name -> indices of its root spans."""
        out: dict[str, list[int]] = {}
        for idx in np.flatnonzero(self.parent < 0):
            nm = self.names[self.name[idx]]
            if nm.startswith(prefix):
                out.setdefault(nm[len(prefix):], []).append(int(idx))
        return out
