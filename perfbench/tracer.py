"""Outside-in tracer: spans around calls into dtslearn's public functions.

Every public function defined in one of the layer modules is replaced, in
each ``dtslearn`` namespace that binds it, by a wrapper that records a span
(name, start, end, parent). Calls are therefore seen whether they come from
the benchmark or from another module of the library, and the library source
is never touched. ``uninstall`` puts every original binding back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

LAYERS = ("core", "partitions", "coupling", "learner", "envs", "fileio", "acceptance")

# Work counts read off a traced call, as (metric suffix, reader of args and result).
WORK = {
    "learner.explore": ("nodes", lambda args, kwargs, out: out.node_count),
    "partitions.msr": ("states", lambda args, kwargs, out: out.n_states),
    "coupling.greatest_bisimulation": ("pairs", lambda args, kwargs, out: len(out)),
    "coupling.couple": ("pairs", lambda args, kwargs, out: len(out.pairs)),
    "fileio.parse_dts": ("bytes", lambda args, kwargs, out: len(args[0] if args else kwargs["text"])),
}


def public_functions() -> dict[int, tuple[str, object]]:
    """Public functions defined in each layer, keyed by id, as (span name, function)."""
    found = {}
    for layer in LAYERS:
        module = importlib.import_module(f"dtslearn.{layer}")
        for attr, obj in vars(module).items():
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and not attr.startswith("_")):
                found[id(obj)] = (f"{layer}.{attr}", obj)
    return found


class Tracer:
    """Spans kept in memory as parallel arrays; one open-span stack (one thread)."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work: dict[str, float] = defaultdict(float)
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _begin(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_of.append(name_id)
        self.parent.append(self._open[-1] if self._open else -1)
        self.end.append(0.0)
        self._open.append(idx)
        self.start.append(perf_counter())
        return idx

    def _finish(self, idx: int):
        self.end[idx] = perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        """A span of the benchmark's own, such as one task; library spans nest inside."""
        idx = self._begin(self._name_id(name))
        try:
            yield
        finally:
            self._finish(idx)

    def _wrap(self, name: str, fn):
        name_id = self._name_id(name)
        work = WORK.get(name)
        begin, finish = self._begin, self._finish
        totals = self.work

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = begin(name_id)
            try:
                out = fn(*args, **kwargs)
            finally:
                finish(idx)
            if work is not None:
                totals[f"{name}.{work[0]}"] += work[1](args, kwargs, out)
            return out

        return traced

    def install(self):
        """Bind a wrapper in place of each public function, in every dtslearn namespace."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in public_functions().items()}
        namespaces = [m for n, m in sys.modules.items()
                      if m is not None and (n == "dtslearn" or n.startswith("dtslearn."))]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    self._saved.append((ns, attr, obj))
                    setattr(ns, attr, wrappers[id(obj)])

    def uninstall(self):
        for ns, attr, obj in reversed(self._saved):
            setattr(ns, attr, obj)
        self._saved.clear()

    def table(self) -> dict[str, np.ndarray]:
        """Spans as arrays; ``self_s`` is each span minus the spans directly inside it."""
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.int64)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        inner = parent >= 0
        children = np.bincount(parent[inner], weights=dur[inner], minlength=len(dur))
        return {
            "name": np.frombuffer(self.name_of, dtype=np.int32).copy(),
            "parent": parent,
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "self_s": dur - children,
        }

    def totals(self) -> dict[str, float]:
        """Per span name: ``.calls``, ``.s`` (inclusive) and ``.self_s``, plus work counts."""
        t = self.table()
        k = len(self.names)
        calls = np.bincount(t["name"], minlength=k)
        incl = np.bincount(t["name"], weights=t["end"] - t["start"], minlength=k)
        own = np.bincount(t["name"], weights=t["self_s"], minlength=k)
        out = {f"{name}.{key}": 0.0 for name, (key, _) in WORK.items()}
        out.update(self.work)
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = float(calls[i])
            out[f"{name}.s"] = float(incl[i])
            out[f"{name}.self_s"] = float(own[i])
        return out

    def children_per_parent(self, parent_name: str, child_name: str) -> np.ndarray:
        """For each span named ``parent_name``, how many ``child_name`` spans it directly holds."""
        t = self.table()
        parents = np.flatnonzero(t["name"] == self._name_ids.get(parent_name, -1))
        kids = t["parent"][t["name"] == self._name_ids.get(child_name, -1)]
        return np.bincount(kids[kids >= 0], minlength=len(t["name"]))[parents]

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names), **self.table())
