"""Span tracer that wraps the public functions of the specpair modules.

The tracer works from outside the package: it rebinds every name in every
``specpair.*`` namespace that refers to a wrapped function (so ``cli.refine``
and ``traces.eigenvalues_below_multi`` are traced as well as the definitions
themselves) and puts the originals back afterwards.  Spans stay in memory as
``(name, start, end, parent index, run id)`` tuples.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from collections import defaultdict

PACKAGE = "specpair"
MODULES = ("potential", "eigensolve", "pruefer", "weber", "hadamard", "traces", "cli")


def public_functions() -> list[tuple[str, object]]:
    """``("module.name", function)`` for each public function a traced module defines."""
    out = []
    for short in MODULES:
        mod = sys.modules[f"{PACKAGE}.{short}"]
        for name, obj in vars(mod).items():
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                out.append((f"{short}.{name}", obj))
    return out


def _package_namespaces():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


class Tracer:
    """Records one span per call of each wrapped function.

    ``counters`` maps a span name to a function of the call's return value
    that yields ``(counter name, increment)`` pairs.
    """

    def __init__(self, run_id: str | int = 0, counters: dict | None = None):
        self.run_id = run_id
        self.counters = counters or {}
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object]] = []
        self._restored: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the caller, e.g. around one experiment."""
        idx = self._open()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, name, t0)

    def _open(self) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, name: str, t0: float):
        t1 = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[idx] = (name, t0, t1, parent, self.run_id)

    def _wrap(self, name: str, fn):
        counter = self.counters.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, name, t0)
            if counter is not None:
                for key, n in counter(result):
                    self.counts[key] += n
            return result

        traced.__tracer__ = self
        return traced

    def install(self):
        """Rebind every reference to a public function inside the package."""
        if self._bindings:
            raise RuntimeError("tracer already installed")
        wrappers = {id(fn): (fn, self._wrap(name, fn)) for name, fn in public_functions()}
        for mod in _package_namespaces():
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._bindings.append((mod, attr, val))
                    setattr(mod, attr, hit[1])

    def restore(self):
        for mod, attr, orig in reversed(self._bindings):
            setattr(mod, attr, orig)
        self._restored, self._bindings = self._bindings, []

    def leftovers(self) -> list[str]:
        """Restored bindings not back to their original, or wrappers still reachable."""
        bad = [f"{mod.__name__}.{attr}" for mod, attr, orig in self._restored
               if getattr(mod, attr) is not orig]
        for mod in _package_namespaces():
            bad += [f"{mod.__name__}.{attr}" for attr, val in vars(mod).items()
                    if getattr(val, "__tracer__", None) is not None]
        return sorted(set(bad))

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children.
        """
        child = [0.0] * len(self.spans)
        for _, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, dict] = {}
        for (name, t0, t1, _, _), c in zip(self.spans, child):
            s = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            s["calls"] += 1
            s["total_s"] += t1 - t0
            s["self_s"] += (t1 - t0) - c
        return out
