"""Spans at the module boundaries of cayleydense, recorded from outside the package.

Every public function defined in a layer module, plus the two cache methods,
is replaced by a wrapper wherever the package binds it (its own module,
modules that imported it by name, the package namespace). Nothing under
src/ is edited. Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import inspect
import os
import sys
from collections import Counter
from functools import wraps
from time import perf_counter

LAYERS = ("abelian", "zmatrix", "cayley", "mdd", "density", "kappa_search", "cli")
METHODS = (("kappa_search", "KappaCache", "get"), ("kappa_search", "KappaCache", "put"))
# Spans whose non-None results are counted, for the useful-outcome ratios.
COUNT_RESULTS = frozenset(("cayley.bfs_distances", "kappa_search.KappaCache.get"))


class Tracer:
    def __init__(self):
        # (pass index, span name, start, end, index of the parent span or -1)
        self.spans: list[tuple | None] = []
        self.nonnull: Counter = Counter()
        self.wrapped: set[str] = set()
        self.pass_index = 0
        self._stack: list[int] = []
        self._pid = os.getpid()

    def install(self) -> None:
        package = [
            m for name, m in sys.modules.items()
            if name == "cayleydense" or name.startswith("cayleydense.")
        ]
        for layer in LAYERS:
            mod = sys.modules.get(f"cayleydense.{layer}")
            if mod is None:
                continue
            for name, fn in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{name}", fn)
                for m in package:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, attr, wrapper)
        for layer, cls_name, meth in METHODS:
            cls = getattr(sys.modules.get(f"cayleydense.{layer}"), cls_name, None)
            fn = getattr(cls, meth, None)
            if inspect.isfunction(fn):
                setattr(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}", fn))

    def _wrap(self, name: str, fn):
        spans, stack, nonnull = self.spans, self._stack, self.nonnull
        count_result = name in COUNT_RESULTS
        pid = self._pid
        self.wrapped.add(name)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != pid:  # a forked pool worker: its spans cannot reach us
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (self.pass_index, name, start, end, parent)
            if count_result and result is not None:
                nonnull[(self.pass_index, name)] += 1
            return result

        return wrapper

    def summary(self, first: int, last: int) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds over spans[first:last].

        Inclusive seconds count only the outermost span of a name, so a
        function reached through itself is not counted twice.
        """
        spans = self.spans
        child_time: dict[int, float] = {}
        for i in range(first, last):
            _, _, start, end, parent = spans[i]
            if parent >= first:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        out: dict[str, dict[str, float]] = {}
        for i in range(first, last):
            pass_index, name, start, end, parent = spans[i]
            entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "nonnull": 0})
            dur = end - start
            entry["calls"] += 1
            entry["self_s"] += dur - child_time.get(i, 0.0)
            p = parent
            while p >= first and spans[p][1] != name:
                p = spans[p][4]
            if p < first:
                entry["s"] += dur
            entry["nonnull"] = self.nonnull[(pass_index, name)]
        return out
