"""Spans at the package's layer boundaries, installed from outside.

The tracer replaces module attributes (for example `oracle.canonical_form`)
with timing wrappers in every loaded module of the package that holds the
same function object, so calls made inside a module and calls made through
another module's `from .x import f` binding are both seen.  Nothing in the
package is edited.  A boundary whose attribute no longer exists is listed
in `absent` and skipped; so is a boundary whose result the hook can no
longer read, from its first failure on.

Each span is [name, start, end, parent index]; spans stay in memory and are
written out by the caller after the run.  Generator functions get no span:
their hook sees every yielded item instead.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from typing import Callable

Hook = Callable[[dict, object], None]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def install(self, package: str, points: dict[str, Hook | None]) -> None:
        """Wrap `package.<module>.<attr>` for every "<module>.<attr>" key of
        points; the value, if any, is called with (counts, result)."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == package or name.startswith(package + "."))]
        for name, hook in points.items():
            mod_name, _, attr = name.rpartition(".")
            mod = sys.modules.get(f"{package}.{mod_name}")
            fn = getattr(mod, attr, None)
            if not callable(fn):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, fn, hook)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, key, wrapper)
                        self._undo.append((m, key, fn))

    def uninstall(self) -> None:
        for m, key, fn in reversed(self._undo):
            setattr(m, key, fn)
        self._undo.clear()

    def _wrap(self, name: str, fn, hook: Hook | None):
        counts = self.counts
        if hook is not None:
            hook = self._guard(name, hook)
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                for item in fn(*args, **kwargs):
                    if hook is not None:
                        hook(counts, item)
                    yield item
            return gen_wrapper

        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, result)
            return result
        return wrapper

    def _guard(self, name: str, hook: Hook) -> Hook:
        failed = False

        def guarded(counts, result):
            nonlocal failed
            if failed:
                return
            try:
                hook(counts, result)
            except Exception as exc:  # a changed result shape must not stop the run
                failed = True
                self.absent.append(f"{name} (hook: {type(exc).__name__})")
        return guarded

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, and self seconds (duration
        minus the time covered by its direct child spans)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["s"] += end - start
            agg["self_s"] += end - start - child[i]
        return out
