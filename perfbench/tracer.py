"""Spans and counters around the public functions of a package's modules.

The tracer patches functions from outside the package: each public function
is replaced, in every module namespace that holds it, by a wrapper that
records a span (name, start, end, busy time, parent span, job id, error).
Three wrapper kinds exist:

* ``span``: one span per call; busy time is end - start.
* ``generator``: one span per generator, whose busy time accumulates only
  while the generator runs inside ``next()``, so work done lazily is timed
  over consumption, not at creation.
* ``count``: no span, only a call count.  Used for scalar helpers called
  hundreds of thousands of times per job, where a span would cost more than
  the call; their time lands in the caller's self time.

A layer's self time is the busy time of its spans minus the busy time of
their direct child spans.  Calls are synchronous and single-threaded, so
child spans never overlap and the time they cover is the sum of their busy
times.
"""

from __future__ import annotations

import inspect
import sys
import time
import types
from collections import Counter
from typing import Callable, Iterable

# Span record fields, stored as lists to keep the per-call cost low.
NAME, START, END, BUSY, PARENT, JOB, ERROR = range(7)

Probe = Callable[[tuple, dict, object], dict]


class Tracer:
    """Install with `patch_package` or `wrap`; undo with `restore`."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.job: str | None = None
        self.probe_errors = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str, start: float) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, start, start, 0.0, parent, self.job, None])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _probe(self, probe: Probe | None, args: tuple, kwargs: dict, result) -> None:
        if probe is None:
            return
        try:
            self.counts.update(probe(args, kwargs, result))
        except Exception as exc:  # a probe must never fail the traced program
            self.probe_errors += 1
            print(f"perfbench: probe failed: {exc!r}", file=sys.stderr)

    def wrap(self, name: str, fn: Callable, kind: str = "span",
             probe: Probe | None = None) -> Callable:
        """Wrapper recording `fn` under `name` ("layer.function")."""
        if kind == "count":
            counts = self.counts

            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return counted

        if kind == "generator":
            def generator(*args, **kwargs):
                self.counts[name] += 1
                idx = self._open(name, self.clock())
                self._stack.pop()
                span = self.spans[idx]
                inner = fn(*args, **kwargs)
                produced = 0
                try:
                    while True:
                        self._stack.append(idx)
                        t0 = self.clock()
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        except BaseException as exc:
                            span[ERROR] = type(exc).__name__
                            raise
                        finally:
                            t1 = self.clock()
                            span[BUSY] += t1 - t0
                            span[END] = t1
                            self._stack.pop()
                        produced += 1
                        yield item
                finally:
                    inner.close()
                    self.counts[name + ".items"] += produced

            return generator

        def spanned(*args, **kwargs):
            self.counts[name] += 1
            idx = self._open(name, self.clock())
            span = self.spans[idx]
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = self.clock()
                span[BUSY] = span[END] - span[START]
                self._stack.pop()
            self._probe(probe, args, kwargs, result)
            return result

        return spanned

    def take(self) -> tuple[list[list], Counter]:
        """Hand over the spans and counts recorded so far and start afresh.

        Span parent indices refer to positions in the returned list.
        """
        if self._stack:
            raise RuntimeError("take() called inside an open span")
        spans, counts = self.spans, self.counts.copy()
        self.spans = []
        self.counts.clear()
        return spans, counts

    # -- installation ------------------------------------------------------

    def patch(self, namespaces: Iterable[object], original: Callable,
              wrapper: Callable) -> None:
        """Replace `original` by `wrapper` wherever a namespace holds it."""
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    self._patched.append((ns, attr, original))
                    setattr(ns, attr, wrapper)

    def patch_package(self, modules: dict[str, types.ModuleType],
                      namespaces: Iterable[object],
                      kinds: dict[str, str], probes: dict[str, Probe]) -> list[str]:
        """Wrap every public function of each module in `modules`.

        `modules` maps a layer name to its module.  A function is public when
        the module lists it in `__all__` (or, without `__all__`, when its name
        has no leading underscore) and the module defines it.  Returns the
        wrapped names.
        """
        namespaces = list(namespaces)
        wrapped = []
        for layer, module in modules.items():
            names = getattr(module, "__all__", None)
            if names is None:
                names = [n for n in vars(module) if not n.startswith("_")]
            for attr in names:
                fn = getattr(module, attr, None)
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                if inspect.isgeneratorfunction(fn):
                    kind = "generator"
                else:
                    kind = kinds.get(name, "span")
                self.patch(namespaces, fn, self.wrap(name, fn, kind, probes.get(name)))
                wrapped.append(name)
        return wrapped

    def restore(self) -> None:
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()


# -- derived figures -------------------------------------------------------


def self_times(spans: list[list]) -> list[float]:
    """Per span: busy time minus the busy time of its direct children."""
    out = [span[BUSY] for span in spans]
    for span in spans:
        if span[PARENT] is not None:
            out[span[PARENT]] -= span[BUSY]
    return out


def layer_self_times(spans: list[list]) -> Counter:
    """Self time summed per layer (the part of a span name before the dot)."""
    out: Counter = Counter()
    for span, own in zip(spans, self_times(spans)):
        out[span[NAME].split(".", 1)[0]] += own
    return out


def function_times(spans: list[list]) -> Counter:
    """Busy time per function name, counting only outermost calls of it."""
    out: Counter = Counter()
    for span in spans:
        parent = span[PARENT]
        while parent is not None and spans[parent][NAME] != span[NAME]:
            parent = spans[parent][PARENT]
        if parent is None:
            out[span[NAME]] += span[BUSY]
    return out


def function_self_times(spans: list[list]) -> Counter:
    out: Counter = Counter()
    for span, own in zip(spans, self_times(spans)):
        out[span[NAME]] += own
    return out
