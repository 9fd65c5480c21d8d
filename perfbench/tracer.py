"""Outside-in span tracer for the hnbundles package.

Installing a :class:`Tracer` rebinds every public function of the package
modules, in every ``hnbundles`` module namespace that holds it, and wraps
the hot ``HNBundle`` methods on the class.  The package itself is not
edited: calls between modules go through module globals, so the rebound
names see them.  Uninstalling restores every original object.

Each call becomes a span (name, parent, start, end) kept in compact arrays.
A generator function gets one span per resume, so its busy time is counted
where it runs rather than where it was created.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

MODULES = ("bundle", "criteria", "degrees", "degeneration", "verify", "cli", "render")

# HNBundle attribute -> span name.
CLASS_SPANS = {
    "__init__": "bundle.construct",
    "__hash__": "bundle.hash",
    "dual": "bundle.dual",
    "filter": "bundle.filter",
    "direct_sum": "bundle.direct_sum",
    "tensor": "bundle.tensor",
}


def _public_functions(module) -> dict[str, object]:
    """Functions (lru-cached ones included) named in ``__all__`` and defined in ``module``."""
    found = {}
    for name in module.__all__:
        obj = getattr(module, name)
        target = getattr(obj, "__wrapped__", obj)
        if inspect.isfunction(target) and target.__module__ == module.__name__:
            found[name] = obj
    return found


class Tracer:
    """Records spans while installed; use as a context manager around one pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.generators: set[str] = set()
        self.generator_calls: Counter[str] = Counter()
        self.yielded: Counter[str] = Counter()
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # wrappers

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name: str):
        nid = self._intern(name)
        ids, parents, starts, ends, stack = (
            self.name_ids, self.parents, self.starts, self.ends, self._stack)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(starts)
            ids.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return functools.update_wrapper(traced, fn)

    def _wrap_generator(self, fn, name: str):
        self.generators.add(name)
        resume = self._wrap(next, name)
        calls, yielded = self.generator_calls, self.yielded

        def traced(*args, **kwargs):
            calls[name] += 1
            inner = fn(*args, **kwargs)

            def resumes():
                while True:
                    try:
                        item = resume(inner)
                    except StopIteration:
                        return
                    yielded[name] += 1
                    yield item

            return resumes()

        return functools.update_wrapper(traced, fn)

    # ------------------------------------------------------------------
    # install / uninstall

    def install(self) -> "Tracer":
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module(f"hnbundles.{m}") for m in MODULES]
        namespaces = [m for name, m in sys.modules.items()
                      if name == "hnbundles" or name.startswith("hnbundles.")]
        for module in modules:
            short = module.__name__.rsplit(".", 1)[1]
            for fname, original in _public_functions(module).items():
                target = getattr(original, "__wrapped__", original)
                span = f"{short}.{fname}"
                if inspect.isgeneratorfunction(target):
                    wrapper = self._wrap_generator(original, span)
                else:
                    wrapper = self._wrap(original, span)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            self._restore.append((ns, attr, original))
                            setattr(ns, attr, wrapper)
        cls = importlib.import_module("hnbundles.bundle").HNBundle
        for attr, span in CLASS_SPANS.items():
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, span))
        return self

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    # results

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls`` and ``self_s`` (duration minus child spans).

        For a generator function ``calls`` counts the generators created and
        ``yielded`` the items they produced.
        """
        starts, ends, parents = self.starts, self.ends, self.parents
        self_ns = [end - start for start, end in zip(starts, ends)]
        for i, parent in enumerate(parents):
            if parent >= 0:
                self_ns[parent] -= ends[i] - starts[i]
        calls = [0] * len(self.names)
        busy = [0] * len(self.names)
        for nid, own in zip(self.name_ids, self_ns):
            calls[nid] += 1
            busy[nid] += own
        out = {}
        for nid, name in enumerate(self.names):
            stats = {"calls": calls[nid], "self_s": busy[nid] / 1e9}
            if name in self.generators:
                stats["calls"] = self.generator_calls[name]
                stats["yielded"] = self.yielded[name]
            out[name] = stats
        return out

    def write(self, stem: Path) -> None:
        """Write ``<stem>.spans.json`` (name table) and ``<stem>.spans`` (raw arrays).

        The binary file holds four arrays of ``count`` items, one after the
        other: name index (int32), parent span index or -1 (int32), start and
        end in perf_counter nanoseconds (int64), all in native byte order.
        """
        stem.with_suffix(".spans.json").write_text(json.dumps(
            {"count": len(self.starts), "names": self.names,
             "arrays": ["name_id:i4", "parent:i4", "start_ns:i8", "end_ns:i8"]}))
        with open(stem.with_suffix(".spans"), "wb") as handle:
            for arr in (self.name_ids, self.parents, self.starts, self.ends):
                arr.tofile(handle)
