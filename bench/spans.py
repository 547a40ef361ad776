"""Outside-in span tracing: wrap a package's functions where callers look them up.

A Tracer replaces each target function with a wrapper in every namespace that
holds it (the defining module, modules that imported it by name, and classes
for methods), records one span per call, and puts the originals back on
restore(). Spans live in flat in-memory arrays (name id, parent index, start,
end) and are written out once, at the end of a run. A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str, counter=None):
        """Return a wrapper of fn that records a span called name.

        counter, if given, is called as counter(counters, args, kwargs, result,
        exc) after the call, with exc the exception the call raised or None.
        """
        nid = len(self.names)
        self.names.append(name)
        clock, stack = self.clock, self._stack
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        counters = self.counters

        def wrapper(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
                if counter is not None:
                    counter(counters, args, kwargs, result, exc)

        return functools.wraps(fn)(wrapper)

    def install(self, targets: dict, namespaces, counters=None) -> int:
        """Replace every target function found in the namespaces by its wrapper.

        targets maps function objects to span names; counters maps span names
        to counter callables. Methods are replaced on their class, keeping
        classmethod and staticmethod descriptors. Returns the number of
        attributes replaced.
        """
        counters = counters or {}
        wrappers = {}

        def wrapper_for(fn):
            if fn not in wrappers:
                name = targets[fn]
                wrappers[fn] = self.wrap(fn, name, counters.get(name))
            return wrappers[fn]

        replaced = 0
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if isinstance(value, (classmethod, staticmethod)):
                    inner = value.__func__
                    if inner not in targets:
                        continue
                    new = type(value)(wrapper_for(inner))
                elif inspect.isfunction(value) and value in targets:
                    new = wrapper_for(value)
                else:
                    continue
                self._restore.append((ns, attr, value))
                setattr(ns, attr, new)
                replaced += 1
        return replaced

    def restore(self) -> None:
        """Put back every attribute install() replaced, newest first."""
        while self._restore:
            ns, attr, value = self._restore.pop()
            setattr(ns, attr, value)

    @property
    def span_count(self) -> int:
        return len(self.starts)

    def self_times(self) -> dict[str, tuple[float, int]]:
        """Total self time and call count per span name."""
        n = self.span_count
        if n == 0:
            return {}
        ids = np.frombuffer(self.name_ids, dtype=np.int32)
        parents = np.frombuffer(self.parents, dtype=np.int32)
        dur = np.frombuffer(self.ends, dtype=np.float64) - np.frombuffer(
            self.starts, dtype=np.float64
        )
        child = np.zeros(n)
        nested = parents >= 0
        np.add.at(child, parents[nested], dur[nested])
        own = dur - child
        totals = np.bincount(ids, weights=own, minlength=len(self.names))
        calls = np.bincount(ids, minlength=len(self.names))
        return {
            name: (float(totals[i]), int(calls[i]))
            for i, name in enumerate(self.names)
            if calls[i]
        }

    def save(self, path) -> None:
        """Write every span (name, parent, start, end) to an .npz file."""
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_ids, dtype=np.int32),
            parent=np.frombuffer(self.parents, dtype=np.int32),
            start=np.frombuffer(self.starts, dtype=np.float64),
            end=np.frombuffer(self.ends, dtype=np.float64),
        )


def package_targets(package: str, layers) -> tuple[dict, list]:
    """Targets and namespaces that trace the public surface of package's layers.

    A layer is a submodule name. Its targets are the public functions it
    defines, plus __post_init__ and the public plain, class and static methods
    of the classes it defines (properties are left alone, so their time counts
    toward the caller). Span names read '<layer>.<function>' or
    '<layer>.<Class>.<method>'. The namespaces are every loaded module of the
    package and every class of the layers, so a function imported by name into
    another module is wrapped there too.
    """
    targets: dict = {}
    classes = []
    for layer in layers:
        module = sys.modules[f"{package}.{layer}"]
        for attr, value in vars(module).items():
            if getattr(value, "__module__", None) != module.__name__ or attr.startswith("_"):
                continue
            if inspect.isfunction(value):
                targets[value] = f"{layer}.{attr}"
            elif inspect.isclass(value):
                classes.append(value)
                for meth, raw in vars(value).items():
                    if meth != "__post_init__" and meth.startswith("_"):
                        continue
                    fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                    if inspect.isfunction(fn):
                        targets[fn] = f"{layer}.{value.__name__}.{meth}"
    modules = [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == package or name.startswith(package + "."))
    ]
    return targets, modules + classes
