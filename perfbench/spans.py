"""In-memory span tracer for the benchmark's traced run.

The tracer works from outside the library.  For each traced function it
replaces every module attribute bound to that function object (the
package re-export and each importing module's global) with one shared
wrapper, so calls between library modules are recorded as well as the
benchmark's own calls.  Each call becomes one span holding an op id and
its parent span.  Times are integer nanoseconds, so a span's self time
(its duration minus its child spans') is exact and never negative.
"""

from __future__ import annotations

import inspect
import math
import sys
import time
from array import array
from pathlib import Path

import numpy as np


class Tracer:
    """Records one span per call of each target ``"module.function"``.

    Spans are recorded only while ``enabled`` is true; the benchmark turns
    it on around each op, so its output checks are not traced.  ``hooks`` maps a target to ``hook(args, kwargs, result)``, run after
    the span has ended on calls that returned; a number it returns is
    stored as the span's value.  Hooks must stay cheap: they run inside
    the op, only outside the span.
    """

    def __init__(self, package: str, targets, hooks=None):
        self.package = package
        self.names = list(targets)
        self.hooks = dict(hooks or {})
        self.op = -1
        self.enabled = False
        self.parent = array("q")
        self.func = array("q")
        self.op_ids = array("q")
        self.start_ns = array("q")
        self.end_ns = array("q")
        self.value = array("d")
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.originals: list = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every target at every binding inside the package."""
        prefix = self.package + "."
        modules = [
            m
            for name, m in sys.modules.items()
            if m is not None and (name == self.package or name.startswith(prefix))
        ]
        for idx, qualname in enumerate(self.names):
            module_name, attr = qualname.rsplit(".", 1)
            original = getattr(sys.modules[prefix + module_name], attr)
            self.originals.append(original)
            wrapper = self._wrap(idx, original, self.hooks.get(qualname))
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)
                        self._restore.append((module, name, original))

    def uninstall(self) -> None:
        for module, name, original in reversed(self._restore):
            setattr(module, name, original)
        self._restore.clear()

    def _wrap(self, idx, fn, hook):
        parent, func, op_ids = self.parent, self.func, self.op_ids
        start_ns, end_ns, value = self.start_ns, self.end_ns, self.value
        stack = self._stack
        clock = time.perf_counter_ns
        nan = math.nan

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            sid = len(start_ns)
            parent.append(stack[-1] if stack else -1)
            func.append(idx)
            op_ids.append(self.op)
            value.append(nan)
            end_ns.append(0)
            stack.append(sid)
            start_ns.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end_ns[sid] = clock()
                stack.pop()
            if hook is not None:
                v = hook(args, kwargs, result)
                if v is not None:
                    value[sid] = v
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    # -- analysis ---------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "parent": np.array(self.parent, dtype=np.int64),
            "func": np.array(self.func, dtype=np.int64),
            "op": np.array(self.op_ids, dtype=np.int64),
            "start_ns": np.array(self.start_ns, dtype=np.int64),
            "end_ns": np.array(self.end_ns, dtype=np.int64),
            "value": np.array(self.value, dtype=np.float64),
        }

    def self_ns(self) -> np.ndarray:
        """Each span's duration minus the durations of its child spans."""
        a = self.arrays()
        dur = a["end_ns"] - a["start_ns"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        return dur - child

    def per_function(self) -> dict[str, tuple[int, float]]:
        """``name -> (calls, self seconds)`` over every recorded span."""
        func = self.arrays()["func"]
        k = len(self.names)
        calls = np.bincount(func, minlength=k)
        self_s = np.bincount(func, weights=self.self_ns(), minlength=k) / 1e9
        return {
            name: (int(calls[i]), float(self_s[i]))
            for i, name in enumerate(self.names)
        }

    def bound_arguments(self, qualname: str, args, kwargs) -> dict:
        """Arguments of a recorded call by parameter name, defaults applied."""
        fn = self.originals[self.names.index(qualname)]
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    def write(self, path: Path, **meta) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **self.arrays(), **meta)
