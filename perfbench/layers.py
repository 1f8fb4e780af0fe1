"""Per-layer timing from outside the program.

``Tracer.install`` replaces each traced public function with a wrapper in
every namespace that bound it by name (the defining module, the modules that
imported it with ``from ... import``, and the benchmark's own workload
module), and ``restore`` puts the originals back.  Each wrapper counts calls
and accumulates inclusive time; self time is inclusive time minus the time
of traced calls made underneath it.

The ``linalg`` helpers and ``omega`` are deliberately not traced: they are
called millions of times, and a wrapper on them would cost more than the
work it measures.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
from collections import defaultdict
from time import perf_counter

#: (module, function) pairs to trace; metrics are named after the module's
#: last component, as in ``geometry.convex_hull.calls``.
TRACED = (
    ("sympolar.geometry", "convex_hull"),
    ("sympolar.geometry", "vertex_enumeration"),
    ("sympolar.geometry", "volume"),
    ("sympolar.geometry", "face_lattice"),
    ("sympolar.symplectic", "expand_step"),
    ("sympolar.symplectic", "symplectic_polar"),
    ("sympolar.symplectic", "check_subset_sympolar"),
    ("sympolar.symplectic", "is_self_polar"),
    ("sympolar.capacity", "ehz_brute_force"),
    ("sympolar.capacity", "evaluate_certificate"),
    ("sympolar.suspension", "power_suspend"),
    ("sympolar.suspension", "suspend_vertices"),
    ("sympolar.io", "write_polytope"),
    ("sympolar.io", "read_polytope"),
    ("sympolar.experiments.pm1", "maximal_cliques"),
    ("sympolar.experiments.generate", "random_selfpolar"),
)


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counters: dict[str, int] = defaultdict(int)
        self._active: dict[str, int] = defaultdict(int)
        self._stack: list[list[float]] = []  # child time of each open span
        self._patched: list[tuple[object, str, object]] = []

    def _record(self, name: str, elapsed: float, child: float):
        # a re-entered function's outer span already covers the inner one
        if self._active[name] == 0:
            self.inclusive[name] += elapsed
        self.self_time[name] += elapsed - child
        if self._stack:
            self._stack[-1][0] += elapsed

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[name] += 1
            self._active[name] += 1
            self._stack.append([0.0])
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                child = self._stack.pop()[0]
                self._active[name] -= 1
                self._record(name, elapsed, child)

        return traced

    def _wrap_generator(self, name: str, fn):
        """Times each ``next()`` of a generator and counts the items."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[name] += 1
            inner = fn(*args, **kwargs)
            while True:
                self._stack.append([0.0])
                start = perf_counter()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._record(name, perf_counter() - start, self._stack.pop()[0])
                self.counters[f"{name}.items"] += 1
                yield item

        return traced

    def _wrap_writer(self, name: str, fn):
        """Also sums the size of the file written, the writer's first argument."""
        inner = self._wrap(name, fn)

        @functools.wraps(fn)
        def traced(path, *args, **kwargs):
            result = inner(path, *args, **kwargs)
            self.counters[f"{name}.bytes"] += os.path.getsize(path)
            return result

        return traced

    def install(self, extra_modules=()):
        modules = [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == "sympolar" or key.startswith("sympolar."))
        ]
        modules.extend(extra_modules)
        for module_name, func_name in TRACED:
            original = getattr(sys.modules[module_name], func_name)
            name = f"{module_name.rsplit('.', 1)[-1]}.{func_name}"
            if inspect.isgeneratorfunction(original):
                wrapper = self._wrap_generator(name, original)
            elif func_name == "write_polytope":
                wrapper = self._wrap_writer(name, original)
            else:
                wrapper = self._wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def restore(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def report(self) -> dict:
        out: dict[str, float] = {}
        for module_name, func_name in TRACED:
            name = f"{module_name.rsplit('.', 1)[-1]}.{func_name}"
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.s"] = self.inclusive[name]
            out[f"{name}.self_s"] = self.self_time[name]
        out.update(self.counters)
        return out
