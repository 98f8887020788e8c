"""Spans around phasefit's public functions, recorded from outside.

`Tracer.install` replaces every public function of the library modules,
in every phasefit namespace that binds it, with a wrapper that records a
span (name, start, end, time covered by child spans); `uninstall`
puts the originals back. The benchmark opens one span per job around it,
so each job's spans can be summed per function, with self times, once
the pass is over.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

LAYERS = ("model", "fitting", "analysis", "sampling", "markov", "des")


class Tracer:
    def __init__(self):
        self._spans: list[list] = []  # [name, start, end, child time]
        self._stack: list[list] = []
        self._restore: list[tuple] = []

    def enter(self, name: str) -> list:
        rec = [name, 0.0, 0.0, 0.0]
        self._spans.append(rec)
        self._stack.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def exit(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1][3] += rec[2] - rec[1]

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit(rec)
        return traced

    def install(self) -> None:
        package = importlib.import_module("phasefit")
        modules = [package] + [importlib.import_module(f"phasefit.{m}")
                               for m in LAYERS + ("cli",)]
        for layer in LAYERS:
            mod = importlib.import_module(f"phasefit.{layer}")
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != mod.__name__:
                    continue
                traced = self._wrap(f"{layer}.{attr}", fn)
                for m in modules:
                    if vars(m).get(attr) is fn:
                        setattr(m, attr, traced)
                        self._restore.append((m, attr, fn))

    def uninstall(self) -> None:
        for m, attr, fn in reversed(self._restore):
            setattr(m, attr, fn)
        self._restore.clear()

    def mark(self) -> int:
        return len(self._spans)

    def aggregate(self, start: int, end: int) -> dict:
        """Per function: [calls, total s, self s] over spans start..end-1."""
        out: dict[str, list] = {}
        for name, t0, t1, child in self._spans[start:end]:
            agg = out.setdefault(name, [0, 0.0, 0.0])
            agg[0] += 1
            agg[1] += t1 - t0
            agg[2] += t1 - t0 - child
        return out

    def clear(self) -> None:
        self._spans.clear()

