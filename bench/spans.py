"""Span shims for the traced benchmark run.

The traced run replays a workload in-process through ``kernlr.cli.main``.
While :func:`traced` is active, every public function defined in one of the
layer modules is replaced by a wrapper that records a span (name, parent,
start, end, work) around the call. The wrapper is installed in *every*
``kernlr`` module namespace that holds the function, because ``kernlr.cli``,
``kernlr.random_projection`` and ``kernlr.verification`` import functions by
name; patching only the defining module would let those calls escape the
trace. Nothing under ``src/`` changes, and the originals are restored on
exit.

A span's self time is its duration minus the durations of its direct
children. ``cli.self_s`` is the ``cli.main`` wall time minus the root spans,
so the self times of all spans plus ``cli.self_s`` add up to that wall time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

LAYER_MODULES = ("kernels", "spectral", "random_projection", "verification",
                 "datasets", "svgplot", "analytic")


def _jl_flops(factor, d, *args, **kwargs) -> float:
    # root @ R is n x n times n x d, and S @ S.T is n x d times d x n: 2 n^2 d each.
    return 4.0 * factor.n ** 2 * d


# Operation counts computed from the arguments, not measured.
WORK = {"random_projection.jl_approximation": _jl_flops}


class Tracer:
    """Spans of one traced call, kept in memory as [name, parent, start, end, work]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn):
        work = WORK.get(name)

        @functools.wraps(fn)
        def traced_call(*args, **kwargs):
            span = [name, self._stack[-1] if self._stack else -1, time.perf_counter(), None,
                    work(*args, **kwargs) if work else 0.0]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()

        return traced_call

    def layers(self, wall_s: float) -> dict:
        """Self time, calls and work per span name, plus ``cli.self_s``."""
        child_s = [0.0] * len(self.spans)
        root_s = 0.0
        for name, parent, start, end, work in self.spans:
            if parent < 0:
                root_s += end - start
            else:
                child_s[parent] += end - start
        table = defaultdict(lambda: {"self_s": 0.0, "calls": 0, "work": 0.0})
        for (name, parent, start, end, work), children in zip(self.spans, child_s):
            row = table[name]
            row["self_s"] += end - start - children
            row["calls"] += 1
            row["work"] += work
        table = dict(table)
        covered = sum(row["self_s"] for row in table.values())
        cli_self = wall_s - root_s
        if abs(covered + cli_self - wall_s) > 1e-6 * max(wall_s, 1.0):
            raise RuntimeError(f"span self times {covered:.6f} s + cli.self_s {cli_self:.6f} s "
                               f"do not add up to the cli.main wall {wall_s:.6f} s")
        table["cli"] = {"self_s": cli_self, "calls": 1, "work": 0.0}
        return table


@contextmanager
def traced(tracer: Tracer):
    """Install ``tracer``'s wrappers in every loaded ``kernlr`` module."""
    wrappers = {}
    for short in LAYER_MODULES:
        module = importlib.import_module(f"kernlr.{short}")
        for attr, value in vars(module).items():
            if (inspect.isfunction(value) and not attr.startswith("_")
                    and value.__module__ == module.__name__):
                wrappers[id(value)] = (value, tracer.wrap(f"{short}.{attr}", value))
    saved = []
    for name, module in list(sys.modules.items()):
        if name != "kernlr" and not name.startswith("kernlr."):
            continue
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                saved.append((module, attr, value))
                setattr(module, attr, hit[1])
    try:
        yield tracer
    finally:
        for module, attr, value in saved:
            setattr(module, attr, value)
