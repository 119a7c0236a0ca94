"""Timing wrappers around the library's public functions, and span arithmetic.

The wrappers live in the benchmark, not in the library: ``install`` replaces
every public function of the traced modules in every ``causalproc`` module
namespace that binds it (modules bind names with ``from .labeled import ...``,
so patching the defining module alone would miss most calls).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time

import numpy as np

LAYERS = ("labeled", "hs", "channels", "process", "graphs", "combs", "classical", "exemplars", "fileio", "cli")
# Methods traced as layer functions: (layer, class, method).
METHODS = (("channels", "ChannelOperator", "cptp_residuals"),)

# Span fields, kept as plain lists so the shim can dump them as JSON.
NAME, START, END, PARENT, OP, BYTES, EXTRA = range(7)


def _nbytes(obj, depth: int = 0) -> int:
    """Computed nbytes of the operator matrices in ``obj`` (arrays, labeled
    operators, linear maps, processes and channels, or a list of them)."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    for attr in ("matrix", "op", "process"):
        inner = getattr(obj, attr, None)
        if inner is not None and not callable(inner):
            return _nbytes(inner, depth)
    if depth == 0 and isinstance(obj, (list, tuple)):
        return sum(_nbytes(x, 1) for x in obj)
    return 0


def _written_bytes(args, kwargs, result):
    path = kwargs.get("path", args[0] if args else None)
    return os.path.getsize(path)


def _iterations(args, kwargs, result):
    return result.iterations


# Counts taken from a call's arguments or result, keyed by span name.
EXTRAS = {
    "fileio.write_process_file": _written_bytes,
    "combs.bipartite_separability": _iterations,
}


class Tracer:
    """Keeps spans in memory; ``op`` tags the spans of the current operation.
    Calls made while ``op`` is None (the golden checks after a phase) are not
    traced."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = None

    def wrap(self, name: str, fn):
        extra = EXTRAS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else None, self.op, 0, None]
            self.spans.append(span)
            self.stack.append(idx)
            span[BYTES] = _nbytes(args) + _nbytes(tuple(kwargs.values()))
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                self.stack.pop()
            span[BYTES] += _nbytes(result)
            if extra is not None:
                span[EXTRA] = extra(args, kwargs, result)
            return result

        return traced


def install(tracer: Tracer) -> None:
    """Wrap each public function of LAYERS wherever a causalproc module binds
    it, and the METHODS."""
    for layer in LAYERS:
        importlib.import_module(f"causalproc.{layer}")
    mods = {name: mod for name, mod in sys.modules.items() if name == "causalproc" or name.startswith("causalproc.")}
    wrappers = {}
    for layer in LAYERS:
        mod = mods[f"causalproc.{layer}"]
        for attr, fn in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            wrappers[fn] = tracer.wrap(f"{layer}.{attr}", fn)
    for layer, cls_name, attr in METHODS:
        cls = getattr(mods[f"causalproc.{layer}"], cls_name)
        setattr(cls, attr, tracer.wrap(f"{layer}.{attr}", vars(cls)[attr]))
    for mod in mods.values():
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in wrappers:
                setattr(mod, attr, wrappers[value])


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s[PARENT] is not None:
            children.setdefault(s[PARENT], []).append(i)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s[START]
        for lo, hi in sorted((spans[c][START], spans[c][END]) for c in children.get(i, ())):
            lo, hi = max(lo, reach, s[START]), min(hi, s[END])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s[END] - s[START]) - covered)
    return out


def ancestors(spans, i: int):
    p = spans[i][PARENT]
    while p is not None:
        yield p
        p = spans[p][PARENT]


def count_under(spans, name: str, ancestor: str, skip_op=None) -> int:
    """Spans called ``name`` that run inside a span called ``ancestor``."""
    return sum(
        1
        for i, s in enumerate(spans)
        if s[NAME] == name and s[OP] != skip_op and any(spans[p][NAME] == ancestor for p in ancestors(spans, i))
    )


def layer_stats(spans, skip_op=None) -> dict[str, dict[str, float]]:
    """Per span name: calls, self_s, computed bytes and extra counts, over the
    spans whose operation id is not ``skip_op``."""
    stats: dict[str, dict[str, float]] = {}
    for s, self_s in zip(spans, self_times(spans)):
        if s[OP] == skip_op:
            continue
        st = stats.setdefault(s[NAME], {"calls": 0, "self_s": 0.0, "bytes": 0, "extra": 0})
        st["calls"] += 1
        st["self_s"] += self_s
        st["bytes"] += s[BYTES]
        st["extra"] += s[EXTRA] or 0
    return stats


def _is_build(name: str) -> bool:
    return name.startswith("exemplars.make_") or name == "exemplars.random_unitary_chain"


def build_seconds(spans) -> float:
    """Inclusive time of the outermost exemplar build calls."""
    return sum(
        s[END] - s[START]
        for i, s in enumerate(spans)
        if _is_build(s[NAME]) and not any(_is_build(spans[p][NAME]) for p in ancestors(spans, i))
    )


def merge(into: list, spans: list) -> None:
    """Append a child process's spans, shifting parent indices."""
    base = len(into)
    for s in spans:
        s = list(s)
        if s[PARENT] is not None:
            s[PARENT] += base
        into.append(s)
