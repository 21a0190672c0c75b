"""In-memory span tracing of creatorgame's public functions, from outside the package.

install() replaces every public function of the traced modules at every
module binding that refers to it (for example population.respond and
leader.population_shares, not only the defining module), so calls made
inside the package are recorded too. Each call appends one span: the
function's name, start and end (perf_counter_ns), the index of the
enclosing span (-1 for a top-level call) and the request id the caller set.
Spans live in flat arrays until the run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from array import array
from time import perf_counter_ns

import numpy as np

MODULES = ("cli", "scenario", "leader", "population", "response", "core", "sweep")


class SpanStore:
    """Flat columns of recorded spans plus the current call stack."""

    def __init__(self) -> None:
        self.names: list[str] = []  # span name by name id
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.current_request = -1

    def clear(self) -> None:
        for column in (self.name, self.parent, self.request, self.start, self.end):
            del column[:]
        self.stack[:] = [-1]

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "request": np.frombuffer(self.request, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64).copy(),
        }


def _wrap(fn, name_id: int, store: SpanStore):
    names, parents, requests = store.name.append, store.parent.append, store.request.append
    starts, ends, stack = store.start, store.end, store.stack

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = len(starts)
        names(name_id)
        parents(stack[-1])
        requests(store.current_request)
        starts.append(0)
        ends.append(0)
        stack.append(idx)
        t0 = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            ends[idx] = perf_counter_ns()
            starts[idx] = t0
            stack.pop()

    return traced


def install(store: SpanStore):
    """Wrap every public function of MODULES at every binding; returns an undo callable."""
    modules = {short: importlib.import_module(f"creatorgame.{short}") for short in MODULES}
    store.names.clear()
    wrappers = {}
    for short, module in modules.items():
        for attr, obj in vars(module).items():
            if inspect.isfunction(obj) and not attr.startswith("_") and obj.__module__ == module.__name__:
                store.names.append(f"{short}.{attr}")
                wrappers[obj] = _wrap(obj, len(store.names) - 1, store)
    replaced = []
    for module in modules.values():
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                replaced.append((module, attr, obj))
                setattr(module, attr, wrappers[obj])

    def uninstall() -> None:
        for module, attr, original in replaced:
            setattr(module, attr, original)

    return uninstall


def self_times(columns: dict[str, np.ndarray]) -> np.ndarray:
    """Each span's duration in seconds minus the durations of its direct children."""
    duration = (columns["end"] - columns["start"]) / 1e9
    parent = columns["parent"]
    nested = parent >= 0
    children = np.bincount(parent[nested], weights=duration[nested], minlength=len(duration))
    return duration - children
