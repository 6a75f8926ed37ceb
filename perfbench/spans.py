"""In-memory span tracing around the program's layer boundaries.

The benchmark times layers from the outside: :func:`install` replaces
each layer's public function *where the program looks it up* with a
wrapper that records a span (name, start, end, parent) and, for a few
layers, a work count.  Spans stay in memory; :meth:`SpanLog.dump`
writes them out when the traced process ends.  The function
:func:`install` returns restores the originals, so untraced passes run
the program exactly as shipped.

A wrapper that never fires reads as a layer that did no work, so the
workloads assert, layer by layer, that each wrapper fired exactly where
work is expected (see ``expect_layers`` in ``workloads.py``).
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Span names, one per wrapped layer boundary.
PLAN = "libraries.plan"
SIMULATE = "gpusim.simulate"
NOISE = "profiling.runner.noise"
MEASURE = "profiling.runner.measure"
TABLE = "profiling.latency_table.build"
LOOKUP = "profiling.store.lookup"
RECORD = "profiling.store.record"
ANALYZE = "core.staircase.analyze"
EXECUTE = "api.session.execute"
EXPERIMENT = "experiments.run"

class SpanLog:
    """Thread-safe in-memory span list with per-thread parent stacks.

    A span is ``[name, start, end, parent_index, thread, attrs]``; the
    parent is the innermost span open on the same thread when it began.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, args, kwargs, attrs_of=None) -> Any:
        stack = self._stack()
        span = [name, 0.0, 0.0, stack[-1] if stack else None, threading.get_ident(), {}]
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            stack.pop()
        if attrs_of is not None:
            span[5] = attrs_of(args, kwargs, result)
        return result

    def mark(self) -> int:
        with self._lock:
            return len(self.spans)

    def since(self, mark: int) -> List[list]:
        with self._lock:
            return self.spans[mark:]

    def dump(self, path: str) -> None:
        with self._lock:
            payload = list(self.spans)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


def _wrap(log: SpanLog, name: str, fn: Callable, attrs_of=None) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return log.call(name, fn, args, kwargs, attrs_of)

    return traced


def _simulate_attrs(args, kwargs, result) -> dict:
    return {"configs": len(args[0])}


def _lookup_attrs(args, kwargs, result) -> dict:
    # ProfileStore.lookup(self, device, library, runs, layer, counts, seed=)
    found, missing = result
    return {"found": len(found), "requested": len(found) + len(missing)}


def _record_attrs(args, kwargs, result) -> dict:
    # ProfileStore.record(self, device, library, runs, layer, measurements, seed=)
    return {"appended": len(args[5])}


def _experiment_attrs(args, kwargs, result) -> dict:
    return {"id": args[0]}


def _bindings() -> List[Tuple[Any, str, str, Optional[Callable]]]:
    """(owner, attribute, span name, attrs) for every wrapped lookup site."""

    from repro.api import session as session_module
    from repro.api.session import Session
    from repro.experiments import registry as registry_module
    from repro.libraries.base import LIBRARIES
    from repro.profiling import runner as runner_module
    from repro.profiling.runner import ProfileRunner
    from repro.profiling.store import ProfileStore

    sites = [
        (runner_module, "simulate_batch", SIMULATE, _simulate_attrs),
        (runner_module, "noise_matrix", NOISE, None),
        (session_module, "analyze_table", ANALYZE, None),
        (session_module, "build_latency_table", TABLE, None),
        (ProfileStore, "lookup", LOOKUP, _lookup_attrs),
        (ProfileStore, "record", RECORD, _record_attrs),
        (ProfileRunner, "measure_many", MEASURE, None),
        (ProfileRunner, "prefetch", MEASURE, None),
        (Session, "execute", EXECUTE, None),
        (registry_module, "run_experiment", EXPERIMENT, _experiment_attrs),
    ]
    for _, library_cls in LIBRARIES.items():
        if "plan" in vars(library_cls):
            sites.append((library_cls, "plan", PLAN, None))
    return sites


def install(log: SpanLog) -> Callable[[], None]:
    """Wrap every layer boundary; returns the function that undoes it."""

    originals = []
    for owner, attribute, name, attrs_of in _bindings():
        original = vars(owner)[attribute]
        originals.append((owner, attribute, original))
        setattr(owner, attribute, _wrap(log, name, original, attrs_of))

    def uninstall() -> None:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)

    return uninstall


def layer_totals(spans: List[list], base: int = 0) -> Dict[str, float]:
    """Busy/self seconds, call counts and work counts per span name.

    ``spans`` is a slice of a :class:`SpanLog` starting at global index
    ``base``.  Busy time counts only the outermost span of a name, so a
    name nested in itself is not counted twice; self time subtracts the
    time covered by direct children, which never overlap on one thread.
    """

    child_time: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span[3] is not None and span[3] >= base:
            child_time[span[3] - base] += span[2] - span[1]
    out: Dict[str, float] = defaultdict(float)
    for position, (name, start, end, parent, _, attrs) in enumerate(spans):
        duration = end - start
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += duration - child_time[position]
        ancestor = parent
        while ancestor is not None and ancestor >= base and spans[ancestor - base][0] != name:
            ancestor = spans[ancestor - base][3]
        if ancestor is None or ancestor < base:
            out[f"{name}.busy_s"] += duration
        for key, value in attrs.items():
            if isinstance(value, (int, float)):
                out[f"{name}.{key}"] += value
        if name == EXPERIMENT:
            out[f"experiments.{attrs['id']}_s"] += duration
    return out
