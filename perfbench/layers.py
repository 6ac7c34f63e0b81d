"""Outside-in per-layer tracing for the serving benchmark.

The program is not edited: :func:`install` replaces the public callables of
each layer with a wrapper that records one span per call, and the span tree
gives each layer's call count and self time (its span minus the part of its
interval that its child spans cover). A target that no longer exists is
reported as absent instead of failing the run, so a later change that
removes a layer still runs this benchmark unchanged.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import pickle
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

#: Wrapped operations: metric name -> (module, attribute path). Functions are
#: wrapped where the server module binds them, because that is the name the
#: server calls; a method is wrapped on its class.
TARGETS: dict[str, tuple[str, str]] = {
    "service.server.register": ("repro.service.server", "QueryServer.register"),
    "service.server.deregister": ("repro.service.server", "QueryServer.deregister"),
    "service.server.run_batch": ("repro.service.server", "QueryServer.run_batch"),
    "service.substore.canonicalize": ("repro.service.substore", "SubtreeStore.canonicalize"),
    "service.canonical.canonicalize": ("repro.service.server", "canonicalize"),
    "service.plan_cache.plan": ("repro.service.plan_cache", "PlanCache.plan"),
    "core.heuristics.schedule": ("repro.service.server", "DEFAULT_SCHEDULER"),
    "engine.workload.compute_max_windows": ("repro.service.server", "compute_max_windows"),
    "streams.cache.advance": ("repro.streams.cache", "DataItemCache.advance"),
    "streams.cache.fetch_window": ("repro.streams.cache", "DataItemCache.fetch_window"),
    "streams.cache.retain_relevant": ("repro.streams.cache", "DataItemCache.retain_relevant"),
    "engine.executor.outcome": ("repro.engine.executor", "BernoulliOracle.outcome"),
    "service.shared_plan.merge_schedules": ("repro.service.server", "merge_schedules"),
    "service.shared_plan.execute_round": ("repro.service.server", "execute_round"),
    "cluster.partition.partition_by_overlap": ("repro.cluster.cluster", "partition_by_overlap"),
    "cluster.router.route": ("repro.cluster.router", "ShardRouter.route"),
    "cluster.worker.register": ("repro.cluster.worker", "ShardWorkerProxy.register"),
    "cluster.worker.deregister": ("repro.cluster.worker", "ShardWorkerProxy.deregister"),
    "cluster.worker.run_batch": ("repro.cluster.worker", "ShardWorkerProxy.run_batch"),
    "cluster.cluster.run_batch": ("repro.cluster.cluster", "ClusterServer.run_batch"),
}

#: With the default sub-tree store the server never calls ``canonicalize``
#: itself; the store's memo-miss path does. Both bindings count as one op.
EXTRA_BINDINGS: dict[str, tuple[tuple[str, str], ...]] = {
    "service.canonical.canonicalize": (("repro.service.substore", "canonicalize"),),
}

#: Ops that cross the worker pipe: their pickled argument and return sizes
#: are recorded as ``.bytes_out`` and ``.bytes_in``.
PIPE_OPS = ("cluster.worker.register", "cluster.worker.deregister", "cluster.worker.run_batch")


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None


@dataclass
class Tracer:
    """Collects spans in memory; :meth:`write` dumps them once at the end.

    Parents are tracked per thread. A thread whose stack is empty (a pool
    thread the cluster fans a batch out on) parents under the innermost open
    span of the thread that installed the tracer, which is the call that
    started the pool.
    """

    run_id: str
    spans: list[Span] = field(default_factory=list)
    bytes_out: dict[str, int] = field(default_factory=dict)
    bytes_in: dict[str, int] = field(default_factory=dict)
    absent: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._ids = itertools.count(1)
        self._lock = threading.Lock()  # pool threads add pipe bytes concurrently
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.get_ident()

    def _stack(self) -> list[int]:
        ident = threading.get_ident()
        stack = self._stacks.get(ident)
        if stack is None:
            stack = self._stacks[ident] = []
        return stack

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        sized = name in PIPE_OPS

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if sized:
                # Sized outside the span so pickling is not billed to the op.
                self._add(self.bytes_out, name, len(pickle.dumps((args[1:], kwargs))))
            stack = self._stack()
            if stack:
                parent: int | None = stack[-1]
            else:
                main = self._stacks.get(self._main)
                parent = main[-1] if main else None
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(Span(span_id, name, start, end, parent))
            if sized:
                self._add(self.bytes_in, name, len(pickle.dumps(result)))
            return result

        return traced

    def _add(self, table: dict[str, int], name: str, amount: int) -> None:
        with self._lock:
            table[name] = table.get(name, 0) + amount

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(
                    json.dumps(
                        {
                            "run": self.run_id,
                            "id": span.span_id,
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "parent": span.parent,
                        }
                    )
                )
                out.write("\n")

    def layer_table(self) -> dict[str, float]:
        """``<op>.calls``, ``<op>.self_ms`` and pipe byte totals per op."""
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        calls = {name: 0 for name in TARGETS}
        self_ms = {name: 0.0 for name in TARGETS}
        for span in self.spans:
            calls[span.name] += 1
            covered = _covered(span, children.get(span.span_id, ()))
            self_ms[span.name] += (span.end - span.start - covered) * 1e3
        table: dict[str, float] = {}
        for name in TARGETS:
            table[f"{name}.calls"] = calls[name]
            table[f"{name}.self_ms"] = self_ms[name]
        for name in PIPE_OPS:
            table[f"{name}.bytes_out"] = self.bytes_out.get(name, 0)
            table[f"{name}.bytes_in"] = self.bytes_in.get(name, 0)
        return table


def _covered(parent: Span, kids: Any) -> float:
    """Length of the union of the child intervals, clipped to the parent."""
    total = 0.0
    reach = parent.start
    for kid in sorted(kids, key=lambda span: span.start):
        start = max(kid.start, reach)
        end = min(kid.end, parent.end)
        if end > start:
            total += end - start
            reach = end
    return total


def resolve(module_name: str, path: str) -> tuple[Any, str, Any] | None:
    """``(owner, attribute, current value)`` for a target, or None when absent."""
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    if path == "DEFAULT_SCHEDULER":
        # The server's scheduler is built by name; wrap that class's method.
        from repro.core.heuristics.base import get_scheduler

        cls = type(get_scheduler(getattr(owner, attr)))
        return cls, "schedule", getattr(cls, "schedule")
    return owner, attr, getattr(owner, attr)


def install(tracer: Tracer) -> list[str]:
    """Wrap every resolvable target; returns the names of the absent ones."""
    absent: list[str] = []
    for name, (module_name, path) in TARGETS.items():
        found = resolve(module_name, path)
        if found is None:
            absent.append(name)
            continue
        bindings = [found]
        for extra in EXTRA_BINDINGS.get(name, ()):
            more = resolve(*extra)
            if more is not None:
                bindings.append(more)
        for owner, attr, value in bindings:
            setattr(owner, attr, tracer.wrap(name, value))
    tracer.absent = absent
    return absent
