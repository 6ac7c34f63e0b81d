"""Checks of the benchmark's tracing layer.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layers  # noqa: E402


def test_every_target_resolves_on_this_tree():
    absent = [
        name
        for name, (module, path) in layers.TARGETS.items()
        if layers.resolve(module, path) is None
    ]
    assert absent == []
    for name, bindings in layers.EXTRA_BINDINGS.items():
        for module, path in bindings:
            assert layers.resolve(module, path) is not None, name


def test_missing_target_is_absent_not_an_error():
    assert layers.resolve("repro.service.server", "QueryServer.no_such_method") is None
    assert layers.resolve("repro.no_such_module", "anything") is None


def test_self_time_subtracts_the_union_of_child_spans():
    tracer = layers.Tracer(run_id="test")
    name, child = "service.server.run_batch", "streams.cache.fetch_window"
    tracer.spans = [
        layers.Span(1, name, 0.0, 10.0, None),
        # Two overlapping children (a pool fan-out) cover [2, 7] once.
        layers.Span(2, child, 2.0, 6.0, 1),
        layers.Span(3, child, 4.0, 7.0, 1),
    ]
    table = tracer.layer_table()
    assert table[f"{name}.calls"] == 1
    assert abs(table[f"{name}.self_ms"] - 5.0e3) < 1e-6
    assert table[f"{child}.calls"] == 2
    assert abs(table[f"{child}.self_ms"] - 7.0e3) < 1e-6


def test_wrapper_records_nesting_and_passes_results_through():
    tracer = layers.Tracer(run_id="test")
    inner = tracer.wrap("engine.executor.outcome", lambda x: x + 1)
    outer = tracer.wrap("service.shared_plan.execute_round", lambda x: inner(x) * 2)
    assert outer(1) == 4
    by_name = {span.name: span for span in tracer.spans}
    assert by_name["engine.executor.outcome"].parent == by_name[
        "service.shared_plan.execute_round"
    ].span_id
