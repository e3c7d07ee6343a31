"""Span tracer for the in-process per-layer run.

The traced run calls ``mdmtj.cli.main`` in this process. While
``instrument`` is active, each layer's public functions are replaced by
timing wrappers at every name they are called through: ``cli`` and
``variation`` import functions by name, ``sweep_domains`` calls
``margins.enumerate_levels`` and ``cli`` reaches the oracle through the
module. No file of the program changes.

A span holds name, start, end, parent span and job index. Spans stay in
memory until the run ends. A layer's time is the sum of its outermost spans
(a span nested in one of the same name is not counted twice); its self time
is each span's duration minus the spans directly under it.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Callable, Iterator

Counter = Callable[[tuple, dict, object], dict[str, int]]


def _count_reports(_args, _kwargs, report) -> dict[str, int]:
    return {
        "margins.enumerate_levels_calls": 1,
        "margins.classes_listed": sum(len(c.classes) for c in report.clusters),
        "margins.patterns_covered": sum(c.pattern_count for c in report.clusters),
    }


def _count_worst_case(_args, _kwargs, report) -> dict[str, int]:
    # four border conventions, each covering every pattern
    return {"margins.patterns_covered": 4 * sum(c.pattern_count for c in report.clusters)}


def _count_one(key: str) -> Counter:
    return lambda _args, _kwargs, _result: {key: 1}


def _count_offsets(args, kwargs, _result) -> dict[str, int]:
    offsets = args[2] if len(args) > 2 else kwargs["offsets"]
    return {"variation.offsets_evaluated": len(offsets)}


def _count_samples(_args, _kwargs, result) -> dict[str, int]:
    return {"variation.samples_drawn": len(result)}


# (span name, defining module, function, modules that call it by this name,
#  work counter)
TARGETS: tuple[tuple[str, str, str, tuple[str, ...], Counter | None], ...] = (
    ("cli.main", "cli", "main", ("cli",), None),
    ("characterization.load_config", "characterization", "load_config", ("cli",), None),
    ("network.pattern_resistance", "network", "pattern_resistance", ("cli",),
     _count_one("network.calls")),
    ("network.pattern_voltage", "network", "pattern_voltage", ("cli",),
     _count_one("network.calls")),
    ("margins.enumerate_levels", "margins", "enumerate_levels",
     ("cli", "margins", "variation"), _count_reports),
    ("margins.worst_case_levels", "margins", "worst_case_levels", ("cli",), _count_worst_case),
    ("margins.sweep_domains", "margins", "sweep_domains", ("cli",), None),
    ("margins.closed_form", "margins", "closed_form_min_margin", ("cli", "margins"), None),
    ("margins.closed_form", "margins", "closed_form_resistances", ("cli", "margins"), None),
    ("variation.offset_margin_report", "variation", "offset_margin_report", ("cli",), None),
    ("variation.monte_carlo_margins", "variation", "monte_carlo_margins", ("cli",), None),
    ("variation.min_margins_for_offsets", "variation", "min_margins_for_offsets",
     ("variation",), _count_offsets),
    ("variation.sample_offsets", "variation", "sample_offsets", ("variation",), _count_samples),
    ("oracle.brute_force_report", "oracle", "brute_force_report", ("oracle",), None),
    ("oracle.worst_case_brute_force", "oracle", "worst_case_brute_force", ("oracle",), None),
)


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    job: int


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.counters: dict[str, int] = {}
        self.job = -1
        self._stack: list[int] = []

    def wrap(self, name: str, function: Callable, counter: Counter | None) -> Callable:
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = Span(name, start, end, parent, self.job)
            if counter is not None:
                for key, amount in counter(args, kwargs, result).items():
                    self.counters[key] = self.counters.get(key, 0) + amount
            return result

        return traced

    def layer_times(self) -> tuple[dict[str, float], dict[str, float]]:
        """(total, self) seconds per span name over every recorded span."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for span in spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        total: dict[str, float] = {}
        own: dict[str, float] = {}
        for index, span in enumerate(spans):
            duration = span.end - span.start
            own[span.name] = own.get(span.name, 0.0) + duration - child_time[index]
            if not self._inside_same_name(index):
                total[span.name] = total.get(span.name, 0.0) + duration
        return total, own

    def _inside_same_name(self, index: int) -> bool:
        name = self.spans[index].name
        parent = self.spans[index].parent
        while parent is not None:
            if self.spans[parent].name == name:
                return True
            parent = self.spans[parent].parent
        return False

    def records(self) -> list[dict]:
        return [asdict(span) for span in self.spans]


@contextmanager
def instrument(tracer: Tracer) -> Iterator[None]:
    """Rebind every target to its traced wrapper; restore on exit."""
    modules = {
        name: importlib.import_module(f"mdmtj.{name}")
        for name in ("cli", "characterization", "margins", "network", "oracle", "variation")
    }
    saved = []
    try:
        for span_name, home, function, callers, counter in TARGETS:
            wrapper = tracer.wrap(span_name, getattr(modules[home], function), counter)
            for caller in callers:
                saved.append((modules[caller], function, getattr(modules[caller], function)))
                setattr(modules[caller], function, wrapper)
        yield
    finally:
        for module, function, original in reversed(saved):
            setattr(module, function, original)
