"""Outside-in layer spans: wrap each layer's public methods, record nested spans.

The program under test is not edited.  :func:`instrument` swaps the public
methods listed in :data:`SPAN_POINTS` for recording wrappers *at class
level* (so instances created afterwards — and bound methods looked up
afterwards — go through them) and puts the original attributes back on
exit.  A span is ``(point, start, end, parent)``; a layer's self time is
its spans' duration minus the part their child spans cover, so the self
times of all layers add up to the root spans' duration exactly.

Spans stay in memory (flat arrays) while the run is timed and are written
out once, afterwards.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator


@dataclass(frozen=True)
class SpanPoint:
    """Methods of one class that belong to one layer.

    ``overriders`` wraps the methods on every subclass that defines them
    instead of on the class itself (the class only declares the interface).
    """

    layer: str
    module: str
    cls: str
    methods: tuple[str, ...]
    overriders: bool = False


#: The root span: one per driven segment.  Its self time is the event loop
#: (heap handling, ``_drain``, ``_replay_timing``): layer ``sim.simulator``.
ROOT_LAYER = "sim.simulator"

SPAN_POINTS: tuple[SpanPoint, ...] = (
    SpanPoint(ROOT_LAYER, "repro.session", "ClusterSession", ("run_for", "close")),
    SpanPoint("workload", "repro.workload.generator", "WorkloadGenerator",
              ("next_request",), overriders=True),
    SpanPoint("workload", "repro.workload.sources", "CompiledSource", ("take_until",)),
    SpanPoint("houdini.plan", "repro.strategies.houdini_strategy", "HoudiniStrategy",
              ("plan_initial", "plan_restart", "preview_estimate")),
    SpanPoint("houdini.monitor", "repro.strategies.houdini_strategy", "HoudiniStrategy",
              ("attempt_listeners",)),
    SpanPoint("houdini.learn", "repro.strategies.houdini_strategy", "HoudiniStrategy",
              ("on_transaction_complete",)),
    SpanPoint("scheduling", "repro.scheduling.scheduler", "TransactionScheduler",
              ("submit", "pop", "requeue", "resubmit")),
    SpanPoint("scheduling", "repro.scheduling.admission", "AdmissionController",
              ("decide",)),
    SpanPoint("tenancy", "repro.tenancy.scheduler", "TenantScheduler",
              ("pop", "requeue", "resubmit", "note_dispatched")),
    SpanPoint("tenancy", "repro.tenancy.manager", "TenancyManager", ("should_shed",)),
    SpanPoint("tenancy", "repro.tenancy.quota", "TenantQuotaController",
              ("would_admit", "admit")),
    SpanPoint("txn", "repro.txn.coordinator", "TransactionCoordinator",
              ("execute_transaction",)),
    SpanPoint("engine", "repro.engine.engine", "ExecutionEngine", ("execute_attempt",)),
    SpanPoint("engine", "repro.engine.executor", "StatementExecutor", ("execute",)),
    SpanPoint("storage", "repro.storage.heap", "RowHeap",
              ("insert", "update", "delete", "select", "find", "pk_rows")),
    SpanPoint("sim.cost_model", "repro.sim.cost_model", "CostModel",
              ("attempt_timing", "attempt_timings")),
    SpanPoint("sim.metrics", "repro.sim.simulator", "ClusterSimulator", ("snapshot",)),
)

#: Every layer, in the order a transaction crosses them.
LAYERS: tuple[str, ...] = tuple(dict.fromkeys(
    [point.layer for point in SPAN_POINTS if point.layer != ROOT_LAYER] + [ROOT_LAYER]
))


class SpanRecorder:
    """Flat in-memory span store; records only while :attr:`active`."""

    def __init__(self) -> None:
        self.active = False
        #: ``"Class.method"`` and layer of each wrapped target, by target id.
        self.targets: list[tuple[str, str]] = []
        self.target_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self._current = -1

    def __len__(self) -> int:
        return len(self.starts)

    def add_target(self, name: str, layer: str) -> int:
        self.targets.append((name, layer))
        return len(self.targets) - 1

    def wrap(self, function, target_id: int):
        """A recording stand-in for ``function``."""
        recorder = self
        clock = time.perf_counter
        target_ids, starts, ends, parents = (
            self.target_ids, self.starts, self.ends, self.parents
        )

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not recorder.active:
                return function(*args, **kwargs)
            index = len(starts)
            parent = recorder._current
            recorder._current = index
            target_ids.append(target_id)
            parents.append(parent)
            ends.append(0.0)
            starts.append(clock())
            try:
                return function(*args, **kwargs)
            finally:
                ends[index] = clock()
                recorder._current = parent

        return traced

    # ------------------------------------------------------------------
    def self_times(self) -> list[float]:
        """Per span: duration minus the time its direct children cover."""
        starts, ends, parents = self.starts, self.ends, self.parents
        own = [ends[i] - starts[i] for i in range(len(starts))]
        for i, parent in enumerate(parents):
            if parent >= 0:
                own[parent] -= ends[i] - starts[i]
        return own

    def by_layer(self) -> dict:
        """``{"layers": {layer: {"calls", "self_s"}}, "calls": {target: n},
        "root_s": ...}``: calls and self time per layer, calls per
        ``"Class.method"`` target, and the summed duration of the root
        (parentless) spans, which the self times add up to."""
        own = self.self_times()
        layers = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        calls = {name: 0 for name, _ in self.targets}
        root_s = 0.0
        for i, target_id in enumerate(self.target_ids):
            name, layer = self.targets[target_id]
            calls[name] += 1
            entry = layers[layer]
            entry["calls"] += 1
            entry["self_s"] += own[i]
            if self.parents[i] < 0:
                root_s += self.ends[i] - self.starts[i]
        return {"layers": layers, "calls": calls, "root_s": root_s}

    def write(self, path: Path, *, limit: int) -> None:
        """Write the span table (first ``limit`` spans) as JSON."""
        count = min(limit, len(self.starts))
        origin = self.starts[0] if count else 0.0
        document = {
            "targets": [{"name": n, "layer": layer} for n, layer in self.targets],
            "total_spans": len(self.starts),
            "columns": ["target", "start_us", "end_us", "parent"],
            "spans": [
                [self.target_ids[i], round(1e6 * (self.starts[i] - origin), 1),
                 round(1e6 * (self.ends[i] - origin), 1), self.parents[i]]
                for i in range(count)
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(document, separators=(",", ":")), encoding="utf-8")


def _subclasses(cls: type) -> Iterator[type]:
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def resolve(point: SpanPoint) -> list[tuple[type, str]]:
    """The ``(class, method)`` pairs a span point wraps."""
    cls = getattr(importlib.import_module(point.module), point.cls)
    owners = list(_subclasses(cls)) if point.overriders else [cls]
    pairs = []
    for owner in owners:
        for method in point.methods:
            if method in vars(owner):
                pairs.append((owner, method))
            elif not point.overriders:
                raise AttributeError(
                    f"span point {point.module}.{point.cls}.{method} is not "
                    f"defined on the class; update SPAN_POINTS"
                )
    return pairs


@contextmanager
def instrument(recorder: SpanRecorder, points: tuple[SpanPoint, ...] = SPAN_POINTS):
    """Wrap every span point at class level; restore the originals on exit."""
    saved: list[tuple[type, str, object]] = []
    try:
        for point in points:
            for owner, method in resolve(point):
                original = vars(owner)[method]
                target_id = recorder.add_target(f"{owner.__name__}.{method}", point.layer)
                saved.append((owner, method, original))
                setattr(owner, method, recorder.wrap(original, target_id))
        yield recorder
    finally:
        for owner, method, original in reversed(saved):
            setattr(owner, method, original)
