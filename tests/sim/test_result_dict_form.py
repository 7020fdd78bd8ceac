"""The result classes' dict forms, one field at a time.

``SimulationResult`` and what it nests (per-procedure and per-tenant
breakdowns, scheduler and admission counters, the streaming latency
summary), and ``InFlightTransaction``, are what ``simulate --json``, the
rerun digests and the benchmark baselines store.  The config classes' dict
forms are drawn and checked in ``tests/property/test_property_schema.py``;
the result classes are checked here, against one hand-built instance per
class in which no field holds its default.

Each field is its own case: the instance goes through ``to_dict`` -> JSON ->
``from_dict`` and that field must come back equal.  A field that ``to_dict``
leaves out, or that ``from_dict`` does not read, comes back as its default,
so its case fails and names it.  The values need not describe one
consistent run (a streaming result with exact latencies, say): the dict
form stores fields, it does not check invariants between them.

``TestMutationsAreCaught`` plants the two bugs a dict form is prone to and
shows that each fails exactly its own case: a sketch summary that leaves out
``min_ms`` (restored as 0.0), and a result that leaves out
``early_prepared``.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, fields, is_dataclass

import pytest

from repro import schema
from repro.errors import SimulationError
from repro.scheduling.admission import AdmissionStats
from repro.scheduling.scheduler import SchedulerStats
from repro.sim import (
    InFlightTransaction,
    LatencySketch,
    ProcedureBreakdown,
    SimulationResult,
    TenantBreakdown,
)
from repro.sim.sketch import TRACKED_QUANTILES


def _sketch() -> LatencySketch:
    sketch = LatencySketch()
    for value in (0.5, 1.25, 2.0, 8.0, 3.5, 0.75, 4.25):
        sketch.observe(value)
    return sketch


def _breakdown() -> ProcedureBreakdown:
    return ProcedureBreakdown(
        "neworder", transactions=3, estimation_ms=0.5, planning_ms=1.25,
        execution_ms=2.5, coordination_ms=0.75, other_ms=0.125,
    )


def _tenant() -> TenantBreakdown:
    return TenantBreakdown(
        "gold", submitted=9, committed=7, user_aborted=1, restarts=2, rejected=1,
        latencies_ms=[1.5, 2.25, 0.5], duration_ms=250.0, latency_sketch=_sketch(),
    )


def _scheduler_stats() -> SchedulerStats:
    return SchedulerStats(
        submitted=12, dispatched=10, reordered=3, requeued=4, rejected=1,
        queue_wait_by_class={"neworder": {"count": 10, "mean": 0.5, "max": 2.0}},
    )


def _admission_stats() -> AdmissionStats:
    return AdmissionStats(admitted=10, deferred=4, rejected=1)


def _in_flight() -> InFlightTransaction:
    return InFlightTransaction(
        state="executing", procedure="payment", tenant="gold", txn_id=41,
        attempt=2, partitions=(1, 3), submitted_at_ms=12.5,
        predicted_remaining_ms=3.25,
    )


def _result() -> SimulationResult:
    return SimulationResult(
        strategy="houdini", benchmark="tpcc", num_partitions=4,
        metrics_mode="streaming", simulated_duration_ms=1234.5, committed=40,
        user_aborted=3, restarts=5, escalations=2, undo_disabled=7,
        early_prepared=6, single_partition=30, distributed=13, rejected=1,
        window_committed=32, window_duration_ms=1000.25,
        latencies_ms=[1.5, 2.25, 0.5], latency_sketch=_sketch(),
        breakdowns={"neworder": _breakdown()},
        scheduler_stats=_scheduler_stats(), admission_stats=_admission_stats(),
        tenants={"gold": _tenant()},
        maintenance={"neworder": {"transitions_observed": 12, "recomputations": 1}},
        selftune={"swaps": 1, "retrains": 2},
        tenancy={"arrivals": {"gold": {"admitted": 9, "shed": 0}}},
    )


def _through_json(document: dict) -> dict:
    return json.loads(json.dumps(document))


def _carried(**nested) -> SimulationResult:
    """A result holding ``nested``, rebuilt from its dict form: the path the
    counter classes take (they have no dict form of their own)."""
    result = SimulationResult(strategy="oracle", benchmark="tatp", num_partitions=2,
                              **nested)
    return SimulationResult.from_dict(_through_json(result.to_dict()))


#: class -> (an instance with no field at its default, its round trip).
EXAMPLES = {
    SimulationResult: (_result, lambda r: SimulationResult.from_dict(
        _through_json(r.to_dict()))),
    ProcedureBreakdown: (_breakdown, lambda b: ProcedureBreakdown.from_dict(
        _through_json(b.to_dict()))),
    TenantBreakdown: (_tenant, lambda t: TenantBreakdown.from_dict(
        _through_json(t.to_dict()))),
    InFlightTransaction: (_in_flight, lambda e: InFlightTransaction.from_dict(
        _through_json(e.to_dict()))),
    SchedulerStats: (_scheduler_stats, lambda s: _carried(
        scheduler_stats=s).scheduler_stats),
    AdmissionStats: (_admission_stats, lambda a: _carried(
        admission_stats=a).admission_stats),
}

FIELDS = [(cls, f.name) for cls in EXAMPLES for f in fields(cls) if f.init]

#: What a restored sketch answers, per statistic its summary keeps.
SKETCH_READS = {
    "count": lambda s: s.count,
    "total": lambda s: s.total,
    "min": lambda s: s.min,
    "max": lambda s: s.max,
    **{f"p{round(q * 100)}": (lambda s, q=q: s.quantile(q)) for q in TRACKED_QUANTILES},
}


def _plain(value):
    """``value`` with every sketch replaced by what it answers and every
    dataclass by its fields (a sketch compares by identity)."""
    if isinstance(value, LatencySketch):
        return {name: read(value) for name, read in SKETCH_READS.items()}
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return value


def _default(f):
    if f.default_factory is not MISSING:
        return f.default_factory()
    return f.default


def check_field(cls, name: str) -> None:
    make, round_trip = EXAMPLES[cls]
    example = make()
    f = next(f for f in fields(cls) if f.name == name)
    if f.default is not MISSING or f.default_factory is not MISSING:
        assert _plain(getattr(example, name)) != _plain(_default(f)), (
            f"the {cls.__name__} example leaves {name} at its default")
    rebuilt = round_trip(example)
    assert _plain(getattr(rebuilt, name)) == _plain(getattr(example, name)), (
        f"{cls.__name__}.{name} did not survive the dict form")


def check_sketch(statistic: str) -> None:
    sketch = _sketch()
    rebuilt = LatencySketch.from_dict(_through_json(sketch.to_dict()))
    read = SKETCH_READS[statistic]
    assert read(rebuilt) == read(sketch), (
        f"the sketch's {statistic} did not survive its summary")


@pytest.mark.parametrize(
    "cls,name", FIELDS, ids=[f"{cls.__name__}.{name}" for cls, name in FIELDS])
def test_each_field_survives_the_dict_form(cls, name):
    check_field(cls, name)


@pytest.mark.parametrize("statistic", SKETCH_READS)
def test_each_summary_statistic_survives_the_sketch_dict_form(statistic):
    check_sketch(statistic)


def test_every_class_a_result_nests_is_checked():
    """A nested class added to the result's field table needs an example
    here, or its fields go unchecked."""
    nested = {
        rule["nested"] for cls in EXAMPLES for f in fields(cls)
        if (rule := schema.rule_of(cls, f.name)) and rule["nested"] is not None
    }
    assert nested <= set(EXAMPLES) | {LatencySketch}


# ----------------------------------------------------------------------
# Seeded mutations the cases must catch
# ----------------------------------------------------------------------
class TestMutationsAreCaught:
    def test_a_sketch_summary_without_its_minimum(self, monkeypatch):
        """``to_dict`` leaves ``min_ms`` out and ``from_dict`` reads it as
        0.0: the minimum's case fails, every other statistic still passes."""
        check_sketch("min")
        to_dict, from_dict = LatencySketch.to_dict, LatencySketch.from_dict.__func__

        def without_min(sketch):
            document = to_dict(sketch)
            del document["min_ms"]
            return document

        def min_defaults_to_zero(cls, data):
            return from_dict(cls, {"min_ms": 0.0, **data})

        monkeypatch.setattr(LatencySketch, "to_dict", without_min)
        monkeypatch.setattr(LatencySketch, "from_dict", classmethod(min_defaults_to_zero))
        with pytest.raises(AssertionError, match="min did not survive"):
            check_sketch("min")
        for statistic in SKETCH_READS:
            if statistic != "min":
                check_sketch(statistic)
        with pytest.raises(AssertionError, match="latency_sketch did not survive"):
            check_field(SimulationResult, "latency_sketch")

    def test_a_result_without_early_prepared(self, monkeypatch):
        """The key is left out, ``from_dict`` fills in the default 0: the
        field's case fails, its neighbours pass."""
        check_field(SimulationResult, "early_prepared")
        to_dict = SimulationResult.to_dict

        def without_early_prepared(result):
            document = to_dict(result)
            del document["early_prepared"]
            return document

        monkeypatch.setattr(SimulationResult, "to_dict", without_early_prepared)
        with pytest.raises(AssertionError, match="early_prepared did not survive"):
            check_field(SimulationResult, "early_prepared")
        check_field(SimulationResult, "undo_disabled")
        check_field(SimulationResult, "single_partition")


def test_a_malformed_sketch_summary_is_refused():
    document = _sketch().to_dict()
    del document["max_ms"]
    with pytest.raises(SimulationError, match="malformed latency summary"):
        LatencySketch.from_dict(document)
