"""Unit tests for the declarative workload-source hierarchy.

Covers the contracts the session layer builds on:

* strict validation (:class:`~repro.errors.WorkloadError` on the first bad
  parameter) for every source kind;
* ``to_dict`` / ``from_dict`` round-tripping, including nested tenant
  compositions and inline trace records;
* deterministic compilation — the same source compiles to the same arrival
  stream every time, and the three arrival processes preserve their
  long-run rate;
* trace replay timestamp semantics (embedded ``at_ms``, fallback gap,
  speedup rescaling, monotonic clamping);
* the recorder's arrival-time stamping.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import WorkloadError
from repro.types import ProcedureRequest
from repro.workload import (
    ClosedLoopSource,
    OpenLoopSource,
    TenantSource,
    TraceReplaySource,
    TransactionTraceRecord,
    WorkloadSource,
    WorkloadTrace,
    arrival_times,
)
from repro.workload.sources import CompileContext
from tests.workload.reference import arrival_gaps


# ----------------------------------------------------------------------
# A minimal compile context: sources under test draw requests from a stub
# benchmark, so these tests need no database.
# ----------------------------------------------------------------------
class _StubGenerator:
    benchmark = "stub"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._count = 0

    def next_request(self) -> ProcedureRequest:
        self._count += 1
        return ProcedureRequest("proc", (self.seed, self._count))


class _StubRng:
    def __init__(self, seed: int) -> None:
        self.seed = seed


class _StubBundle:
    @staticmethod
    def make_generator(catalog, config, rng) -> _StubGenerator:
        return _StubGenerator(rng.seed)


class _StubBenchmark:
    bundle = _StubBundle()
    catalog = None
    config = None


CTX = CompileContext(_StubBenchmark(), seed=0)


def _trace(count: int = 4, *, stamped: bool = False) -> WorkloadTrace:
    return WorkloadTrace([
        TransactionTraceRecord(
            txn_id=i + 1,
            procedure="proc",
            parameters=(i,),
            queries=(),
            at_ms=float(10 * i) if stamped else None,
        )
        for i in range(count)
    ])


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------
class TestValidation:
    def test_closed_loop_rejects_bad_values(self):
        with pytest.raises(WorkloadError, match="clients_per_partition"):
            ClosedLoopSource(clients_per_partition=0)
        with pytest.raises(WorkloadError, match="think_time_ms"):
            ClosedLoopSource(think_time_ms=-1.0)

    def test_open_loop_rejects_bad_values(self):
        with pytest.raises(WorkloadError, match="rate_per_sec"):
            OpenLoopSource(0.0)
        with pytest.raises(WorkloadError, match="arrival process"):
            OpenLoopSource(100.0, "fractal")
        with pytest.raises(WorkloadError, match="burst_size"):
            OpenLoopSource(100.0, "bursty", burst_size=0)
        with pytest.raises(WorkloadError, match="limit"):
            OpenLoopSource(100.0, limit=0)

    def test_trace_replay_needs_exactly_one_of_trace_or_path(self):
        with pytest.raises(WorkloadError, match="exactly one"):
            TraceReplaySource()
        with pytest.raises(WorkloadError, match="exactly one"):
            TraceReplaySource(_trace(), path="x.jsonl")
        with pytest.raises(WorkloadError, match="speedup"):
            TraceReplaySource(_trace(), speedup=0.0)

    def test_tenants_reject_closed_loops_and_empty_names(self):
        with pytest.raises(WorkloadError, match="at least one tenant"):
            TenantSource({})
        with pytest.raises(WorkloadError, match="closed-loop"):
            TenantSource({"a": ClosedLoopSource()})
        with pytest.raises(WorkloadError, match="non-empty"):
            TenantSource({"": OpenLoopSource(10.0)})

    def test_from_dict_rejects_unknown_kind(self):
        with pytest.raises(WorkloadError, match="unknown workload source kind"):
            WorkloadSource.from_dict({"kind": "telepathy"})
        with pytest.raises(WorkloadError, match="must be a mapping"):
            WorkloadSource.from_dict("open-loop")


# ----------------------------------------------------------------------
# Serialization round-trips
# ----------------------------------------------------------------------
class TestRoundTrip:
    @pytest.mark.parametrize("source", [
        ClosedLoopSource(clients_per_partition=2, think_time_ms=1.5),
        OpenLoopSource(250.0, "uniform", seed=9, burst_size=4, limit=100),
        TraceReplaySource(path="/tmp/t.jsonl", speedup=2.0, default_gap_ms=0.5),
        TenantSource({
            "replay": TraceReplaySource(path="/tmp/t.jsonl", speedup=2.0),
            "bursts": OpenLoopSource(200.0, "bursty", seed=2),
        }),
        TenantSource({
            "gold": OpenLoopSource(100.0, seed=1),
            "free": OpenLoopSource(10.0, seed=2),
        }),
    ])
    def test_to_dict_round_trips_and_is_json(self, source):
        data = source.to_dict()
        json.dumps(data)  # JSON-friendly
        rebuilt = WorkloadSource.from_dict(data)
        assert rebuilt == source
        assert rebuilt.to_dict() == data

    def test_in_memory_trace_serializes_inline(self):
        source = TraceReplaySource(_trace(3, stamped=True))
        data = source.to_dict()
        assert len(data["records"]) == 3
        rebuilt = WorkloadSource.from_dict(json.loads(json.dumps(data)))
        arrivals = rebuilt.compile(CTX).take(3)
        assert [a.at_ms for a in arrivals] == [0.0, 10.0, 20.0]


# ----------------------------------------------------------------------
# Compiled arrival streams
# ----------------------------------------------------------------------
class TestCompile:
    def test_closed_loop_compiles_to_an_empty_stream(self):
        compiled = ClosedLoopSource(2, 1.0).compile(CTX)
        assert compiled.peek() is None
        assert compiled.take(5) == []

    def test_open_loop_compilation_is_deterministic(self):
        source = OpenLoopSource(500.0, "poisson", seed=3)
        first = source.compile(CTX).take(50)
        second = source.compile(CTX).take(50)
        assert first == second
        assert all(a.at_ms > 0 for a in first)
        # Timestamps strictly increase and requests come from the source's
        # own generator stream.
        assert sorted(a.at_ms for a in first) == [a.at_ms for a in first]

    def test_uniform_is_a_metronome(self):
        arrivals = OpenLoopSource(100.0, "uniform").compile(CTX).take(5)
        assert [a.at_ms for a in arrivals] == pytest.approx([10.0, 20.0, 30.0, 40.0, 50.0])

    @pytest.mark.parametrize("process", ["poisson", "uniform", "bursty"])
    def test_processes_preserve_long_run_rate(self, process):
        times = arrival_times(process, 200.0, 2000, seed=7)
        observed = 2000 / (times[-1] / 1000.0)
        assert observed == pytest.approx(200.0, rel=0.1)

    def test_bursty_packs_then_pauses(self):
        gaps = arrival_gaps("bursty", 100.0, burst_size=4)
        first_cycle = [next(gaps) for _ in range(8)]
        # 4 arrivals at the packed gap, then the idle gap, then packed again.
        assert first_cycle[0] == pytest.approx(2.5)
        assert first_cycle[1] == pytest.approx(2.5)
        assert first_cycle[4] > first_cycle[1] * 5
        assert first_cycle[5] == pytest.approx(2.5)

    def test_take_until_respects_deadline_and_resumes(self):
        compiled = OpenLoopSource(1000.0, "uniform").compile(CTX)
        head = compiled.take_until(5.0)
        assert [a.at_ms for a in head] == pytest.approx([1.0, 2.0, 3.0, 4.0, 5.0])
        tail = compiled.take_until(7.0)
        assert [a.at_ms for a in tail] == pytest.approx([6.0, 7.0])
        assert compiled.emitted == 7

    def test_open_loop_limit_exhausts_the_stream(self):
        compiled = OpenLoopSource(100.0, limit=3).compile(CTX)
        assert len(compiled.take(10)) == 3
        assert compiled.peek() is None


class TestTraceReplayCompile:
    def test_stamped_records_replay_at_their_times(self):
        arrivals = TraceReplaySource(_trace(4, stamped=True)).compile(CTX).take(10)
        assert [a.at_ms for a in arrivals] == [0.0, 10.0, 20.0, 30.0]
        assert [a.request.parameters for a in arrivals] == [(0,), (1,), (2,), (3,)]

    def test_unstamped_records_use_the_default_gap(self):
        arrivals = TraceReplaySource(_trace(3), default_gap_ms=2.0).compile(CTX).take(10)
        assert [a.at_ms for a in arrivals] == [0.0, 2.0, 4.0]

    def test_speedup_rescales_time(self):
        arrivals = TraceReplaySource(_trace(4, stamped=True), speedup=2.0).compile(CTX).take(10)
        assert [a.at_ms for a in arrivals] == [0.0, 5.0, 10.0, 15.0]

    def test_out_of_order_timestamps_are_clamped_monotonic(self):
        trace = WorkloadTrace([
            TransactionTraceRecord(1, "proc", (0,), (), at_ms=10.0),
            TransactionTraceRecord(2, "proc", (1,), (), at_ms=4.0),
            TransactionTraceRecord(3, "proc", (2,), (), at_ms=12.0),
        ])
        arrivals = TraceReplaySource(trace).compile(CTX).take(10)
        assert [a.at_ms for a in arrivals] == [10.0, 10.0, 12.0]

    def test_limit_truncates_replay(self):
        arrivals = TraceReplaySource(_trace(4, stamped=True), limit=2).compile(CTX).take(10)
        assert len(arrivals) == 2

    def test_missing_trace_file_raises_workload_error(self, tmp_path):
        source = TraceReplaySource(path=str(tmp_path / "nowhere.jsonl"))
        with pytest.raises(WorkloadError, match="cannot read workload trace"):
            source.compile(CTX)


class TestTenantCompile:
    def test_merge_is_time_ordered_and_labeled(self):
        source = TenantSource({
            "slow": OpenLoopSource(100.0, "uniform"),
            "fast": OpenLoopSource(500.0, "uniform"),
        })
        arrivals = source.compile(CTX).take(12)
        assert [a.at_ms for a in arrivals] == sorted(a.at_ms for a in arrivals)
        by_tenant = {t: [a for a in arrivals if a.tenant == t] for t in ("slow", "fast")}
        assert len(by_tenant["fast"]) == 10  # 2ms gaps vs 10ms gaps
        assert len(by_tenant["slow"]) == 2
        # Declaration order breaks the t=10 tie deterministically.
        tied = [a.tenant for a in arrivals if a.at_ms == pytest.approx(10.0)]
        assert tied == ["slow", "fast"]

    def test_tenant_streams_draw_independent_generators(self):
        source = TenantSource({
            "a": OpenLoopSource(100.0, "uniform", seed=1),
            "b": OpenLoopSource(100.0, "uniform", seed=2),
        })
        arrivals = source.compile(CTX).take(6)
        seeds = {a.tenant: a.request.parameters[0] for a in arrivals}
        assert seeds["a"] != seeds["b"]

    def test_identical_twin_tenants_are_decorrelated_but_deterministic(self):
        """Two tenants declared with byte-identical sources must not submit
        byte-identical streams: each compiles under a seed derived from its
        name."""
        source = TenantSource({
            "a": OpenLoopSource(100.0, "poisson"),
            "b": OpenLoopSource(100.0, "poisson"),
        })
        arrivals = source.compile(CTX).take(20)
        times = {t: [a.at_ms for a in arrivals if a.tenant == t] for t in ("a", "b")}
        assert times["a"] != times["b"][:len(times["a"])]
        seeds = {a.tenant: a.request.parameters[0] for a in arrivals}
        assert seeds["a"] != seeds["b"]
        # Still deterministic across compiles.
        again = source.compile(CTX).take(20)
        assert again == arrivals


# ----------------------------------------------------------------------
# Trace timestamps: serialization + recorder stamping
# ----------------------------------------------------------------------
class TestTraceTimestamps:
    def test_at_ms_round_trips_through_json_lines(self, tmp_path):
        trace = _trace(3, stamped=True)
        path = tmp_path / "trace.jsonl"
        trace.save(path)
        loaded = WorkloadTrace.load(path)
        assert [r.at_ms for r in loaded] == [0.0, 10.0, 20.0]

    def test_unstamped_records_serialize_without_the_field(self):
        payload = _trace(1)[0].to_json()
        assert "at_ms" not in payload
        assert TransactionTraceRecord.from_json(payload).at_ms is None

    def test_recorder_stamps_arrival_times(self):
        from repro.session import ClusterSpec, train
        from repro.workload import TraceRecorder

        artifacts = train(ClusterSpec(
            benchmark="tatp", num_partitions=2, trace_transactions=60, seed=1
        ))
        instance = artifacts.benchmark
        recorder = TraceRecorder(
            instance.catalog, instance.database,
            base_partition_chooser=instance.generator.home_partition,
        )
        times = arrival_times("uniform", 1000.0, 10)
        trace = recorder.record(instance.generator.generate(10), arrival_times_ms=times)
        assert [r.at_ms for r in trace] == pytest.approx(times)
        plain = recorder.record(instance.generator.generate(3))
        assert all(r.at_ms is None for r in plain)
        # Too few timestamps is a contract violation, not a StopIteration.
        with pytest.raises(WorkloadError, match="ran out after 2"):
            recorder.record(
                instance.generator.generate(5), arrival_times_ms=[0.0, 1.0]
            )
