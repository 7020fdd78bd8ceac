"""Integration tests for workload sources driving cluster sessions.

The acceptance contracts of the workload-source redesign:

* a default (``workload=None``) spec and an explicit ``ClosedLoopSource``
  produce results byte-identical to the pre-source session path, across
  all four execution strategies on TATP and TPC-C;
* replaying a recorded TATP trace through ``TraceReplaySource`` is
  deterministic across repeated sessions and survives a mid-replay
  ``reconfigure``;
* a two-tenant ``TenantSource`` session reports per-tenant
  throughput/latency that sums to the global metrics;
* ``in_flight()`` exposes the unfinished transactions a paused
  ``run_for(sim_seconds=...)`` snapshot excludes;
* ``ClusterSpec.diff`` + ``apply_schedule`` replay scripted reconfigure
  schedules deterministically;
* the scheduler starvation metric (``queue_wait_by_class``) reaches
  ``SimulationResult.to_dict``.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.errors import SessionError
from repro.session import Cluster, ClusterSpec, build_strategy
from repro.sim import SimulationResult
from repro.workload import (
    ClosedLoopSource,
    OpenLoopSource,
    TenantSource,
    TraceRecorder,
    TraceReplaySource,
    arrival_times,
)
from tests.conftest import trained


def _result_bytes(result: SimulationResult) -> dict:
    """The full stable dict form (the byte-identity comparison unit)."""
    return result.to_dict()


# ----------------------------------------------------------------------
# Closed-loop byte-identity with the pre-source session path
# ----------------------------------------------------------------------
STRATEGIES = (
    "assume-distributed",
    "assume-single-partition",
    "oracle",
    "houdini",
)


class TestClosedLoopByteIdentity:
    @pytest.mark.parametrize("bench_name", ["tatp", "tpcc"])
    @pytest.mark.parametrize("strategy_name", STRATEGIES)
    def test_explicit_closed_loop_source_is_byte_identical(
        self, bench_name, strategy_name
    ):
        def run(workload):
            artifacts = trained(bench_name, 4, 200, 17)
            strategy = build_strategy(strategy_name, artifacts)
            session = Cluster.open(
                ClusterSpec(benchmark=bench_name, num_partitions=4, workload=workload),
                artifacts=artifacts, strategy=strategy,
            )
            result = session.run_for(txns=150)
            session.close()
            return result

        legacy = run(None)
        sourced = run(ClosedLoopSource())
        assert _result_bytes(sourced) == _result_bytes(legacy)

    def test_closed_loop_source_overrides_spec_client_knobs(self):
        spec = ClusterSpec(
            benchmark="tatp", num_partitions=2, trace_transactions=100,
            clients_per_partition=4,
            workload=ClosedLoopSource(clients_per_partition=1, think_time_ms=2.0),
        )
        config = spec.simulator_config()
        assert config.clients_per_partition == 1
        assert config.client_think_time_ms == 2.0
        assert config.open_loop is False

    def test_arrival_sources_run_open_loop(self):
        spec = ClusterSpec(
            benchmark="tatp", num_partitions=2, trace_transactions=100,
            workload=OpenLoopSource(100.0),
        )
        assert spec.simulator_config().open_loop is True


# ----------------------------------------------------------------------
# Spec integration
# ----------------------------------------------------------------------
class TestSpecWorkloadSection:
    def test_workload_round_trips_through_to_dict(self):
        spec = ClusterSpec(
            benchmark="tatp", num_partitions=4, strategy="oracle",
            workload=TenantSource({
                "gold": OpenLoopSource(1000.0, seed=1),
                "free": OpenLoopSource(200.0, "bursty", seed=2),
            }),
        )
        rebuilt = ClusterSpec.from_dict(spec.to_dict())
        assert rebuilt == spec
        assert rebuilt.to_dict() == spec.to_dict()

    def test_workload_dict_form_is_coerced(self):
        spec = ClusterSpec.from_kwargs(
            benchmark="tatp", num_partitions=2, trace_transactions=100,
            workload={"kind": "open-loop", "rate_per_sec": 50.0},
        )
        assert isinstance(spec.workload, OpenLoopSource)
        assert spec.workload.rate_per_sec == 50.0

    def test_invalid_workload_raises_session_error(self):
        with pytest.raises(SessionError, match="invalid workload source"):
            ClusterSpec.from_kwargs(
                benchmark="tatp", workload={"kind": "open-loop", "rate_per_sec": -1}
            )
        with pytest.raises(SessionError, match="unknown workload source kind"):
            ClusterSpec.from_kwargs(benchmark="tatp", workload={"kind": "psychic"})
        with pytest.raises(SessionError, match="workload must be"):
            ClusterSpec.from_kwargs(benchmark="tatp", workload=42)


# ----------------------------------------------------------------------
# Trace replay
# ----------------------------------------------------------------------
def _record_tatp_trace(tmp_path, count=120, rate=800.0):
    artifacts = trained("tatp", 4, 200, 3)
    instance = artifacts.benchmark
    recorder = TraceRecorder(
        instance.catalog, instance.database,
        base_partition_chooser=instance.generator.home_partition,
    )
    trace = recorder.record(
        instance.generator.generate(count),
        arrival_times_ms=arrival_times("poisson", rate, count, seed=11),
    )
    path = tmp_path / "tatp.jsonl"
    trace.save(path)
    return str(path)


class TestTraceReplay:
    def test_replay_is_deterministic_across_sessions(self, tmp_path):
        path = _record_tatp_trace(tmp_path)

        def replay():
            artifacts = trained("tatp", 4, 200, 3)
            session = Cluster.open(
                ClusterSpec(benchmark="tatp", num_partitions=4, strategy="houdini",
                            workload=TraceReplaySource(path=path)),
                artifacts=artifacts,
            )
            session.run_for(txns=200)
            return session.close()

        first, second = replay(), replay()
        assert first.total_transactions == 120
        assert _result_bytes(first) == _result_bytes(second)

    def test_replay_survives_mid_replay_reconfigure(self, tmp_path):
        path = _record_tatp_trace(tmp_path)

        def replay():
            artifacts = trained("tatp", 4, 200, 3)
            session = Cluster.open(
                ClusterSpec(benchmark="tatp", num_partitions=4, strategy="houdini",
                            workload=TraceReplaySource(path=path)),
                artifacts=artifacts,
            )
            session.run_for(txns=60)
            session.reconfigure(
                policy="shortest-predicted", admission={"max_in_flight": 8}
            )
            session.run_for(txns=60)
            return session.close()

        first, second = replay(), replay()
        assert first.total_transactions + first.rejected == 120
        assert _result_bytes(first) == _result_bytes(second)

    def test_replay_by_sim_seconds_pauses_mid_trace(self, tmp_path):
        path = _record_tatp_trace(tmp_path, count=100, rate=500.0)
        artifacts = trained("tatp", 4, 200, 3)
        session = Cluster.open(
            ClusterSpec(benchmark="tatp", num_partitions=4, strategy="oracle",
                        workload=TraceReplaySource(path=path)),
            artifacts=artifacts,
        )
        partial = session.run_for(sim_seconds=0.05)
        assert session.now_ms == pytest.approx(50.0)
        # ~25 of the 100 arrivals fall inside the first 50ms at 500/s.
        assert 0 < partial.total_transactions < 100
        final = session.close()
        # drain finishes injected work but pulls no further arrivals...
        assert final.total_transactions >= partial.total_transactions
        # ...and a further run_for picks the stream back up.
        assert final.total_transactions < 100


# ----------------------------------------------------------------------
# Multi-tenant streams
# ----------------------------------------------------------------------
class TestTenants:
    def _open_two_tenant_session(self):
        artifacts = trained("tatp", 4, 200, 3)
        spec = ClusterSpec(
            benchmark="tatp", num_partitions=4, strategy="oracle",
            workload=TenantSource({
                "gold": OpenLoopSource(1500.0, "poisson", seed=1),
                "free": OpenLoopSource(500.0, "bursty", seed=2),
            }),
        )
        return Cluster.open(spec, artifacts=artifacts)

    def test_per_tenant_metrics_sum_to_global(self):
        session = self._open_two_tenant_session()
        result = session.run_for(txns=400)
        assert set(result.tenants) == {"gold", "free"}
        assert sum(t.submitted for t in result.tenants.values()) == 400
        assert (
            sum(t.total_transactions for t in result.tenants.values())
            == result.total_transactions
        )
        assert (
            sum(t.committed for t in result.tenants.values()) == result.committed
        )
        assert sum(t.rejected for t in result.tenants.values()) == result.rejected
        # Latency lists concatenate (reordered) to the global list.
        merged = sorted(
            latency for t in result.tenants.values() for latency in t.latencies_ms
        )
        assert merged == sorted(result.latencies_ms)
        # Per-tenant throughputs share the global clock, so they sum to the
        # global full-duration rate.
        global_rate = 1000.0 * result.committed / result.simulated_duration_ms
        assert sum(
            t.throughput_txn_per_sec for t in result.tenants.values()
        ) == pytest.approx(global_rate)
        session.close()

    def test_snapshot_metrics_tenant_selector(self):
        session = self._open_two_tenant_session()
        session.run_for(txns=200)
        gold = session.snapshot_metrics(tenant="gold")
        assert gold.tenant == "gold"
        assert gold.submitted > 0
        with pytest.raises(SessionError, match="unknown tenant"):
            session.snapshot_metrics(tenant="platinum")
        session.close()

    def test_tenant_breakdowns_round_trip_to_dict(self):
        session = self._open_two_tenant_session()
        result = session.run_for(txns=200)
        session.close()
        rebuilt = SimulationResult.from_dict(result.to_dict())
        assert set(rebuilt.tenants) == set(result.tenants)
        for name, breakdown in result.tenants.items():
            other = rebuilt.tenants[name]
            assert other.submitted == breakdown.submitted
            assert other.committed == breakdown.committed
            assert other.latencies_ms == breakdown.latencies_ms
            assert other.duration_ms == breakdown.duration_ms

    def test_tenant_session_is_deterministic(self):
        first = self._open_two_tenant_session()
        a = first.run_for(txns=300)
        first.close()
        second = self._open_two_tenant_session()
        b = second.run_for(txns=300)
        second.close()
        assert _result_bytes(a) == _result_bytes(b)


# ----------------------------------------------------------------------
# In-flight introspection
# ----------------------------------------------------------------------
class TestInFlight:
    def test_paused_run_exposes_executing_and_queued_work(self):
        artifacts = trained("tatp", 4, 200, 3)
        session = Cluster.open(
            ClusterSpec(benchmark="tatp", num_partitions=4, strategy="oracle",
                        workload=OpenLoopSource(4000.0, "poisson", seed=5)),
            artifacts=artifacts,
        )
        session.run_for(sim_seconds=0.03)
        entries = session.in_flight()
        assert entries, "an overloaded open loop must leave work in flight"
        states = {entry.state for entry in entries}
        assert "executing" in states
        for entry in entries:
            assert entry.procedure
            assert entry.predicted_remaining_ms >= 0.0
            assert entry.submitted_at_ms <= session.now_ms
            if entry.state == "executing":
                assert entry.txn_id is not None
                assert entry.attempt >= 1
                assert entry.partitions
            payload = entry.to_dict()
            assert payload["state"] == entry.state
        # The snapshot's completion stream stops at the pause (counters are
        # dispatch-accounted); in_flight() is the view into that gap, and
        # draining closes it.
        snapshot = session.snapshot_metrics()
        assert snapshot.simulated_duration_ms <= session.now_ms
        final = session.drain()
        assert session.in_flight() == []
        assert final.simulated_duration_ms > snapshot.simulated_duration_ms
        assert final.total_transactions >= snapshot.total_transactions
        session.close()

    def test_closed_loop_quiesced_session_has_nothing_in_flight(self):
        session = Cluster.open(
            ClusterSpec(benchmark="tatp", num_partitions=2, trace_transactions=100,
                        strategy="oracle"),
        )
        session.run_for(txns=20)
        assert session.in_flight() == []
        session.close()

    def test_in_flight_rejected_on_closed_session(self):
        session = Cluster.open(
            ClusterSpec(benchmark="tatp", num_partitions=2, trace_transactions=100,
                        strategy="oracle"),
        )
        session.close()
        with pytest.raises(SessionError, match="closed"):
            session.in_flight()


# ----------------------------------------------------------------------
# Live workload switching
# ----------------------------------------------------------------------
class TestWorkloadReconfigure:
    def test_closed_to_open_to_closed(self):
        artifacts = trained("tatp", 4, 200, 3)
        session = Cluster.open(
            ClusterSpec(benchmark="tatp", num_partitions=4, strategy="oracle"),
            artifacts=artifacts,
        )
        closed_phase = session.run_for(txns=50)
        assert closed_phase.total_transactions == 50

        session.reconfigure(workload=OpenLoopSource(1000.0, "uniform", seed=4))
        open_phase = session.run_for(sim_seconds=0.05)
        assert open_phase.total_transactions == 100  # 50 + 50ms at 1000/s

        session.reconfigure(workload=ClosedLoopSource())
        final = session.run_for(txns=30)
        assert final.total_transactions == 130
        session.close()

    def test_dict_form_and_validation_errors(self):
        session = Cluster.open(
            ClusterSpec(benchmark="tatp", num_partitions=2, trace_transactions=100,
                        strategy="oracle"),
        )
        session.reconfigure(workload={"kind": "open-loop", "rate_per_sec": 100.0})
        assert isinstance(session.workload, OpenLoopSource)
        with pytest.raises(SessionError, match="unknown workload source kind"):
            session.reconfigure(workload={"kind": "psychic"})
        session.close()

    def test_live_client_population_change_is_rejected(self):
        """The client count is fixed at open time; a closed-loop source
        asking for a different population must fail loudly, not silently run
        at the old concurrency."""
        session = Cluster.open(
            ClusterSpec(benchmark="tatp", num_partitions=2, trace_transactions=100,
                        strategy="oracle", clients_per_partition=4),
        )
        with pytest.raises(SessionError, match="clients_per_partition"):
            session.reconfigure(workload=ClosedLoopSource(clients_per_partition=16))
        # The matching population (with a new think time) is fine.
        session.reconfigure(workload=ClosedLoopSource(4, think_time_ms=1.0))
        assert session.simulator.config.client_think_time_ms == 1.0
        session.close()

    def test_missing_replay_file_fails_as_session_open_error(self, tmp_path):
        with pytest.raises(SessionError, match="invalid workload source|cannot read"):
            spec = ClusterSpec(
                benchmark="tatp", num_partitions=2, trace_transactions=100,
                strategy="oracle",
                workload=TraceReplaySource(path=str(tmp_path / "missing.jsonl")),
            )
            session = Cluster.open(spec)
            session.close()

    def test_foreign_trace_is_refused_at_the_door(self, tmp_path):
        """A TATP trace offered to a TPC-C cluster fails at ``open`` /
        ``reconfigure`` — not inside the event loop after its arrivals were
        consumed — leaving the previous workload installed and the session
        drainable."""
        foreign = TraceReplaySource(path=_record_tatp_trace(tmp_path, count=20))
        artifacts = trained("tpcc", 2, 100, 0)
        spec = ClusterSpec(
            benchmark="tpcc", num_partitions=2, trace_transactions=100,
            strategy="oracle",
        )
        with pytest.raises(SessionError, match="invalid workload source.*'tpcc' benchmark"):
            Cluster.open(replace(spec, workload=foreign), artifacts=artifacts)
        session = Cluster.open(spec, artifacts=artifacts)
        installed = session.workload
        for source in (foreign, TenantSource({"guest": foreign})):
            with pytest.raises(SessionError, match="invalid workload source"):
                session.reconfigure(workload=source)
        assert session.workload is installed
        assert session.run_for(txns=20).total_transactions == 20
        assert session.close().total_transactions == 20


# ----------------------------------------------------------------------
# Spec-diff schedules
# ----------------------------------------------------------------------
class TestApplySchedule:
    BASE = dict(benchmark="smallbank", num_partitions=4, strategy="houdini", seed=23)

    def _diff(self):
        base = ClusterSpec(**self.BASE)
        target = ClusterSpec(
            **self.BASE,
            policy="shortest-predicted",
            admission={"max_in_flight": 8, "max_deferrals": 256},
            cost_model={"redirect_ms": 2.5},
            houdini={"confidence_threshold": 0.8},
        )
        return base.diff(target)

    def test_diff_reports_only_changed_fields(self):
        diff = self._diff()
        assert sorted(diff) == ["admission", "cost_model", "houdini", "policy"]
        assert diff["policy"] == "shortest-predicted"
        base = ClusterSpec(**self.BASE)
        assert base.diff(base) == {}

    def test_schedule_replay_is_deterministic(self):
        diff = self._diff()

        def run():
            artifacts = trained("smallbank", 4, 300, 23)
            session = Cluster.open(ClusterSpec(**self.BASE), artifacts=artifacts)
            session.run_for(txns=100)
            session.apply_schedule([(session.now_ms + 10.0, diff)])
            session.run_for(txns=100)
            return session.close()

        first, second = run(), run()
        assert _result_bytes(first) == _result_bytes(second)
        # The two txns=100 grants plus whatever the 10ms drive to the
        # schedule point submitted.
        assert first.total_transactions + first.rejected >= 200
        # The schedule really applied.
        assert first.scheduler_stats.reordered > 0
        assert first.admission_stats is not None

    def test_schedule_applies_at_simulated_times(self):
        artifacts = trained("tatp", 4, 200, 3)
        session = Cluster.open(
            ClusterSpec(benchmark="tatp", num_partitions=4, strategy="oracle"),
            artifacts=artifacts,
        )
        session.apply_schedule([
            (10.0, {"policy": "single-partition-first"}),
            (20.0, {"admission": {"max_in_flight": 4}}),
        ])
        assert session.now_ms == pytest.approx(20.0)
        assert session.simulator.scheduler.policy.name == "single-partition-first"
        assert session.simulator.admission is not None
        session.close()

    def test_non_reconfigurable_fields_rejected(self):
        session = Cluster.open(
            ClusterSpec(benchmark="tatp", num_partitions=2, trace_transactions=100,
                        strategy="oracle"),
        )
        with pytest.raises(SessionError, match="not live-reconfigurable"):
            session.apply_schedule([(1.0, {"num_partitions": 8})])
        with pytest.raises(SessionError, match="at_ms must be a finite number >= 0"):
            session.apply_schedule([(-1.0, {"policy": None})])
        session.close()

    def test_workload_diff_swaps_the_source(self):
        base = ClusterSpec(benchmark="tatp", num_partitions=4, strategy="oracle")
        target = ClusterSpec(
            benchmark="tatp", num_partitions=4, strategy="oracle",
            workload=OpenLoopSource(500.0, "uniform", seed=9),
        )
        artifacts = trained("tatp", 4, 200, 3)
        session = Cluster.open(base, artifacts=artifacts)
        session.run_for(txns=20)
        session.apply_schedule([(session.now_ms + 1.0, base.diff(target))])
        assert isinstance(session.workload, OpenLoopSource)
        result = session.run_for(sim_seconds=0.02)
        assert result.total_transactions > 20
        session.close()


# ----------------------------------------------------------------------
# Starvation metric
# ----------------------------------------------------------------------
class TestQueueWaitMetric:
    def test_waits_are_tracked_per_class_and_serialized(self):
        artifacts = trained("tatp", 4, 200, 3)
        session = Cluster.open(
            ClusterSpec(benchmark="tatp", num_partitions=4, strategy="houdini",
                        policy="shortest-predicted",
                        workload=OpenLoopSource(4000.0, "poisson", seed=5)),
            artifacts=artifacts,
        )
        result = session.run_for(txns=300)
        waits = result.scheduler_stats.queue_wait_by_class
        assert waits, "dispatches must record queue-wait ages"
        for entry in waits.values():
            assert entry["count"] > 0
            assert 0.0 <= entry["mean_ms"] <= entry["max_ms"]
            assert entry["p50_ms"] <= entry["p95_ms"] <= entry["p99_ms"] <= entry["max_ms"]
        # The overloaded open loop really queued work.
        assert result.scheduler_stats.max_queue_wait_ms > 0.0
        assert result.summary_row()["max_queue_wait_ms"] > 0.0
        # Serialization round-trip preserves the summary.
        rebuilt = SimulationResult.from_dict(result.to_dict())
        assert rebuilt.scheduler_stats.queue_wait_by_class == waits
        session.close()

    def test_fcfs_closed_loop_records_zero_waits(self):
        session = Cluster.open(
            ClusterSpec(benchmark="tatp", num_partitions=2, trace_transactions=100,
                        strategy="oracle"),
        )
        result = session.run_for(txns=40)
        waits = result.scheduler_stats.queue_wait_by_class
        assert sum(entry["count"] for entry in waits.values()) == 40
        assert result.scheduler_stats.max_queue_wait_ms == 0.0
        session.close()

    def test_snapshot_wait_stats_are_frozen(self):
        artifacts = trained("tatp", 4, 200, 3)
        session = Cluster.open(
            ClusterSpec(benchmark="tatp", num_partitions=4, strategy="oracle"),
            artifacts=artifacts,
        )
        first = session.run_for(txns=30)
        count = sum(
            e["count"] for e in first.scheduler_stats.queue_wait_by_class.values()
        )
        assert count == 30
        session.run_for(txns=30)
        again = sum(
            e["count"] for e in first.scheduler_stats.queue_wait_by_class.values()
        )
        assert again == 30  # the saved snapshot did not mutate
        session.close()
