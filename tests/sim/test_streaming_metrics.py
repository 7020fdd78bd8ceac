"""Streaming-metrics mode (``metrics_mode="streaming"``) against exact mode.

The scale-mode contract: streaming mode replaces the unbounded per-latency
lists with bounded-memory sketches while keeping every *counter* (committed,
restarts, distribution classes, window committed count) exactly equal to
exact mode, the mean latency exact, and every percentile within the
sketch's relative accuracy α.  Exact mode stays the default and is
untouched.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import SessionError, SimulationError
from repro.scheduling.admission import AdmissionLimits
from repro.session import Cluster, ClusterSpec, build_strategy
from repro.sim import LatencySketch
from repro.sim.metrics import SimulationResult
from repro.sim.simulator import SimulatorConfig
from repro.sim.sketch import RELATIVE_ACCURACY
from repro.workload import ClientCohortSource, Cohort, OpenLoopSource
from tests.conftest import trained

EXACT_COUNTERS = (
    "committed",
    "user_aborted",
    "restarts",
    "escalations",
    "undo_disabled",
    "early_prepared",
    "single_partition",
    "distributed",
    "rejected",
)

#: The percentiles the simulator reports.
REPORTED = (0.5, 0.95, 0.99)


def assert_within_alpha(exact: SimulationResult, streaming: SimulationResult) -> None:
    for q in REPORTED:
        reference = exact.latency_quantile(q)
        approx = streaming.latency_quantile(q)
        assert abs(approx - reference) <= RELATIVE_ACCURACY * reference * (1 + 1e-9), (
            q, reference, approx)


def _run(artifacts, benchmark: str, mode: str, *, txns: int = 500,
         workload=None) -> SimulationResult:
    """One session over the given artifacts (learning off for determinism)."""
    spec = ClusterSpec(
        benchmark=benchmark,
        num_partitions=4,
        trace_transactions=400,
        seed=11,
        learning=False,
        metrics_mode=mode,
        workload=workload,
    )
    strategy = build_strategy("houdini", artifacts)
    session = Cluster.open(spec, artifacts=artifacts, strategy=strategy)
    result = session.run_for(txns=txns)
    session.close()
    return result


def _twin_run(benchmark: str, mode: str) -> SimulationResult:
    """A run over a *private copy* of the trained artifacts, so two calls
    start from byte-identical database and model state — the shared
    session-scoped fixtures would not: each run mutates the benchmark
    database it executes against."""
    artifacts = trained(benchmark, 4, 400, 11)
    return _run(artifacts, benchmark, mode)


class TestModeValidation:
    def test_cluster_spec_rejects_unknown_mode(self):
        with pytest.raises(SessionError, match="metrics_mode"):
            ClusterSpec(benchmark="tatp", metrics_mode="approximate")

    def test_simulator_config_rejects_unknown_mode(self, tatp_artifacts):
        from repro.sim import ClusterSimulator

        bench = tatp_artifacts.benchmark
        strategy = build_strategy("oracle", tatp_artifacts)
        simulator = ClusterSimulator(
            bench.catalog, bench.database, bench.generator, strategy,
            config=SimulatorConfig(metrics_mode="bogus"),
        )
        with pytest.raises(SimulationError, match="metrics_mode"):
            simulator.begin()

    def test_spec_round_trips_the_mode(self):
        spec = ClusterSpec(benchmark="tatp", metrics_mode="streaming")
        data = spec.to_dict()
        assert data["metrics_mode"] == "streaming"
        assert ClusterSpec.from_dict(data).metrics_mode == "streaming"
        # Pre-scale-mode documents (no key) default to exact.
        del data["metrics_mode"]
        assert ClusterSpec.from_dict(data).metrics_mode == "exact"


@pytest.mark.parametrize("bench", ["tatp", "tpcc"])
class TestStreamingEqualsExact:
    _cache: dict = {}

    @pytest.fixture
    def runs(self, bench):
        # Cached by hand: a class-scoped fixture cannot depend on the
        # function-scoped parametrize value.
        if bench not in self._cache:
            self._cache[bench] = (
                _twin_run(bench, "exact"),
                _twin_run(bench, "streaming"),
            )
        return self._cache[bench]

    def test_counters_exactly_equal(self, runs, bench):
        exact, streaming = runs
        assert exact.metrics_mode == "exact"
        assert streaming.metrics_mode == "streaming"
        for name in EXACT_COUNTERS:
            assert getattr(exact, name) == getattr(streaming, name), name
        assert exact.simulated_duration_ms == streaming.simulated_duration_ms

    def test_mean_latency_exact(self, runs, bench):
        exact, streaming = runs
        assert streaming.average_latency_ms == pytest.approx(
            exact.average_latency_ms, rel=1e-12
        )

    def test_percentiles_within_relative_accuracy(self, runs, bench):
        assert_within_alpha(*runs)

    def test_window_throughput_close(self, runs, bench):
        # The warm-up boundary is interpolated within one histogram bucket,
        # so the windowed figures carry a tiny boundary error; totals stay
        # exact (asserted above).
        exact, streaming = runs
        assert streaming.window_committed == pytest.approx(
            exact.window_committed, abs=3
        )
        assert streaming.window_duration_ms == pytest.approx(
            exact.window_duration_ms, rel=0.01
        )
        assert streaming.throughput_txn_per_sec == pytest.approx(
            exact.throughput_txn_per_sec, rel=0.01
        )

    def test_streaming_result_carries_no_latency_list(self, runs, bench):
        _, streaming = runs
        assert streaming.latencies_ms == []
        assert isinstance(streaming.latency_sketch, LatencySketch)
        # Latency is recorded for every completion (committed + user abort).
        assert streaming.latency_sketch.count == (
            streaming.committed + streaming.user_aborted
        )

    def test_serialization_round_trip(self, runs, bench):
        _, streaming = runs
        data = streaming.to_dict()
        assert data["metrics_mode"] == "streaming"
        assert data["latencies_ms"] == []
        assert data["latency_summary"]["count"] == (
            streaming.committed + streaming.user_aborted
        )
        restored = SimulationResult.from_dict(json.loads(json.dumps(data)))
        assert restored.latency_sketch.to_dict() == streaming.latency_sketch.to_dict()
        for q in REPORTED:
            assert restored.latency_quantile(q) == streaming.latency_quantile(q)
        assert restored.average_latency_ms == streaming.average_latency_ms

    def test_exact_mode_serialization_unchanged(self, runs, bench):
        exact, _ = runs
        data = exact.to_dict()
        assert data["metrics_mode"] == "exact"
        assert data["latency_summary"] is None
        assert len(data["latencies_ms"]) == exact.committed + exact.user_aborted

    def test_scheduler_wait_summary_agrees(self, runs, bench):
        exact, streaming = runs
        if exact.scheduler_stats is None:
            pytest.skip("no scheduler stats recorded")
        a = exact.scheduler_stats.queue_wait_by_class
        b = streaming.scheduler_stats.queue_wait_by_class
        assert set(a) == set(b)
        for key in a:
            assert a[key]["count"] == b[key]["count"], key
            assert b[key]["mean_ms"] == pytest.approx(a[key]["mean_ms"], abs=1e-9)
            assert b[key]["max_ms"] == pytest.approx(a[key]["max_ms"], abs=1e-9)


class TestBurstyOpenLoopTail:
    """The ``smallbank_open_gated`` benchmark shape (16 partitions, a
    1500-transaction trace, 650 req/s in bursts of 8, shortest-predicted
    order, gated distributed admission) for 6 simulated seconds, exact vs
    streaming.  Its tail is where the earlier P² estimator strayed: it read
    p50 / p95 / p99 = 10.90 / 83.80 / 512.96 ms against exact 10.19 / 79.88
    / 198.36 ms.  The histogram stays within α of all three."""

    def test_percentiles_within_relative_accuracy(self):
        runs = []
        for mode in ("exact", "streaming"):
            artifacts = trained("smallbank", 16, 1500, 0)
            spec = ClusterSpec(
                benchmark="smallbank", num_partitions=16, trace_transactions=1500,
                seed=0, learning=False, model_provider="global", metrics_mode=mode,
                workload=OpenLoopSource(650.0, "bursty", seed=8, burst_size=8),
                policy="shortest-predicted",
                admission=AdmissionLimits(max_distributed_in_flight=2, max_deferrals=1024),
            )
            session = Cluster.open(
                spec, artifacts=artifacts, strategy=build_strategy("houdini", artifacts))
            runs.append(session.run_for(sim_seconds=6.0))
            session.close()
        exact, streaming = runs
        assert streaming.latency_sketch.count == len(exact.latencies_ms) > 3000
        assert_within_alpha(exact, streaming)


class TestStreamingTenants:
    def test_cohort_population_with_streaming_tenants(self, tatp_artifacts):
        workload = ClientCohortSource(
            [
                Cohort("casual", 90_000, rate_per_user_per_sec=0.004),
                Cohort("power", 10_000, rate_per_user_per_sec=0.02),
            ],
            seed=2,
        )
        result = _run(tatp_artifacts, "tatp", "streaming", txns=400,
                      workload=workload)
        assert set(result.tenants) == {"casual", "power"}
        total = 0
        for name, breakdown in result.tenants.items():
            assert breakdown.latency_sketch is not None
            assert breakdown.latency_sketch.count >= breakdown.committed
            assert breakdown.average_latency_ms > 0.0
            total += breakdown.total_transactions
        assert total == result.total_transactions
        # Every completion lands in one tenant's sketch and in the global
        # one, so the tenants' bucket counts add up to the global buckets.
        merged: dict[int, int] = {}
        for breakdown in result.tenants.values():
            for key, count in breakdown.latency_sketch.to_dict()["buckets"]:
                merged[key] = merged.get(key, 0) + count
        assert sorted(merged.items()) == [
            tuple(bucket) for bucket in result.latency_sketch.to_dict()["buckets"]]
        # Tenant breakdowns round-trip their sketches too, to the same bytes.
        data = result.to_dict()
        restored = SimulationResult.from_dict(json.loads(json.dumps(data)))
        again = restored.to_dict()
        assert json.dumps({**again, "derived": None}) == json.dumps({**data, "derived": None})
        for name in result.tenants:
            assert restored.tenants[name].average_latency_ms == pytest.approx(
                result.tenants[name].average_latency_ms
            )

    def test_exact_mode_cohorts_keep_latency_lists(self, tatp_artifacts):
        workload = ClientCohortSource(
            [Cohort("only", 1000, rate_per_user_per_sec=0.3)]
        )
        result = _run(tatp_artifacts, "tatp", "exact", txns=200,
                      workload=workload)
        breakdown = result.tenants["only"]
        assert breakdown.latency_sketch is None
        assert len(breakdown.latencies_ms) >= breakdown.committed
