"""Streaming-metrics mode (``metrics_mode="streaming"``) against exact mode.

The scale-mode contract: streaming mode replaces the unbounded per-latency
lists with O(1)-memory sketches while keeping every *counter* (committed,
restarts, distribution classes, window committed count) exactly equal to
exact mode, the mean latency exact, and the tracked percentiles within the
sketch's documented relative-error bound.  Exact mode stays the default and
is untouched.
"""

from __future__ import annotations

import pytest

from repro import pipeline
from repro.errors import SessionError, SimulationError
from repro.session import Cluster, ClusterSpec
from repro.sim import LatencySketch
from repro.sim.metrics import SimulationResult
from repro.sim.simulator import SimulatorConfig
from repro.sim.sketch import QUANTILE_RTOL, TRACKED_QUANTILES
from repro.workload import ClientCohortSource, Cohort
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
    strategy = pipeline.make_strategy("houdini", artifacts)
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
        strategy = pipeline.make_strategy("oracle", tatp_artifacts)
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

    def test_percentiles_within_documented_bound(self, runs, bench):
        exact, streaming = runs
        for q in TRACKED_QUANTILES:
            reference = exact.latency_quantile(q)
            approx = streaming.latency_quantile(q)
            assert abs(approx - reference) <= QUANTILE_RTOL * reference, (q,)

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
        restored = SimulationResult.from_dict(data)
        assert restored.latency_quantile(0.95) == pytest.approx(
            streaming.latency_quantile(0.95)
        )
        assert restored.average_latency_ms == pytest.approx(
            streaming.average_latency_ms
        )

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
        # Tenant breakdowns round-trip their sketch summaries too.
        data = result.to_dict()
        restored = SimulationResult.from_dict(data)
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
