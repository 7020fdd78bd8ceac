"""Tests for the session-oriented cluster API (:mod:`repro.session`).

Covers the redesign's contracts:

* ``ClusterSpec`` — strict validation (unknown fields, out-of-range values),
  nested-config coercion and ``from_kwargs``/``to_dict`` round-tripping;
* determinism of mid-run ``reconfigure`` (same seed, same script → same
  result, byte for byte);
* the two scenarios the redesign exists for — a workload shift (generator
  swap without rebuilding the cluster) and a live scheduling-policy swap;
* session lifecycle (submit/step/drain/close) and
  ``SimulationResult.to_dict``/``from_dict`` stability.

Byte-equality between ``ClusterSession.run_for`` and the legacy greedy
driver is held by ``tests/sim/test_event_runtime.py``.
"""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.errors import SessionError
from repro.houdini import HoudiniConfig
from repro.scheduling import AdmissionLimits
from repro.scheduling.policies import ShortestPredictedFirstPolicy
from repro.session import Cluster, ClusterSession, ClusterSpec, build_houdini, build_strategy
from repro.sim import CostModel, SimulationResult
from repro.sim.sketch import CompletionLog
from repro.types import ProcedureRequest
from tests.conftest import trained
from tests.sim.reference_window import reference_window


def _assert_identical(new, old):
    assert new.latencies_ms == old.latencies_ms
    assert new.committed == old.committed
    assert new.user_aborted == old.user_aborted
    assert new.restarts == old.restarts
    assert new.escalations == old.escalations
    assert new.undo_disabled == old.undo_disabled
    assert new.early_prepared == old.early_prepared
    assert new.single_partition == old.single_partition
    assert new.distributed == old.distributed
    assert new.rejected == old.rejected
    assert new.simulated_duration_ms == old.simulated_duration_ms
    assert new.window_duration_ms == old.window_duration_ms
    assert new.window_committed == old.window_committed
    assert set(new.breakdowns) == set(old.breakdowns)
    for procedure, expected in old.breakdowns.items():
        actual = new.breakdowns[procedure]
        assert actual.transactions == expected.transactions
        assert actual.estimation_ms == expected.estimation_ms
        assert actual.planning_ms == expected.planning_ms
        assert actual.execution_ms == expected.execution_ms
        assert actual.coordination_ms == expected.coordination_ms
        assert actual.other_ms == expected.other_ms


# ----------------------------------------------------------------------
# ClusterSpec validation and round-tripping
# ----------------------------------------------------------------------
class TestClusterSpec:
    def test_defaults_validate(self):
        spec = ClusterSpec()
        assert spec.benchmark == "tpcc"
        assert spec.strategy == "houdini"

    def test_unknown_kwarg_rejected_with_suggestion(self):
        with pytest.raises(SessionError, match="num_partition.*did you mean.*num_partitions"):
            ClusterSpec.from_kwargs(num_partition=8)

    def test_unknown_kwarg_lists_valid_fields(self):
        with pytest.raises(SessionError, match="valid fields:.*benchmark"):
            ClusterSpec.from_kwargs(frobnicate=1)

    @pytest.mark.parametrize(
        "field,value,match",
        [
            ("benchmark", "sybase", "unknown benchmark"),
            ("strategy", "magic", "unknown strategy"),
            ("model_provider", "quantum", "unknown model_provider"),
            ("num_partitions", 0, "num_partitions"),
            ("trace_transactions", -5, "trace_transactions"),
            ("clients_per_partition", 0, "clients_per_partition"),
            ("warmup_fraction", 1.5, "warmup_fraction"),
            ("client_think_time_ms", -1.0, "client_think_time_ms"),
            ("policy", "random-order", "unknown scheduling policy"),
        ],
    )
    def test_out_of_range_values_rejected(self, field, value, match):
        with pytest.raises(SessionError, match=match):
            ClusterSpec.from_kwargs(**{field: value})

    def test_nested_dicts_coerced(self):
        spec = ClusterSpec.from_kwargs(
            houdini={"confidence_threshold": 0.7},
            admission={"max_in_flight": 8},
            cost_model={"redirect_ms": 2.0},
        )
        assert isinstance(spec.houdini, HoudiniConfig)
        assert spec.houdini.confidence_threshold == 0.7
        assert isinstance(spec.admission, AdmissionLimits)
        assert spec.admission.max_in_flight == 8
        assert isinstance(spec.cost_model, CostModel)
        assert spec.cost_model.redirect_ms == 2.0

    def test_nested_unknown_keys_rejected(self):
        with pytest.raises(SessionError, match="unknown admission field.*max_flights"):
            ClusterSpec.from_kwargs(admission={"max_flights": 3})
        with pytest.raises(SessionError, match="unknown houdini field"):
            ClusterSpec.from_kwargs(houdini={"confidence": 0.5})

    def test_nested_invalid_values_rejected(self):
        with pytest.raises(SessionError, match="invalid houdini configuration"):
            ClusterSpec.from_kwargs(houdini={"confidence_threshold": 3.0})

    def test_nested_wrong_type_names_the_field_and_its_range(self):
        # Was: "'<' not supported between instances of 'str' and 'int'".
        with pytest.raises(
            SessionError,
            match="invalid admission configuration: max_in_flight must be an "
                  "integer >= 1 or None, got '4'",
        ):
            ClusterSpec(admission={"max_in_flight": "4"})
        with pytest.raises(SessionError, match="cost_model must be a CostModel"):
            ClusterSpec(cost_model=0.5)

    def test_to_dict_round_trips(self):
        spec = ClusterSpec(
            benchmark="tatp",
            num_partitions=4,
            strategy="oracle",
            policy="shortest-predicted",
            admission=AdmissionLimits(max_in_flight=8),
            houdini=HoudiniConfig(confidence_threshold=0.3),
            cost_model=CostModel(redirect_ms=1.5),
        )
        rebuilt = ClusterSpec.from_dict(spec.to_dict())
        assert rebuilt == spec
        assert rebuilt.to_dict() == spec.to_dict()

    def test_to_dict_normalizes_policy_instances_to_names(self):
        spec = ClusterSpec(policy=ShortestPredictedFirstPolicy())
        assert spec.to_dict()["policy"] == "shortest-predicted"

    def test_open_rejects_spec_plus_kwargs(self):
        with pytest.raises(SessionError, match="not both"):
            Cluster.open(ClusterSpec(), benchmark="tatp")

    @pytest.mark.parametrize("backend", ["processes", "threads"])
    def test_inline_is_the_only_execution_backend(self, backend):
        with pytest.raises(SessionError, match="execution_backend"):
            ClusterSpec(execution_backend=backend)

    def test_execution_backend_round_trips(self):
        spec = ClusterSpec(benchmark="tatp", execution_backend="inline")
        assert spec.to_dict()["execution_backend"] == "inline"
        assert ClusterSpec.from_kwargs(**spec.to_dict()) == spec

    def test_no_field_sets_a_worker_count(self):
        assert [f.name for f in dataclasses.fields(ClusterSpec) if "worker" in f.name] == []


# ----------------------------------------------------------------------
# Reconfigure determinism and scenarios
# ----------------------------------------------------------------------
def _scripted_session(seed: int) -> SimulationResult:
    """One fixed mid-run reconfigure script (same seed → same bytes)."""
    artifacts = trained("smallbank", 4, 300, seed)
    session = Cluster.open(
        ClusterSpec(benchmark="smallbank", num_partitions=4, strategy="houdini",
                    seed=seed),
        artifacts=artifacts,
    )
    session.run_for(txns=100)
    session.reconfigure(
        policy="shortest-predicted",
        admission={"max_in_flight": 8, "max_deferrals": 256},
        estimate_caching=False,
    )
    session.run_for(txns=100)
    session.reconfigure(confidence_threshold=0.8, estimate_caching=True)
    session.run_for(txns=50)
    return session.close()


class TestReconfigure:
    def test_mid_run_reconfigure_is_deterministic(self):
        first = _scripted_session(seed=23)
        second = _scripted_session(seed=23)
        _assert_identical(first, second)
        assert first.total_transactions + first.rejected == 250

    def test_workload_shift_without_rebuilding_the_cluster(self):
        """The generator swaps mid-session; cluster, models and learned
        state survive."""
        from repro.benchmarks.tpcc import NewOrderOnlyGenerator
        from repro.workload import WorkloadRandom

        artifacts = trained("tpcc", 4, 300, 5)
        instance = artifacts.benchmark
        session = Cluster.open(
            ClusterSpec(benchmark="tpcc", num_partitions=4, strategy="houdini"),
            artifacts=artifacts,
        )
        session.run_for(txns=100)
        mixed = session.snapshot_metrics()
        assert len(mixed.breakdowns) > 1  # the full TPC-C mix ran

        coordinator = session.simulator.coordinator
        session.reconfigure(
            generator=NewOrderOnlyGenerator(
                instance.catalog, instance.config, WorkloadRandom(99)
            )
        )
        shifted = session.run_for(txns=100)
        assert shifted.total_transactions == 200
        # Same cluster: the coordinator and database were not rebuilt.
        assert session.simulator.coordinator is coordinator
        # The shifted phase contributed only NewOrder transactions.
        assert (
            shifted.breakdowns["neworder"].transactions
            > mixed.breakdowns["neworder"].transactions
        )
        for name, breakdown in shifted.breakdowns.items():
            if name != "neworder":
                assert breakdown.transactions == mixed.breakdowns[name].transactions
        session.close()

    def test_live_policy_swap(self):
        artifacts = trained("smallbank", 4, 300, 7)
        session = Cluster.open(
            ClusterSpec(benchmark="smallbank", num_partitions=4, strategy="houdini"),
            artifacts=artifacts,
        )
        session.run_for(txns=150)
        assert session.simulator.scheduler.policy.name == "fcfs"
        before = session.snapshot_metrics()
        assert before.scheduler_stats.reordered == 0

        session.reconfigure(policy="shortest-predicted")
        assert session.simulator.scheduler.policy.name == "shortest-predicted"
        after = session.run_for(txns=150)
        assert after.total_transactions == 300
        # The prediction-aware policy actually reorders the saturated queue,
        # and the scheduler stats stayed continuous across the swap.
        assert after.scheduler_stats.reordered > 0
        assert after.scheduler_stats.submitted == 300
        session.close()

    def test_admission_installed_mid_run_never_underflows(self):
        artifacts = trained("tatp", 4, 200, 3)
        session = Cluster.open(
            ClusterSpec(benchmark="tatp", num_partitions=4, strategy="oracle"),
            artifacts=artifacts,
        )
        session.run_for(txns=100)
        session.reconfigure(admission=AdmissionLimits(max_in_flight=4))
        result = session.run_for(txns=100)
        assert result.total_transactions + result.rejected == 200
        assert result.admission_stats is not None
        session.reconfigure(admission=None)
        final = session.close()
        assert final.admission_stats is None

    def test_cost_reconfigure_clears_caches(self):
        artifacts = trained("tatp", 4, 200, 3)
        session = Cluster.open(
            ClusterSpec(benchmark="tatp", num_partitions=4, strategy="houdini",
                        policy="shortest-predicted"),
            artifacts=artifacts,
        )
        session.run_for(txns=50)
        model = session.simulator.cost_model
        assert model._schedule_cache  # populated by the run
        session.reconfigure(cost={"redirect_ms": 3.0})
        assert model.redirect_ms == 3.0
        assert not model._schedule_cache
        assert not session.simulator.scheduler._cost_cache
        session.run_for(txns=50)
        session.close()

    def test_spec_embedded_configs_are_isolated_per_session(self):
        """Live reconfiguration must never leak into the spec (or into other
        sessions opened from it): the spec's cost model and HoudiniConfig
        are copied at open time."""
        artifacts = trained("tatp", 4, 200, 3)
        spec = ClusterSpec(
            benchmark="tatp", num_partitions=4, strategy="houdini",
            cost_model=CostModel(redirect_ms=1.0),
            houdini=HoudiniConfig(confidence_threshold=0.5),
        )
        session = Cluster.open(spec, artifacts=artifacts)
        session.reconfigure(cost={"redirect_ms": 9.0}, confidence_threshold=0.9)
        assert session.simulator.cost_model.redirect_ms == 9.0
        assert spec.cost_model.redirect_ms == 1.0
        assert spec.houdini.confidence_threshold == 0.5
        session.close()

    def test_cost_reconfigure_rejects_unknown_constant(self):
        session = Cluster.open(
            ClusterSpec(benchmark="tatp", num_partitions=2, trace_transactions=100,
                        strategy="oracle"),
        )
        with pytest.raises(SessionError, match="cost-model constant"):
            session.reconfigure(cost={"warp_factor_ms": 9.0})
        with pytest.raises(SessionError, match="cost-model constant"):
            session.reconfigure(cost={"redirect": 9.0})
        session.close()

    def test_houdini_reconfigure_requires_houdini_strategy(self):
        session = Cluster.open(
            ClusterSpec(benchmark="tatp", num_partitions=2, trace_transactions=100,
                        strategy="oracle"),
        )
        with pytest.raises(SessionError, match="Houdini-backed"):
            session.reconfigure(estimate_caching=False)
        session.close()

    def test_estimate_caching_toggle_routes_through_invalidation(self):
        artifacts = trained("tatp", 4, 200, 3)
        session = Cluster.open(
            ClusterSpec(benchmark="tatp", num_partitions=4, strategy="houdini"),
            artifacts=artifacts,
        )
        houdini = session.houdini
        assert houdini.estimate_cache is not None  # default on
        session.run_for(txns=50)
        session.reconfigure(estimate_caching=False)
        assert houdini.estimate_cache is None
        assert houdini.config.enable_estimate_caching is False
        session.reconfigure(estimate_caching=True)
        assert houdini.estimate_cache is not None
        assert len(houdini.estimate_cache) == 0  # fresh, not resurrected
        session.run_for(txns=50)
        session.close()

    def test_confidence_threshold_drops_memoized_decisions(self):
        artifacts = trained("tatp", 4, 200, 3)
        session = Cluster.open(
            ClusterSpec(benchmark="tatp", num_partitions=4, strategy="houdini"),
            artifacts=artifacts,
        )
        houdini = session.houdini
        session.run_for(txns=100)
        memo = houdini.estimate_cache
        assert len(memo) > 0  # walks and decisions memoized
        session.reconfigure(confidence_threshold=0.9)
        assert houdini.config.confidence_threshold == 0.9
        assert len(memo) == 0 and houdini.estimate_cache is memo
        with pytest.raises(SessionError, match="confidence_threshold"):
            session.reconfigure(confidence_threshold=1.5)
        session.close()


# ----------------------------------------------------------------------
# Session lifecycle
# ----------------------------------------------------------------------
class TestSessionLifecycle:
    def test_run_for_needs_exactly_one_dimension(self):
        session = Cluster.open(
            ClusterSpec(benchmark="tatp", num_partitions=2, trace_transactions=100,
                        strategy="oracle"),
        )
        with pytest.raises(SessionError, match="exactly one"):
            session.run_for()
        with pytest.raises(SessionError, match="exactly one"):
            session.run_for(txns=10, sim_seconds=1.0)
        session.close()

    def test_run_for_sim_seconds_advances_the_clock(self):
        artifacts = trained("tatp", 4, 200, 3)
        session = Cluster.open(
            ClusterSpec(benchmark="tatp", num_partitions=4, strategy="oracle"),
            artifacts=artifacts,
        )
        result = session.run_for(sim_seconds=0.05)
        assert session.now_ms == pytest.approx(50.0)
        assert result.total_transactions > 0
        # Time-bounded then budget-bounded phases compose.
        more = session.run_for(txns=50)
        assert more.total_transactions == result.total_transactions + 50
        session.close()

    def test_submit_injects_out_of_loop_requests(self):
        artifacts = trained("tatp", 4, 200, 3)
        session = Cluster.open(
            ClusterSpec(benchmark="tatp", num_partitions=4, strategy="houdini"),
            artifacts=artifacts,
        )
        request = artifacts.benchmark.generator.next_request()
        session.submit(ProcedureRequest(request.procedure, request.parameters))
        result = session.drain()
        # The injected request executed without consuming closed-loop budget.
        assert result.total_transactions == 1
        assert session.simulator.submitted == 0
        session.close()

    def test_external_submit_does_not_spawn_a_phantom_client(self):
        """An external completion must not re-arm a closed-loop client: the
        closed loop would otherwise gain a duplicate (or nonexistent) client
        for the rest of the session."""
        artifacts = trained("tatp", 4, 200, 3)
        session = Cluster.open(
            ClusterSpec(benchmark="tatp", num_partitions=4, strategy="oracle"),
            artifacts=artifacts,
        )
        request = artifacts.benchmark.generator.next_request()
        session.submit(ProcedureRequest(request.procedure, request.parameters, 999))
        result = session.run_for(txns=40)
        # Exactly budget + the one injection ran; the injected client id 999
        # never entered the closed loop.
        assert result.total_transactions == 41
        assert session.simulator.submitted == 40
        num_clients = session.simulator._num_clients
        parked = session.simulator._parked
        assert len(parked) == num_clients
        assert sorted(c for _, c in parked) == list(range(num_clients))
        session.close()

    def test_step_processes_single_events(self):
        artifacts = trained("tatp", 4, 200, 3)
        session = Cluster.open(
            ClusterSpec(benchmark="tatp", num_partitions=4, strategy="oracle",
                        clients_per_partition=1),
            artifacts=artifacts,
        )
        session.simulator.extend_budget(4)
        steps = 0
        while session.step():
            steps += 1
        assert steps > 0
        assert session.snapshot_metrics().total_transactions == 4
        session.close()

    def test_closed_session_rejects_everything(self):
        session = Cluster.open(
            ClusterSpec(benchmark="tatp", num_partitions=2, trace_transactions=100,
                        strategy="oracle"),
        )
        session.close()
        assert session.closed
        for call in (
            lambda: session.run_for(txns=1),
            lambda: session.snapshot_metrics(),
            lambda: session.drain(),
            lambda: session.reconfigure(policy=None),
            lambda: session.close(),
            lambda: session.step(),
        ):
            with pytest.raises(SessionError, match="closed"):
                call()

    def test_context_manager_closes(self):
        with Cluster.open(
            ClusterSpec(benchmark="tatp", num_partitions=2, trace_transactions=100,
                        strategy="oracle"),
        ) as session:
            session.run_for(txns=20)
        assert session.closed

    def test_context_manager_seals_without_draining_on_error(self):
        """An exception in the body must propagate unmasked; the session is
        sealed but the failed state is not driven further."""
        with pytest.raises(RuntimeError, match="boom"):
            with Cluster.open(
                ClusterSpec(benchmark="tatp", num_partitions=2,
                            trace_transactions=100, strategy="oracle"),
            ) as session:
                session.run_for(txns=10)
                raise RuntimeError("boom")
        assert session.closed
        # drain never ran: only the 10 driven transactions completed.
        assert len(session.simulator._completions) == 10

    def test_step_revives_parked_clients_after_budget_extension(self):
        artifacts = trained("tatp", 4, 200, 3)
        session = Cluster.open(
            ClusterSpec(benchmark="tatp", num_partitions=4, strategy="oracle"),
            artifacts=artifacts,
        )
        session.run_for(txns=20)  # quiesces: heap empty, clients parked
        assert not session.simulator.pending_events
        session.simulator.extend_budget(5)
        steps = 0
        while session.step():
            steps += 1
        assert steps > 0
        assert session.snapshot_metrics().total_transactions == 25
        session.close()

    def test_snapshot_is_repeatable_and_isolated(self):
        artifacts = trained("tatp", 4, 200, 3)
        session = Cluster.open(
            ClusterSpec(benchmark="tatp", num_partitions=4, strategy="oracle"),
            artifacts=artifacts,
        )
        session.run_for(txns=50)
        first = session.snapshot_metrics()
        second = session.snapshot_metrics()
        _assert_identical(first, second)
        # Snapshots own their latency lists: mutating one does not corrupt
        # the live accumulators.
        first.latencies_ms.clear()
        assert len(session.snapshot_metrics().latencies_ms) == 50
        session.close()

    def test_snapshot_stats_are_frozen_not_live(self):
        """Saved snapshots must keep the scheduler/admission counters of
        their moment; further driving must not mutate them retroactively."""
        artifacts = trained("tatp", 4, 200, 3)
        session = Cluster.open(
            ClusterSpec(benchmark="tatp", num_partitions=4, strategy="houdini",
                        admission={"max_in_flight": 8}),
            artifacts=artifacts,
        )
        first = session.run_for(txns=50)
        assert first.scheduler_stats.submitted == 50
        session.run_for(txns=50)
        assert first.scheduler_stats.submitted == 50  # unchanged
        assert first.admission_stats.admitted <= 50
        assert session.snapshot_metrics().scheduler_stats.submitted == 100
        session.close()

    def test_mode_switch_with_think_time_keeps_windows_sane(self, monkeypatch):
        """Fast-path folded completions left mid-heap by step() record at
        end+think; after a live policy swap the general loop's completions
        interleave.  Every snapshot equals the whole-log window; a snapshot
        that finds the log out of order sorts it in place once, and the
        snapshots after it scan only the completions recorded since."""
        sorts = []
        real_sort = list.sort
        monkeypatch.setattr(
            CompletionLog, "sort", lambda self, **kw: sorts.append(1) or real_sort(self, **kw)
        )
        session = Cluster.open(
            ClusterSpec(benchmark="tatp", num_partitions=4, strategy="houdini",
                        client_think_time_ms=1.5),
            artifacts=trained("tatp", 4, 200, 3),
        )
        session.simulator.extend_budget(60)
        for _ in range(40):  # partial fast-path drive leaves folded payloads
            session.step()
        session.reconfigure(policy="shortest-predicted")
        session.simulator.extend_budget(60)
        log = session.simulator._completions
        disordered = sorted_then_scanned = 0
        verified = log.ordered
        while any([session.step() for _ in range(5)]):
            recorded = list(log)
            out_of_order = recorded != sorted(recorded, key=lambda entry: entry[0])
            expected = reference_window(recorded, session.spec.warmup_fraction)
            scanned_from, sorts_before = log.ordered, len(sorts)
            result = session.snapshot_metrics()
            assert (result.simulated_duration_ms, result.window_duration_ms,
                    result.window_committed) == expected
            assert len(sorts) == sorts_before + out_of_order
            if not out_of_order:
                assert scanned_from == verified  # only the new tail was read
                sorted_then_scanned += disordered > 0
            disordered += out_of_order
            verified = log.ordered
            assert verified == len(log)
        assert result.total_transactions == 120
        assert disordered >= 1 and len(sorts) == disordered
        assert sorted_then_scanned >= 1
        session.close()

    def test_open_from_kwargs(self):
        session = Cluster.open(
            benchmark="tatp", num_partitions=2, trace_transactions=100,
            strategy="oracle",
        )
        assert isinstance(session, ClusterSession)
        result = session.run_for(txns=20)
        assert result.total_transactions == 20
        session.close()

    @pytest.mark.parametrize(
        "houdini",
        [HoudiniConfig(confidence_threshold=0.9), {"confidence_threshold": 0.9}],
        ids=["instance", "dict"],
    )
    def test_open_from_kwargs_sets_the_houdini_field(self, houdini):
        session = Cluster.open(
            benchmark="tatp", num_partitions=2, trace_transactions=100, houdini=houdini,
        )
        assert session.spec.houdini.confidence_threshold == 0.9
        assert session.houdini.config.confidence_threshold == 0.9
        assert session.run_for(txns=20).total_transactions == 20
        session.close()


class TestRunLengths:
    """A run length is checked like a declared field before the session
    moves: ``txns`` is an integer >= 0, ``sim_seconds`` and a schedule's
    ``at_ms`` are finite numbers >= 0.  Each of these hung (infinite or NaN
    lengths) or ran the wrong amount (``2.5`` transactions ran 3, a NaN
    schedule time applied its diff at 0) before the check."""

    @pytest.fixture()
    def session(self):
        session = Cluster.open(
            ClusterSpec(benchmark="tatp", num_partitions=2, trace_transactions=100,
                        strategy="oracle"),
            artifacts=trained("tatp", 2, 100, 0),
        )
        yield session
        assert session.now_ms == 0.0 and session.simulator.submitted == 0
        session.close()

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_sim_seconds_must_be_finite(self, session, value):
        with pytest.raises(SessionError, match=r"sim_seconds must be a finite number >= 0"):
            session.run_for(sim_seconds=value)

    @pytest.mark.parametrize("value", [math.inf, math.nan, 2.5])
    def test_txns_must_be_an_integer(self, session, value):
        with pytest.raises(SessionError, match=r"txns must be an integer >= 0"):
            session.run_for(txns=value)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_schedule_times_must_be_finite(self, session, value):
        with pytest.raises(SessionError, match=r"at_ms must be a finite number >= 0"):
            session.apply_schedule([(value, {"policy": "shortest-predicted"})])
        assert session.simulator.config.policy is None


#: Spec fields routing ``run_for(txns=...)`` through each event loop.
LOOPS = {"fast": {}, "gated-general": {"policy": "shortest-predicted"}}


class TestErrorsInsideAnAttempt:
    @pytest.mark.parametrize("loop", LOOPS)
    def test_an_error_raised_by_a_procedure_propagates_unchanged(self, loop):
        """Attempts run on the coordinator: a procedure that raises surfaces
        its own exception from ``run_for``, at the call that raised it."""
        artifacts = trained("tatp", 4, 150, 3)
        calls, boom = [], RuntimeError("boom inside a procedure")
        for procedure in artifacts.benchmark.catalog.procedures():
            def run(context, *parameters, _run=procedure.run):
                calls.append(procedure)
                if len(calls) == 200:
                    raise boom
                return _run(context, *parameters)
            procedure.run = run
        session = Cluster.open(
            ClusterSpec(benchmark="tatp", num_partitions=4, **LOOPS[loop]),
            artifacts=artifacts,
        )
        with pytest.raises(RuntimeError) as raised:
            session.run_for(txns=1000)
        assert raised.value is boom
        assert len(calls) == 200


class TestBuildHoudini:
    def test_callers_config_is_copied_not_changed(self):
        """AuctionMark disables CheckWinningBids: in the built Houdini's
        config, never in the caller's, which stays free to configure another
        benchmark or be reconfigured without touching the running Houdini."""
        config = HoudiniConfig(confidence_threshold=0.7)
        houdini = build_houdini(trained("auctionmark", 4, 200, 3), config=config)
        assert houdini.config is not config
        assert "CheckWinningBids" in houdini.config.disabled_procedures
        assert config == HoudiniConfig(confidence_threshold=0.7)
        houdini.reconfigure(confidence_threshold=0.2)
        assert config.confidence_threshold == 0.7


# ----------------------------------------------------------------------
# SimulationResult serialization
# ----------------------------------------------------------------------
class TestResultSerialization:
    def test_to_dict_from_dict_round_trip(self):
        spec = ClusterSpec(
            benchmark="smallbank", num_partitions=4, policy="shortest-predicted",
            admission=AdmissionLimits(max_in_flight=8, max_deferrals=256),
        )
        with Cluster.open(spec, artifacts=trained("smallbank", 4, 300, 7)) as session:
            result = session.run_for(txns=150)
        data = result.to_dict()
        rebuilt = SimulationResult.from_dict(data)
        _assert_identical(rebuilt, result)
        assert rebuilt.scheduler_stats == result.scheduler_stats
        assert rebuilt.admission_stats == result.admission_stats
        # to_dict is stable: a rebuilt result serializes identically.  The
        # derived block is recomputed (and its breakdown-summation order may
        # differ by float dust), so it is compared approximately.
        rebuilt_data = rebuilt.to_dict()
        derived, rebuilt_derived = data.pop("derived"), rebuilt_data.pop("derived")
        assert rebuilt_data == data
        assert rebuilt_derived == pytest.approx(derived)

    def test_to_dict_is_json_serializable(self):
        import json

        spec = ClusterSpec(benchmark="tatp", num_partitions=2, strategy="oracle")
        with Cluster.open(spec, artifacts=trained("tatp", 2, 120, 1)) as session:
            result = session.run_for(txns=60)
        encoded = json.dumps(result.to_dict())
        assert json.loads(encoded)["committed"] == result.committed
