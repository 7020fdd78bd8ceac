"""Tests for the event-driven simulator runtime.

The central contract: under the default FCFS configuration the event-driven
loop reproduces the legacy greedy driver's results *exactly* — same
latencies, same counters, same warm-up window, same per-procedure breakdowns
— while prediction-aware policies and admission control run inside the same
loop.  The legacy driver is preserved here verbatim as the reference
implementation.
"""

from __future__ import annotations

import pytest

from repro.scheduling import AdmissionLimits
from repro.session import Cluster, ClusterSpec, build_strategy
from repro.sim import ClusterSimulator, CostModel, SimulatorConfig
from repro.sim.metrics import SimulationResult
from repro.txn.coordinator import TransactionCoordinator
from repro.types import ProcedureRequest
from tests.conftest import trained


def legacy_run(catalog, database, generator, strategy, cost_model, config, benchmark_name,
               transactions):
    """The pre-event-loop greedy driver (verbatim reference port)."""
    num_partitions = catalog.num_partitions
    num_clients = max(1, config.clients_per_partition * num_partitions)
    partition_free = [0.0] * num_partitions
    client_ready = [0.0] * num_clients
    completions = []
    coordinator = TransactionCoordinator(catalog, database, strategy)
    result = SimulationResult(
        strategy=strategy.name, benchmark=benchmark_name,
        num_partitions=num_partitions, simulated_duration_ms=0.0,
    )
    for _ in range(transactions):
        client_id = min(range(num_clients), key=lambda c: client_ready[c])
        submit_time = client_ready[client_id]
        request = generator.next_request()
        request = ProcedureRequest(
            request.procedure, request.parameters,
            client_id, client_id % catalog.scheme.num_nodes,
        )
        record = coordinator.execute_transaction(request)
        clock = submit_time
        breakdown = result.breakdown_for(record.procedure)
        for attempt_index, (plan, attempt) in enumerate(zip(record.plans, record.attempts)):
            timing = cost_model.attempt_timing(plan, attempt, num_partitions)
            lock_set = list(plan.lock_set(num_partitions))
            ready = clock + plan.estimation_ms + timing.planning_ms
            start = max([ready] + [partition_free[p] for p in lock_set])
            for pid in lock_set:
                partition_free[pid] = start + timing.release_offsets[pid]
            stall = 0.0
            for pid in attempt.escalated_partitions:
                if pid not in lock_set:
                    acquire_at = max(start, partition_free[pid])
                    stall = max(stall, acquire_at - start)
                    partition_free[pid] = start + timing.total_ms + stall
            end = start + timing.total_ms + stall
            clock = end
            if attempt_index < len(record.attempts) - 1:
                clock += cost_model.redirect_ms
            breakdown.transactions += 1
            breakdown.estimation_ms += timing.estimation_ms
            breakdown.planning_ms += timing.planning_ms
            breakdown.execution_ms += timing.execution_ms
            breakdown.coordination_ms += timing.coordination_ms
            breakdown.other_ms += timing.setup_ms
        result.latencies_ms.append(clock - submit_time)
        completions.append((clock, record.committed))
        client_ready[client_id] = clock + config.client_think_time_ms
        if record.committed:
            result.committed += 1
        else:
            result.user_aborted += 1
        result.restarts += record.restarts
        result.escalations += sum(1 for a in record.attempts if a.escalated_partitions)
        if record.undo_disabled:
            result.undo_disabled += 1
        if record.early_prepared_partitions:
            result.early_prepared += 1
        if record.single_partitioned:
            result.single_partition += 1
        else:
            result.distributed += 1
    finished = sorted(completions)
    result.simulated_duration_ms = finished[-1][0]
    warmup_index = min(int(len(finished) * config.warmup_fraction), len(finished) - 1)
    warmup_time = finished[warmup_index][0] if warmup_index > 0 else 0.0
    window = finished[-1][0] - warmup_time
    if window <= 0:
        result.window_duration_ms = finished[-1][0]
        result.window_committed = sum(1 for _, c in finished if c)
    else:
        result.window_duration_ms = window
        result.window_committed = sum(1 for end, c in finished if c and end > warmup_time)
    return result


def session_run(bench_name, artifacts, strategy, txns, think=0.0):
    """``run_for(txns=txns)`` on a fresh session over ``artifacts``."""
    session = Cluster.open(
        ClusterSpec(benchmark=bench_name, num_partitions=4, client_think_time_ms=think),
        artifacts=artifacts, strategy=strategy,
    )
    result = session.run_for(txns=txns)
    session.close()
    return result


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


class TestLegacyEquivalence:
    @pytest.mark.parametrize(
        "bench_name,strategy_name,think",
        [
            ("tatp", "oracle", 0.0),
            ("tpcc", "houdini", 0.0),
            ("tatp", "assume-single-partition", 0.5),
        ],
    )
    def test_fcfs_metrics_identical_to_legacy_driver(self, bench_name, strategy_name, think):
        config = SimulatorConfig(client_think_time_ms=think)

        artifacts = trained(bench_name, 4, 300, 17)
        strategy = build_strategy(strategy_name, artifacts)
        new = session_run(bench_name, artifacts, strategy, 250, think)

        artifacts = trained(bench_name, 4, 300, 17)
        strategy = build_strategy(strategy_name, artifacts)
        old = legacy_run(
            artifacts.benchmark.catalog, artifacts.benchmark.database,
            artifacts.benchmark.generator, strategy,
            CostModel(), config, bench_name, 250,
        )
        _assert_identical(new, old)

    def test_completions_arrive_in_end_time_order(self):
        """The linear warm-up pass relies on event-ordered completions."""
        artifacts = trained("tpcc", 4, 300, 9)
        result = session_run("tpcc", artifacts, build_strategy("oracle", artifacts), 200)
        # The window derived by the linear pass must match a sort-based one.
        assert result.window_duration_ms > 0
        assert 0 < result.window_committed <= result.committed


class TestSessionLegacyEquivalence:
    """The session API's bar: ``ClusterSession.run_for`` must reproduce the
    original greedy driver (``legacy_run`` above) byte for byte."""

    @pytest.mark.parametrize(
        "bench_name,strategy_name,think",
        [
            ("tatp", "houdini", 0.0),
            ("tpcc", "oracle", 0.5),
        ],
    )
    def test_run_for_metrics_identical_to_legacy_driver(self, bench_name, strategy_name, think):
        config = SimulatorConfig(client_think_time_ms=think)

        artifacts = trained(bench_name, 4, 300, 17)
        strategy = build_strategy(strategy_name, artifacts)
        spec = ClusterSpec(
            benchmark=bench_name, num_partitions=4,
            client_think_time_ms=think,
        )
        session = Cluster.open(spec, artifacts=artifacts, strategy=strategy)
        new = session.run_for(txns=250)
        session.close()

        artifacts = trained(bench_name, 4, 300, 17)
        strategy = build_strategy(strategy_name, artifacts)
        old = legacy_run(
            artifacts.benchmark.catalog, artifacts.benchmark.database,
            artifacts.benchmark.generator, strategy,
            CostModel(), config, bench_name, 250,
        )
        _assert_identical(new, old)

    def test_whole_budget_matches_legacy_driver_and_later_calls_add_to_it(self):
        """Driving the core in slices quiesces between slices, so only an
        uninterrupted budget reproduces the greedy driver; a fresh session
        given the full budget at once must match it exactly."""
        def train():
            artifacts = trained("tatp", 4, 250, 11)
            return artifacts, build_strategy("oracle", artifacts)

        artifacts, strategy = train()
        batch = legacy_run(
            artifacts.benchmark.catalog, artifacts.benchmark.database,
            artifacts.benchmark.generator, strategy,
            CostModel(), SimulatorConfig(), "tatp", 200,
        )

        artifacts, strategy = train()
        session = Cluster.open(
            ClusterSpec(benchmark="tatp", num_partitions=4),
            artifacts=artifacts, strategy=strategy,
        )
        whole = session.run_for(txns=200)
        _assert_identical(whole, batch)
        # Further driving only adds to the cumulative accumulators.
        more = session.run_for(txns=50)
        assert more.total_transactions == 250
        session.close()


class TestFastLoopEqualsGeneralLoop:
    """``_run_fast`` is a host-time optimisation of ``_run_general`` for the
    ungated FCFS case (kept because folding it away cost ``tatp_closed`` more
    than 3%), never a second behaviour: the same legs driven through either
    loop must give the same snapshot bytes."""

    #: Deadline that routes a leg: only an unbounded one takes ``_run_fast``.
    DEADLINE = {"_run_fast": float("inf"), "_run_general": 1e15}

    @pytest.fixture()
    def entered(self, monkeypatch):
        """Names of the loop bodies entered, in order."""
        entered = []
        for name in self.DEADLINE:
            def spy(self, *args, _loop=getattr(ClusterSimulator, name), _name=name):
                entered.append(_name)
                return _loop(self, *args)
            monkeypatch.setattr(ClusterSimulator, name, spy)
        return entered

    def drive(self, entered, bench_name, think, txns, route, rekey_after=None):
        """Snapshot (and the simulator) after ``route``'s legs; the policy is
        re-keyed to a fresh FCFS after leg ``rekey_after``."""
        del entered[:]
        artifacts = trained(bench_name, 4, 300, 17)
        simulator = ClusterSimulator(
            artifacts.benchmark.catalog, artifacts.benchmark.database,
            artifacts.benchmark.generator, build_strategy("houdini", artifacts),
            config=SimulatorConfig(client_think_time_ms=think),
            benchmark_name=bench_name,
        )
        for leg, loop in enumerate(route):
            simulator.extend_budget(txns)
            simulator.run_until(deadline_ms=self.DEADLINE[loop])
            if leg == rekey_after:
                simulator.set_policy("fcfs")
        result = simulator.snapshot()
        assert entered == route
        assert result.total_transactions == txns * len(route)
        return result, simulator

    @pytest.mark.parametrize("think", [0.0, 0.5])
    @pytest.mark.parametrize("bench_name", ["tatp", "tpcc"])
    @pytest.mark.parametrize("txns,routes", [
        (400, [["_run_fast"], ["_run_general"]]),
        # Two legs, switching loops between them.
        (300, [["_run_fast", "_run_fast"], ["_run_fast", "_run_general"],
               ["_run_general", "_run_fast"]]),
    ])
    def test_same_legs_through_either_loop(self, entered, bench_name, think, txns, routes):
        snapshots = [
            self.drive(entered, bench_name, think, txns, route)[0].to_dict()
            for route in routes
        ]
        assert all(snapshot == snapshots[0] for snapshot in snapshots[1:])

    @pytest.mark.parametrize("bench_name, think", [("tatp", 0.0), ("tpcc", 0.5)])
    def test_fast_general_fast_with_a_rekey_between(self, entered, bench_name, think):
        """The pass-through loop counts transactions through the scheduler
        exactly as the general loop's submit / pop / zero wait does: arrival
        indexes, FIFO sequence and stats are one series across a switch of
        loops and a mid-run re-key."""
        routes = [
            ["_run_general", "_run_general", "_run_general"],
            ["_run_fast", "_run_general", "_run_fast"],
            ["_run_fast", "_run_fast", "_run_fast"],
        ]
        runs = [
            self.drive(entered, bench_name, think, 200, route, rekey_after=0)
            for route in routes
        ]
        reference, reference_simulator = runs[0]
        assert reference.scheduler_stats.dispatched == 600
        assert sum(
            entry["count"] for entry in reference.scheduler_stats.queue_wait_by_class.values()
        ) == 600
        for result, simulator in runs[1:]:
            assert result.to_dict() == reference.to_dict()
            assert result.scheduler_stats == reference.scheduler_stats
            for counter in ("_arrivals", "_sequence"):
                assert getattr(simulator.scheduler, counter) == getattr(
                    reference_simulator.scheduler, counter
                ) == 600

    def test_a_queue_filled_outside_the_loop_goes_to_the_general_loop(self, entered):
        """Nothing the event loops do leaves a transaction queued without a
        general event outstanding, but the scheduler is a public attribute:
        a queue that is not empty keeps the run off the pass-through loop,
        and the general loop drains it."""
        backlog = [ProcedureRequest.of("GetSubscriberData", (index,), client_id=index)
                   for index in (1, 2, 3)]

        def run(deadline):
            del entered[:]
            artifacts = trained("tatp", 4, 300, 17)
            simulator = ClusterSimulator(
                artifacts.benchmark.catalog, artifacts.benchmark.database,
                artifacts.benchmark.generator, build_strategy("houdini", artifacts),
                benchmark_name="tatp",
            )
            simulator.begin()
            for request in backlog:
                simulator.scheduler.submit(request)
            simulator.extend_budget(100)
            simulator.run_until(deadline_ms=deadline)
            assert len(simulator.scheduler) == 0
            assert simulator.scheduler.stats.dispatched == 100 + len(backlog)
            # The queue has drained: the next leg is pass-through again.
            simulator.extend_budget(50)
            simulator.run_until()
            return simulator.snapshot().to_dict(), list(entered)

        chosen, loops = run(self.DEADLINE["_run_fast"])
        assert loops == ["_run_general", "_run_fast"]
        forced, loops = run(self.DEADLINE["_run_general"])
        assert loops == ["_run_general", "_run_fast"]
        assert chosen == forced

    def test_gates_lifted_over_a_parked_backlog(self, entered):
        """A gated leg paused on a parked backlog, then FCFS without gates,
        then a ``txns=`` leg: the outstanding wake-ups keep that leg on the
        general loop, which drains the backlog; only then is the run
        pass-through again."""
        def run(deadline):
            del entered[:]
            session = Cluster.open(
                ClusterSpec(benchmark="tatp", num_partitions=4, learning=False,
                            policy="shortest-predicted"),
                artifacts=trained("tatp", 4, 300, 17),
            )
            simulator = session.simulator
            session.run_for(sim_seconds=0.02)
            assert simulator.scheduler.parked_partitions()
            backlog = len(simulator.scheduler)
            assert backlog > 4
            session.reconfigure(policy="fcfs")
            assert len(simulator.scheduler) == backlog
            submitted = simulator.submitted
            simulator.extend_budget(120)
            simulator.run_until(deadline_ms=deadline)
            assert len(simulator.scheduler) == 0
            assert simulator.scheduler.stats.dispatched == submitted + 120
            session.run_for(txns=60)
            loops = list(entered)
            return session.close().to_dict(), loops

        chosen, loops = run(self.DEADLINE["_run_fast"])
        assert loops == ["_run_general", "_run_general", "_run_fast"]
        forced, _ = run(self.DEADLINE["_run_general"])
        assert chosen == forced


def run_smallbank(**spec_fields):
    """300 closed-loop SmallBank transactions under Houdini, drained."""
    spec = ClusterSpec(benchmark="smallbank", num_partitions=4, **spec_fields)
    with Cluster.open(spec, artifacts=trained("smallbank", 4, 400, 5)) as session:
        return session.run_for(txns=300)


class TestSchedulingIntegration:
    @pytest.mark.parametrize("policy", ["shortest-predicted", "single-partition-first"])
    def test_policies_run_inside_the_event_loop(self, policy):
        result = run_smallbank(policy=policy)
        assert result.total_transactions == 300
        assert result.scheduler_stats is not None
        assert result.scheduler_stats.dispatched == 300
        # Prediction-aware policies actually reorder the saturated queue.
        assert result.scheduler_stats.reordered > 0

    def test_admission_control_is_exercised(self):
        result = run_smallbank(admission=AdmissionLimits(max_in_flight=4, max_deferrals=512))
        assert result.total_transactions == 300
        assert result.admission_stats is not None
        assert result.admission_stats.admitted == 300
        assert result.admission_stats.deferred > 0
        assert result.rejected == 0

    def test_admission_rejection_backs_the_client_off(self):
        result = run_smallbank(admission=AdmissionLimits(max_in_flight=2, max_deferrals=1))
        # Rejected requests consume a submission slot but never execute.
        assert result.rejected > 0
        assert result.total_transactions == 300 - result.rejected
        assert result.admission_stats.rejected == result.rejected

    def test_fcfs_with_policy_name_matches_default(self):
        def run(policy):
            spec = ClusterSpec(benchmark="tatp", num_partitions=4, strategy="oracle", policy=policy)
            with Cluster.open(spec, artifacts=trained("tatp", 4, 200, 13)) as session:
                return session.run_for(txns=150)

        _assert_identical(run("fcfs"), run(None))
