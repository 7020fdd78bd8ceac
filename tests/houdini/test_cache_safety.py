"""Cache-safety tests for the default-on plan memo (§6.3).

Two properties keep default-on memoization honest:

* a memoized plan must be *byte-equal* to a freshly computed one — for every
  procedure of TATP, SmallBank and TPC-C, planning with the memo and
  planning without it must produce identical optimization decisions and
  identical charged estimation costs (``tests/property/
  test_property_plan_memo.py`` holds the same under generated interleavings
  of learning, maintenance, swaps and reconfiguration);
* model maintenance must invalidate exactly the recomputed procedure's
  entries, leaving every other procedure's memoized walks alone.
"""

from __future__ import annotations

import pickle

import pytest

from repro.engine.engine import AttemptOutcome, AttemptResult
from repro.houdini import Houdini, HoudiniConfig
from repro.session import Cluster, ClusterSpec, train
from repro.types import PartitionSet, ProcedureRequest


def _make_houdini(artifacts, *, caching: bool, learning: bool = False) -> Houdini:
    return Houdini(
        artifacts.benchmark.catalog,
        artifacts.global_provider(),
        artifacts.mappings,
        HoudiniConfig(enable_estimate_caching=caching),
        learning=learning,
    )


def _decision_bytes(decision) -> bytes:
    return pickle.dumps(
        (
            decision.base_partition,
            decision.locked_partitions,
            decision.predicted_single_partition,
            decision.disable_undo,
            sorted(decision.finish_after_query.items()),
            decision.abort_probability,
            decision.confidence,
            decision.op1_selected,
            decision.op2_selected,
            decision.support_limited,
        )
    )


@pytest.fixture(scope="module")
def smallbank_artifacts():
    return train(ClusterSpec(
        benchmark="smallbank", num_partitions=4, trace_transactions=600, seed=11
    ))


class TestCachedDecisionEquality:
    @pytest.mark.parametrize(
        "fixture", ["tatp_artifacts", "smallbank_artifacts", "tpcc_artifacts"]
    )
    def test_cached_plans_byte_equal_fresh_plans(self, fixture, request):
        """Property: for every procedure in the workload, a plan served from
        the memo is byte-identical (decision and charged cost) to one
        planned from scratch."""
        artifacts = request.getfixturevalue(fixture)
        cached = _make_houdini(artifacts, caching=True)
        fresh = _make_houdini(artifacts, caching=False)
        generator = artifacts.benchmark.generator
        hits_by_procedure: dict[str, int] = {}
        for _ in range(500):
            req = generator.next_request()
            a = cached.plan(req)
            b = fresh.plan(req)
            assert _decision_bytes(a.decision) == _decision_bytes(b.decision), (
                f"{req.procedure}{req.parameters} diverged"
            )
            assert a.plan.estimation_ms == b.plan.estimation_ms
            if a.plan.source == "houdini:cached":
                hits_by_procedure[req.procedure] = (
                    hits_by_procedure.get(req.procedure, 0) + 1
                )
        # Every always-single-partition procedure the workload exercised must
        # actually have been served from the memo at least once (otherwise
        # the property above holds vacuously).
        assert cached.estimate_cache.stats.hits > 0
        eligible_procedures = {
            key[0]
            for key, entry in cached.estimate_cache._entries.items()
            if entry.eligible
        }
        assert eligible_procedures
        for procedure in eligible_procedures:
            assert hits_by_procedure.get(procedure, 0) > 0, (
                f"{procedure} was memoized but never served"
            )

    def test_payment_by_id_and_by_name_equal_fresh_plans(self, tpcc_artifacts):
        """TPC-C payment by id and by name share a binding signature (the
        walk never reads the customer id): whichever the memo serves must
        equal what a fresh walk decides."""
        houdini = _make_houdini(tpcc_artifacts, caching=True)
        fresh = _make_houdini(tpcc_artifacts, caching=False)
        by_id = ProcedureRequest.of("payment", (0, 0, 0, 0, 1, 5.0))
        by_name = ProcedureRequest.of("payment", (0, 0, 0, 0, None, 5.0))
        for req in (by_id, by_name, by_id, by_name):
            a = houdini.plan(req)
            b = fresh.plan(req)
            assert _decision_bytes(a.decision) == _decision_bytes(b.decision)
            assert a.plan.estimation_ms == b.plan.estimation_ms


class TestSimulatedMetricEquivalence:
    @pytest.mark.parametrize("learning", [False, True])
    def test_simulation_is_byte_identical_with_and_without_cache(self, learning):
        """Default-on caching must be invisible to the simulator: every
        simulated metric — throughput, counters, latencies, per-procedure
        breakdowns — is identical with the cache on and off."""
        from repro.strategies import HoudiniStrategy

        def run(caching: bool):
            # Fresh artifacts per run: the generator is stateful and, in
            # learning mode, the models mutate — both sides must start from
            # an identical, identically-seeded world.
            spec = ClusterSpec(
                benchmark="tatp", num_partitions=4, trace_transactions=600, seed=11
            )
            artifacts = train(spec)
            houdini = _make_houdini(artifacts, caching=caching, learning=learning)
            strategy = HoudiniStrategy(houdini)
            with Cluster.open(spec, artifacts=artifacts, strategy=strategy) as session:
                return session.run_for(txns=300)

        on, off = run(True), run(False)
        assert on.throughput_txn_per_sec == off.throughput_txn_per_sec
        assert on.simulated_duration_ms == off.simulated_duration_ms
        assert (on.committed, on.user_aborted, on.restarts, on.escalations) == (
            off.committed, off.user_aborted, off.restarts, off.escalations
        )
        assert (on.undo_disabled, on.early_prepared) == (
            off.undo_disabled, off.early_prepared
        )
        assert (on.single_partition, on.distributed) == (
            off.single_partition, off.distributed
        )
        assert on.latencies_ms == off.latencies_ms
        assert set(on.breakdowns) == set(off.breakdowns)
        for procedure, breakdown in on.breakdowns.items():
            assert breakdown.__dict__ == off.breakdowns[procedure].__dict__


class TestMaintenanceInvalidation:
    def _attempt_without_queries(self, houdini, request) -> None:
        """Plan + complete one zero-query attempt: the observed begin→commit
        transitions drift away from the model."""
        plan = houdini.plan(request)
        attempt = AttemptResult(
            outcome=AttemptOutcome.COMMITTED,
            procedure=request.procedure,
            parameters=request.parameters,
            base_partition=plan.decision.base_partition,
            touched_partitions=PartitionSet.of([plan.decision.base_partition]),
        )
        houdini.after_attempt(request, plan, attempt)

    def test_recompute_invalidates_exactly_that_procedure(self, tatp_artifacts):
        houdini = _make_houdini(tatp_artifacts, caching=True, learning=True)
        houdini._maintenance_interval = 1  # check drift after every attempt
        cache = houdini.estimate_cache
        # Memoize a procedure that will NOT drift, and one that will.
        keep = ProcedureRequest.of("GetAccessData", (3, 1))
        drifted = ProcedureRequest.of("GetSubscriberData", (5,))
        houdini.plan(keep)
        houdini.plan(drifted)
        keep_entries = {
            key: entry for key, entry in cache._entries.items()
            if key[0] == "GetAccessData"
        }
        assert keep_entries
        assert any(key[0] == "GetSubscriberData" for key in cache._entries)

        def recomputations() -> int:
            return sum(m.stats.recomputations for m in houdini.maintenance.maintenances())

        before = recomputations()
        for _ in range(60):
            evicted = cache.stats.invalidations
            self._attempt_without_queries(houdini, drifted)
            if recomputations() > before:
                break
        assert recomputations() > before, (
            "drift never triggered a recompute; the test premise is broken"
        )
        # Right after the recompute, with no lookup in between: the entry
        # this attempt was planned from read begin's view, which the
        # recompute replaced, so it is gone, and the drifted procedure keeps
        # no entry that reads a replaced view or table; the other
        # procedure's entries survived as the identical objects.
        assert cache.stats.invalidations > evicted
        drifted_model = houdini.provider.model_for(drifted)
        for key, entry in cache._entries.items():
            if key[0] == "GetSubscriberData":
                estimate = entry.estimate
                assert drifted_model.still_publishes(
                    estimate.vertices, estimate.read_views, estimate.read_tables
                )
        for key, entry in keep_entries.items():
            assert cache._entries[key] is entry
