"""Tests for the prediction-aware transaction scheduler."""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.houdini import PathEstimate
from repro.markov.vertex import COMMIT_KEY, VertexKey
from repro.scheduling import (
    ArrivalOrderPolicy,
    PredictedCost,
    ShortestPredictedFirstPolicy,
    SinglePartitionFirstPolicy,
    TransactionScheduler,
)
from repro.scheduling.policies import SchedulingPolicy, available_policies, policy_by_name
from repro.sim import CostModel
from repro.sim.sketch import LatencySketch
from repro.tenancy import TenancyConfig
from repro.tenancy.scheduler import TenantScheduler
from repro.types import PartitionSet, ProcedureRequest


def _estimate(partitions_per_query: list[list[int]], procedure: str = "Proc") -> PathEstimate:
    """Build a synthetic terminal estimate visiting the given partitions."""
    estimate = PathEstimate(procedure=procedure)
    previous: list[int] = []
    for index, partitions in enumerate(partitions_per_query):
        key = VertexKey.query(
            f"Q{index}", 0, PartitionSet.of(partitions), PartitionSet.of(previous)
        )
        estimate.vertices.append(key)
        estimate.edge_probabilities.append(1.0)
        for partition in partitions:
            if partition not in previous:
                previous.append(partition)
        from repro.houdini.estimate import PartitionPrediction

        for partition in partitions:
            estimate.partitions.setdefault(
                partition,
                PartitionPrediction(
                    partition_id=partition, access_confidence=1.0, last_access_index=index
                ),
            )
    estimate.vertices.append(COMMIT_KEY)
    estimate.edge_probabilities.append(1.0)
    return estimate


class TestPredictedCost:
    def test_single_partition_costs_less_than_distributed(self):
        model = CostModel()
        local = PredictedCost.from_estimate(_estimate([[0], [0]]), 0, model)
        remote = PredictedCost.from_estimate(_estimate([[0], [1]]), 0, model)
        assert local.single_partition
        assert not remote.single_partition
        assert local.service_ms < remote.service_ms

    def test_query_count_matches_estimate(self):
        cost = PredictedCost.from_estimate(_estimate([[0], [0], [0]]), 0)
        assert cost.queries == 3

    def test_more_queries_cost_more(self):
        short = PredictedCost.from_estimate(_estimate([[0]]), 0)
        long = PredictedCost.from_estimate(_estimate([[0]] * 8), 0)
        assert long.service_ms > short.service_ms


class TestSchedulerBasics:
    def test_fcfs_preserves_arrival_order(self):
        scheduler = TransactionScheduler(ArrivalOrderPolicy())
        for index in range(5):
            scheduler.submit(ProcedureRequest.of("P", (index,)))
        order = [p.arrival_index for p in scheduler.drain()]
        assert order == [0, 1, 2, 3, 4]
        assert scheduler.stats.reordered == 0

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            TransactionScheduler().pop()

    def test_peek_does_not_remove(self):
        scheduler = TransactionScheduler()
        scheduler.submit(ProcedureRequest.of("P", (0,)))
        assert scheduler.peek() is not None
        assert len(scheduler) == 1

    def test_submit_without_estimate_has_zero_predicted_cost(self):
        scheduler = TransactionScheduler()
        pending = scheduler.submit(ProcedureRequest.of("P", (0,)))
        assert pending.predicted_cost_ms == 0.0
        assert pending.predicted_single_partition is True

    def test_backlog_is_sum_of_predictions(self):
        scheduler = TransactionScheduler(ShortestPredictedFirstPolicy())
        scheduler.submit(ProcedureRequest.of("P", (0,)), _estimate([[0]]))
        scheduler.submit(ProcedureRequest.of("P", (1,)), _estimate([[0], [1]]))
        assert scheduler.predicted_backlog_ms() == pytest.approx(
            sum(p.predicted_cost_ms for p in scheduler.pending_transactions())
        )
        assert scheduler.predicted_backlog_ms() > 0

    def test_describe_mentions_policy(self):
        scheduler = TransactionScheduler(SinglePartitionFirstPolicy())
        assert "single-partition-first" in scheduler.describe()


class TestSchedulerPolicies:
    def test_shortest_predicted_first_reorders(self):
        scheduler = TransactionScheduler(ShortestPredictedFirstPolicy())
        scheduler.submit(ProcedureRequest.of("Long", (0,)), _estimate([[0]] * 10))
        scheduler.submit(ProcedureRequest.of("Short", (1,)), _estimate([[0]]))
        first = scheduler.pop()
        assert first.procedure == "Short"
        # A pop is only a candidate; the queue jump counts once it dispatches.
        assert scheduler.stats.reordered == 0
        scheduler.note_dispatched(first)
        assert scheduler.stats.reordered == 1

    def test_single_partition_first_reorders(self):
        scheduler = TransactionScheduler(SinglePartitionFirstPolicy())
        scheduler.submit(ProcedureRequest.of("Dist", (0,)), _estimate([[0], [1]]))
        scheduler.submit(ProcedureRequest.of("Local", (1,)), _estimate([[0]]))
        assert scheduler.pop().procedure == "Local"

    def test_resubmit_counts_deferral(self):
        scheduler = TransactionScheduler()
        pending = scheduler.submit(ProcedureRequest.of("P", (0,)))
        popped = scheduler.pop()
        scheduler.resubmit(popped)
        assert popped.deferrals == 1
        assert len(scheduler) == 1
        assert pending is popped

    def test_sjf_minimizes_mean_waiting_time(self):
        """The textbook SJF property, on predicted costs."""

        def mean_completion(policy) -> float:
            scheduler = TransactionScheduler(policy)
            costs = [5, 1, 3, 1, 8, 2]
            for index, queries in enumerate(costs):
                scheduler.submit(
                    ProcedureRequest.of("P", (index,)), _estimate([[0]] * queries)
                )
            clock = 0.0
            completions = []
            for pending in scheduler.drain():
                clock += pending.predicted_cost_ms
                completions.append(clock)
            return sum(completions) / len(completions)

        assert mean_completion(ShortestPredictedFirstPolicy()) < mean_completion(
            ArrivalOrderPolicy()
        )


class TestSchedulerProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=30))
    def test_every_submitted_transaction_is_dispatched_exactly_once(self, sizes):
        scheduler = TransactionScheduler(ShortestPredictedFirstPolicy())
        for index, queries in enumerate(sizes):
            scheduler.submit(ProcedureRequest.of("P", (index,)), _estimate([[0]] * queries))
        drained = [p.arrival_index for p in scheduler.drain()]
        assert sorted(drained) == list(range(len(sizes)))
        assert scheduler.stats.dispatched == len(sizes)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=12), min_size=2, max_size=30))
    def test_sjf_dispatches_in_nondecreasing_cost_order(self, sizes):
        scheduler = TransactionScheduler(ShortestPredictedFirstPolicy())
        for index, queries in enumerate(sizes):
            scheduler.submit(ProcedureRequest.of("P", (index,)), _estimate([[0]] * queries))
        costs = [p.predicted_cost_ms for p in scheduler.drain()]
        assert costs == sorted(costs)


class _ByProcedureName(SchedulingPolicy):
    """Non-predictive, but not arrival-ordered: the scheduler keeps its
    queue-jump bookkeeping (``_track_reorder``) for it."""

    name = "by-procedure-name"

    def key(self, pending):
        return (pending.request.procedure, pending.arrival_index)


def _non_predictive_policies():
    registered = [policy_by_name(name) for name in available_policies()]
    return [policy for policy in registered if not policy.uses_predictions] + [
        _ByProcedureName()
    ]


class TestPassThrough:
    """``pass_through`` is ``submit`` + ``pop`` + a zero ``record_wait`` on
    an empty queue, minus the entry that would be pushed and popped."""

    REQUESTS = [
        ProcedureRequest.of(name, (index,), client_id=index)
        for index, name in enumerate(["B", "A", "B", "C", "A", "A", "B"])
    ]

    @staticmethod
    def observable(scheduler):
        return {
            "stats": scheduler.stats,
            "arrivals": scheduler._arrivals,
            "sequence": scheduler._sequence,
            "waits": scheduler.wait_summary(),
            "queued": len(scheduler),
            "has_ready": scheduler.has_ready,
            "jump_bookkeeping": (sorted(scheduler._arrival_heap), sorted(scheduler._waiting)),
        }

    @pytest.mark.parametrize(
        "policy", _non_predictive_policies(), ids=lambda policy: policy.name
    )
    def test_equals_submit_pop_and_zero_wait(self, policy):
        assert [p.name for p in _non_predictive_policies()] == ["fcfs", "by-procedure-name"]
        passed = TransactionScheduler(policy)
        queued = TransactionScheduler(type(policy)())
        for request in self.REQUESTS:
            passed.pass_through(request)
            pending = queued.submit(request)
            assert queued.pop() is pending
            queued.record_wait(request.procedure, 0.0)
            assert self.observable(passed) == self.observable(queued)
        assert passed.stats.submitted == passed.stats.dispatched == len(self.REQUESTS)
        assert passed.wait_summary()["A"]["count"] == 3
        # The next queued submission cannot tell which way the earlier ones went.
        follow_up = ProcedureRequest.of("A", (99,))
        entries = []
        for scheduler in (passed, queued):
            pending = scheduler.submit(follow_up)
            (entry,) = scheduler._queued_entries()
            entries.append((entry[0], entry[1], pending.arrival_index))
        assert entries[0] == entries[1]
        assert entries[0][1:] == (len(self.REQUESTS) + 1, len(self.REQUESTS))

    def test_interleaves_with_a_queued_backlog_that_drained(self):
        """Pass-through legs between queued legs (fast -> general -> fast):
        arrival indexes and FIFO sequence numbers stay one series."""
        scheduler = TransactionScheduler(_ByProcedureName())
        scheduler.pass_through(self.REQUESTS[0])
        first = scheduler.submit(self.REQUESTS[1])
        second = scheduler.submit(self.REQUESTS[2])
        assert (first.arrival_index, second.arrival_index) == (1, 2)
        assert [scheduler.pop(), scheduler.pop()] == [first, second]  # "A" before "B"
        assert not scheduler
        scheduler.pass_through(self.REQUESTS[3])
        assert scheduler.submit(self.REQUESTS[4]).arrival_index == 4
        assert scheduler._sequence == 5
        assert scheduler.stats.submitted == 5 and scheduler.stats.dispatched == 4


def reference_wait_summary(zero_waits: dict, waits: dict, streaming: bool) -> dict:
    """``wait_summary`` as it was when every summary sorted a fresh copy:
    ``waits`` holds each class's non-zero waits in recording order (streaming
    mode replays them into a fresh sketch)."""
    summary = {}
    for procedure in sorted(set(waits) | set(zero_waits)):
        zeros = zero_waits.get(procedure, 0)
        recorded = waits.get(procedure)
        if recorded is None:
            nonzero, total, largest, value_at = 0, 0.0, 0.0, None
        elif streaming:
            sketch = LatencySketch()
            for wait in recorded:
                sketch.observe(wait)
            nonzero, total, largest = sketch.count, sketch.total, sketch.max
            value_at = lambda index, s=sketch, n=nonzero: s.quantile((index + 1) / n)
        else:
            ordered = sorted(recorded)
            nonzero, total, largest = len(ordered), sum(ordered), ordered[-1]
            value_at = ordered.__getitem__
        count = zeros + nonzero

        def percentile(p: int) -> float:
            rank = max(0, -(-count * p // 100) - 1)
            return value_at(rank - zeros) if rank >= zeros else 0.0

        summary[procedure] = {
            "count": count, "mean_ms": total / count, "max_ms": largest,
            "p50_ms": percentile(50), "p95_ms": percentile(95), "p99_ms": percentile(99),
        }
    return summary


#: Magnitudes far apart, so a sum taken in another order shows in the bits.
_WAIT = st.one_of(
    st.just(0.0),
    st.sampled_from([0.1, 0.2, 0.3, 1e-9, 1e9, 7.0]),
    st.floats(min_value=1e-3, max_value=1e4),
)
_WAIT_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("wait"), st.sampled_from("ABC"), _WAIT),
        st.tuples(st.just("summary")),
        st.tuples(st.just("rekey"), st.sampled_from(available_policies())),
        st.tuples(st.just("attach")),
        st.tuples(st.just("detach")),
    ),
    max_size=80,
)


class TestWaitSummaryRepeated:
    """A summary sorts each class's waits in place: the next one merges the
    waits recorded since into a sorted prefix and sums the same order, so it
    reads the same bytes as a summary over a sorted copy, however often it
    is taken — across a re-key and a tenancy attach / detach, which hand the
    same wait lists to the next scheduler."""

    @staticmethod
    def replay(ops, streaming: bool) -> int:
        scheduler = TransactionScheduler(streaming_waits=streaming)
        zeros, waits = {}, {}
        summaries = 0
        for op in [*ops, ("summary",)]:
            kind = op[0]
            if kind == "wait":
                _, procedure, wait = op
                scheduler.record_wait(procedure, wait)
                if wait == 0.0:
                    zeros[procedure] = zeros.get(procedure, 0) + 1
                else:
                    waits.setdefault(procedure, []).append(wait)
            elif kind == "summary":
                got = scheduler.wait_summary()
                expected = reference_wait_summary(zeros, waits, streaming)
                assert json.dumps(got) == json.dumps(expected)
                summaries += 1
            elif kind == "rekey":
                scheduler.rekey(policy_by_name(op[1]))
            elif kind == "attach" and not isinstance(scheduler, TenantScheduler):
                layered = TenantScheduler(TenancyConfig(), scheduler.policy)
                layered.adopt_from(scheduler)
                scheduler = layered
            elif kind == "detach" and isinstance(scheduler, TenantScheduler):
                flat = TransactionScheduler(scheduler.policy)
                flat.adopt_from(scheduler)
                scheduler = flat
        return summaries

    @pytest.mark.parametrize("streaming", [False, True], ids=["exact", "streaming"])
    @settings(deadline=None)
    @given(ops=_WAIT_OPS)
    def test_interleaved_summaries_equal_a_sorted_copy(self, streaming, ops):
        self.replay(ops, streaming)

    @pytest.mark.parametrize("streaming", [False, True], ids=["exact", "streaming"])
    def test_a_long_interleaving_through_every_handover(self, streaming):
        """6,000 waits, with every op kind."""
        rng = random.Random(11)
        ops = []
        for index in range(6000):
            ops.append(("wait", rng.choice("ABC"),
                        0.0 if rng.random() < 0.3 else rng.expovariate(0.1)))
            if index % 97 == 0:
                ops.append(("summary",))
            if index % 1001 == 0:
                ops.append((rng.choice(["rekey", "attach", "detach"]), "shortest-predicted"))
        assert self.replay(ops, streaming) > 60
