"""Tests for the plan memo (§6.3): one cache, keyed by binding signature."""

from __future__ import annotations

import copy
import pickle

import pytest

from repro.houdini import (
    EstimateCache,
    GlobalModelProvider,
    Houdini,
    HoudiniConfig,
    OptimizationDecision,
    PathEstimate,
    PathEstimator,
)
from repro.markov import MarkovModel
from repro.markov.vertex import COMMIT_KEY, VertexKey
from repro.session import Cluster, ClusterSpec, train
from repro.types import PartitionSet, ProcedureRequest
from tests.conftest import trained


def _estimate(partition: int = 0) -> PathEstimate:
    estimate = PathEstimate(procedure="Proc")
    key = VertexKey.query("Q", 0, PartitionSet.of([partition]), PartitionSet.of([]))
    estimate.vertices = [key, COMMIT_KEY]
    estimate.edge_probabilities = [1.0, 1.0]
    return estimate


def _decision(partition: int = 0, single: bool = True) -> OptimizationDecision:
    return OptimizationDecision(
        base_partition=partition,
        locked_partitions=PartitionSet.of([partition]),
        predicted_single_partition=single,
        disable_undo=True,
    )


def _key(model, procedure="Proc", signature=(0,)):
    return (procedure, id(model), signature)


@pytest.fixture
def model() -> MarkovModel:
    return MarkovModel("Proc", 4)


class TestEligibility:
    """The §6.3 rule: non-abortable, always single-partition."""

    def test_single_partition_non_aborting_walk_is_eligible(self):
        cache = EstimateCache(HoudiniConfig())
        assert cache.eligible(_estimate(), _decision(), frozenset({0}))

    def test_distributed_decision_is_not(self):
        cache = EstimateCache(HoudiniConfig())
        assert not cache.eligible(_estimate(), _decision(single=False), frozenset({0}))

    def test_abort_prone_walk_is_not(self):
        cache = EstimateCache(HoudiniConfig(abort_tolerance=0.01))
        estimate = _estimate()
        estimate.abort_probability = 0.2
        assert not cache.eligible(estimate, _decision(), frozenset({0}))

    def test_non_terminal_walk_is_not(self):
        cache = EstimateCache(HoudiniConfig())
        estimate = _estimate()
        estimate.vertices = estimate.vertices[:1]  # drop the commit vertex
        assert not cache.eligible(estimate, _decision(), frozenset({0}))

    def test_only_a_single_partition_footprint_is_always_single_partition(self):
        cache = EstimateCache(HoudiniConfig())
        assert not cache.eligible(_estimate(), _decision(), frozenset({0, 1}))
        assert not cache.eligible(_estimate(), _decision(), None)


class TestLookupAndEviction:
    def test_hit_after_store(self, model):
        cache = EstimateCache(HoudiniConfig())
        entry = cache.store(_key(model), model, _estimate())
        assert entry.decision is None and entry.eligible is False
        assert cache.lookup(_key(model), model) is entry
        assert (cache.stats.hits, cache.stats.stores) == (1, 1)

    def test_miss_is_counted(self, model):
        cache = EstimateCache(HoudiniConfig())
        assert cache.lookup(_key(model), model) is None
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.0

    def test_unkeyable_lookups_are_counted(self, model):
        """None-key lookups must depress the hit rate, not vanish."""
        cache = EstimateCache(HoudiniConfig())
        cache.store(_key(model), model, _estimate())
        assert cache.lookup(_key(model), model) is not None
        assert cache.lookup(None, None) is None
        assert cache.lookup(None, model) is None
        assert cache.stats.uncacheable == 2
        assert cache.stats.lookups == 3
        assert cache.stats.hit_rate == pytest.approx(1 / 3)
        assert "uncacheable=2" in cache.describe()
        assert "hit_rate" in cache.describe()

    def test_entry_pins_its_model(self, model):
        """The key holds ``id(model)``: the entry keeps the model alive so
        the identity cannot be recycled under it."""
        cache = EstimateCache(HoudiniConfig())
        assert cache.store(_key(model), model, _estimate()).model is model

    def test_signatures_and_models_occupy_distinct_entries(self, model):
        cache = EstimateCache(HoudiniConfig())
        other = MarkovModel("Proc", 4)
        first = cache.store(_key(model, signature=(0,)), model, _estimate(0))
        second = cache.store(_key(model, signature=(1,)), model, _estimate(1))
        third = cache.store(_key(other, signature=(0,)), other, _estimate(0))
        assert len(cache) == 3
        assert cache.lookup(_key(model, signature=(0,)), model) is first
        assert cache.lookup(_key(model, signature=(1,)), model) is second
        assert cache.lookup(_key(other, signature=(0,)), other) is third

    def test_lru_bound_keeps_recent_entries(self, model):
        cache = EstimateCache(HoudiniConfig(), max_entries=2)
        for partition in range(3):
            cache.store(_key(model, signature=(partition,)), model, _estimate(partition))
        assert len(cache) == 2
        assert cache.lookup(_key(model, signature=(0,)), model) is None
        assert cache.lookup(_key(model, signature=(2,)), model) is not None

    def test_invalidate_counts_entries_evicted(self, model):
        """Both invalidation paths count the same thing: entries dropped."""
        cache = EstimateCache(HoudiniConfig())
        for partition in range(3):
            cache.store(_key(model, "A", (partition,)), model, _estimate(partition))
        cache.store(_key(model, "B"), model, _estimate())
        assert cache.invalidate_procedure("A") == 3
        assert cache.stats.invalidations == 3
        assert cache.lookup(_key(model, "B"), model) is not None  # selective
        assert cache.invalidate() == 1
        assert cache.stats.invalidations == 4
        # Nothing left: further invalidations are free and count nothing.
        assert cache.invalidate() == 0
        assert cache.invalidate_procedure("A") == 0
        assert cache.stats.invalidations == 4


def _houdini(artifacts, *, learning=False, models=None, **config) -> Houdini:
    return Houdini(
        artifacts.benchmark.catalog,
        artifacts.global_provider() if models is None else GlobalModelProvider(models),
        artifacts.mappings,
        HoudiniConfig(**config),
        learning=learning,
    )


def _memo_entry(houdini, request):
    """The memo entry for ``request``, read by key (no lookup side effects)."""
    model = houdini.provider.model_for(request)
    signature = houdini.estimator.footprint_and_signature(request)[1]
    return houdini.estimate_cache._entries.get((request.procedure, id(model), signature))


class TestAMovedVersionAsksWhatTheWalkRead:
    """The validity rule under a moved ``model.version``: an entry is served
    iff every view and table its walk read is still the one in place."""

    @pytest.fixture()
    def planned(self, tpcc_artifacts):
        """``(houdini, request, model, entry)`` over private model copies,
        with one ``neworder`` walk memoized."""
        houdini = _houdini(
            tpcc_artifacts, learning=True, models=copy.deepcopy(tpcc_artifacts.models)
        )
        request = ProcedureRequest.of(
            "neworder", (0, 1, 5, (11, 12, 13), (0, 0, 0), (1, 2, 3))
        )
        estimate = houdini.plan(request).estimate
        assert estimate.reached_terminal and estimate.query_count > 3
        model = houdini.provider.model_for(request)
        entry = _memo_entry(houdini, request)
        assert entry is not None and entry.estimate is estimate
        assert len(estimate.read_tables) == len(estimate.vertices)
        assert len(estimate.read_views) == len(estimate.vertices) - 1  # not the terminal's
        return houdini, request, model, entry

    @staticmethod
    def _unseen(source: VertexKey) -> VertexKey:
        return VertexKey.query(
            source.name, 99, PartitionSet.of([0]), source.accessed_partitions()
        )

    @staticmethod
    def _off_the_path(model, estimate, *, below: bool) -> VertexKey:
        """A query state the walk never visited: a child of a visited query
        state (``below``) or any other."""
        visited = set(estimate.vertices)
        candidates = (
            [target for key in estimate.query_vertices for target, _ in model.successors(key)]
            if below else [vertex.key for vertex in model.vertices() if vertex.key.is_query]
        )
        for key in candidates:
            if key not in visited and key.is_query and model.successors(key):
                return key
        pytest.fail("every candidate state is on the walk's path")

    def test_nothing_read_was_replaced_is_a_hit(self, planned):
        houdini, request, model, entry = planned
        stats = houdini.estimate_cache.stats
        before = (stats.hits, stats.misses, stats.stores)
        elsewhere = self._off_the_path(model, entry.estimate, below=False)
        version = model.version
        model.log_transitions([(elsewhere, self._unseen(elsewhere))])  # vertex + edge
        assert model.version == version + 2 and entry.version == version
        assert houdini.plan(request).estimate is entry.estimate
        assert entry.version == model.version  # re-stamped: the next probe is O(1)
        assert houdini.plan(request).estimate is entry.estimate
        assert (stats.hits, stats.misses, stats.stores) == (before[0] + 2, *before[1:])
        assert (stats.revalidated, stats.invalidations) == (1, 0)

    def test_a_visited_vertex_gained_an_edge_is_a_miss(self, planned):
        houdini, request, model, entry = planned
        stats = houdini.estimate_cache.stats
        misses = stats.misses
        visited = entry.estimate.query_vertices[2]
        model.log_transitions([(visited, self._unseen(visited))])
        rewalked = houdini.plan(request).estimate
        assert rewalked is not entry.estimate
        assert rewalked.work_units == entry.estimate.work_units + 1
        assert (stats.revalidated, stats.invalidations) == (0, 1)
        assert stats.misses == misses + 1

    def test_a_recompute_that_replaced_a_read_table_is_a_miss(self, planned):
        houdini, request, model, entry = planned
        estimate = entry.estimate
        below = self._off_the_path(model, estimate, below=True)
        # A new successor that takes most of the state's probability: its
        # table moves.  (Counts that leave every probability bit-equal leave
        # the published views and tables in place: a recompute keeps them.)
        model.log_transitions([(below, self._unseen(below))] * 50)
        version = model.version
        model.process()
        assert model.version == version + 1
        # Every view the walk read is still in place; the tables above the
        # drifted state are not.
        assert model.still_publishes(estimate.vertices, estimate.read_views, ())
        assert not model.still_publishes(estimate.vertices, (), estimate.read_tables)
        assert houdini.plan(request).estimate is not estimate
        stats = houdini.estimate_cache.stats
        assert (stats.revalidated, stats.invalidations) == (0, 1)

    def test_an_estimate_records_begins_table_only_as_the_op2_reference(self, planned):
        """Slot 0 of ``read_tables`` is ``begin``'s table only when no first
        query state's table exists to condition OP2 on."""
        houdini, request, model, entry = planned
        assert entry.estimate.read_tables[0] is None
        assert entry.estimate.read_tables[1] is model.find_vertex(
            entry.estimate.query_vertices[0]
        ).table
        empty = MarkovModel("neworder", model.num_partitions)
        empty.process()
        walked = houdini.estimator.estimate(request, empty)
        assert walked.vertices == [empty.begin] and len(walked.read_tables) == 1
        assert walked.read_tables[0] is empty.probability_table(empty.begin)


class TestHoudiniIntegration:
    @pytest.fixture()
    def houdini(self, tatp_artifacts) -> Houdini:
        return _houdini(tatp_artifacts)

    def test_memo_is_the_default_and_the_single_switch(self, tpcc_houdini, tatp_artifacts):
        assert HoudiniConfig().enable_estimate_caching is True
        assert tpcc_houdini.estimate_cache is not None
        assert _houdini(tatp_artifacts, enable_estimate_caching=False).estimate_cache is None

    def test_one_probe_and_at_most_one_walk_per_plan(
        self, houdini, tatp_artifacts, monkeypatch
    ):
        """Every signature is walked exactly once while nothing changes."""
        walks = []
        walk = PathEstimator.estimate
        monkeypatch.setattr(
            PathEstimator, "estimate",
            lambda self, request, model=None: walks.append(1) or walk(self, request, model),
        )
        stats = houdini.estimate_cache.stats
        for request in tatp_artifacts.benchmark.generator.generate(300):
            lookups, walked = stats.lookups, len(walks)
            houdini.plan(request)
            assert stats.lookups == lookups + 1
            assert len(walks) - walked <= 1
        assert stats.hits > 0
        assert stats.invalidations == 0
        assert len(walks) == stats.misses + stats.uncacheable
        assert stats.misses == stats.stores == len(houdini.estimate_cache)

    def test_preview_estimate_and_plan_share_the_memo(self, houdini):
        request = ProcedureRequest.of("GetSubscriberData", (5,))
        preview = houdini.estimate(request)
        planned = houdini.plan(request)
        assert planned.estimate is preview
        # The preview stored a walk without a decision: the plan that
        # derives it is not yet an eligible hit.
        assert planned.plan.source == "houdini"
        assert houdini.plan(request).plan.source == "houdini:cached"
        assert houdini.plan_restart(request, 0).estimate is preview
        stats = houdini.estimate_cache.stats
        assert (stats.misses, stats.stores, stats.hits) == (1, 1, 3)

    def test_memoized_estimates_are_never_written_after_the_walk(self, houdini):
        request = ProcedureRequest.of("GetSubscriberData", (5,))
        first = houdini.plan(request).estimate
        frozen = pickle.dumps(first)
        for _ in range(3):
            assert houdini.plan(request).estimate is first
        houdini.estimate(request)
        assert pickle.dumps(first) == frozen

    def test_wall_clock_is_charged_to_the_statistics(self, houdini):
        """Table 4's estimation column: every span Houdini spends estimating
        — preview, plan, restart — lands in the per-procedure statistics and
        nowhere on the shared estimate."""
        request = ProcedureRequest.of("GetSubscriberData", (5,))
        stats = houdini.stats.for_procedure("GetSubscriberData")
        houdini.estimate(request)
        after_preview = stats.estimation_wall_ms_total
        assert after_preview > 0 and stats.estimates == 0
        houdini.plan(request)
        after_plan = stats.estimation_wall_ms_total
        assert after_plan > after_preview and stats.estimates == 1
        houdini.plan_restart(request, 0)
        assert stats.estimation_wall_ms_total > after_plan
        assert not hasattr(houdini.plan(request).estimate, "estimation_ms")

    def test_hits_are_charged_neutrally_by_default(self, houdini, tatp_artifacts):
        """The memo is a wall-clock optimization only: a hit is charged the
        identical modelled estimation cost as the walk it reuses."""
        generator = tatp_artifacts.benchmark.generator
        plans = [houdini.plan(generator.next_request()) for _ in range(300)]
        cached = [p for p in plans if p.plan.source == "houdini:cached"]
        assert cached, "expected at least one eligible hit in 300 TATP requests"
        config = houdini.config
        for plan in cached:
            assert plan.plan.estimation_ms == config.estimation_cost_ms(
                plan.estimate.work_units, plan.estimate.query_count
            )

    def test_simulated_savings_mode_charges_eligible_hits_cheaper(self, tatp_artifacts):
        """The §6.3 what-if mode charges only the dictionary-lookup cost."""
        houdini = _houdini(tatp_artifacts, estimate_cache_simulated_savings=True)
        generator = tatp_artifacts.benchmark.generator
        plans = [houdini.plan(generator.next_request()) for _ in range(300)]
        cached = [p for p in plans if p.plan.source == "houdini:cached"]
        uncached = [p for p in plans if p.plan.source == "houdini"]
        assert cached, "expected at least one eligible hit in 300 TATP requests"
        assert max(p.plan.estimation_ms for p in cached) < min(
            p.plan.estimation_ms for p in uncached
        )

    def test_ineligible_hits_are_reused_but_never_take_the_savings(self, tpcc_artifacts):
        """A multi-partition walk is memoized like any other; the §6.3
        what-if charge stays with eligible ones."""
        houdini = _houdini(tpcc_artifacts, estimate_cache_simulated_savings=True)
        remote = ProcedureRequest.of("payment", (0, 0, 1, 0, 1, 5.0))
        first = houdini.plan(remote)
        second = houdini.plan(remote)
        assert len(first.decision.locked_partitions) > 1
        assert second.estimate is first.estimate and second.decision is first.decision
        assert second.plan.source == "houdini"
        assert second.plan.estimation_ms == first.plan.estimation_ms
        entry = _memo_entry(houdini, remote)
        assert entry.decision is first.decision and not entry.eligible

    def test_same_footprint_different_bindings_occupy_distinct_entries(self, tpcc_artifacts):
        """The key is the binding signature, not the footprint: two remote
        payments over the same pair of warehouses, homes swapped, share a
        footprint but walk different paths.  (By customer name vs by id is
        *one* signature — the walk never reads the customer id — so those
        share an entry, correctly.)"""
        houdini = _houdini(tpcc_artifacts)
        there = ProcedureRequest.of("payment", (0, 0, 1, 0, 1, 5.0))
        back = ProcedureRequest.of("payment", (1, 0, 0, 0, 1, 5.0))
        bindings = [houdini.estimator.footprint_and_signature(r) for r in (there, back)]
        assert bindings[0][0] == bindings[1][0] and bindings[0][1] != bindings[1][1]
        walked = {request: houdini.plan(request).estimate for request in (there, back)}
        assert walked[there].vertices != walked[back].vertices
        for request in (there, back, there, back):
            assert houdini.plan(request).estimate is walked[request]
        by_id = ProcedureRequest.of("payment", (0, 0, 0, 0, 1, 5.0))
        by_name = ProcedureRequest.of("payment", (0, 0, 0, 0, None, 5.0))
        assert houdini.plan(by_id).estimate is houdini.plan(by_name).estimate
        stats = houdini.estimate_cache.stats
        assert (stats.misses, stats.hits, len(houdini.estimate_cache)) == (3, 5, 3)


class TestSupportLimitedDecisions:
    """A decision withheld only for thin support can flip as counts grow
    without the model version moving."""

    @pytest.fixture(scope="class")
    def thin_artifacts(self):
        return train(ClusterSpec(
            benchmark="tatp", num_partitions=4, trace_transactions=150, seed=17
        ))

    def _support_limited_request(self, houdini, artifacts):
        for request in artifacts.benchmark.generator.generate(200):
            if houdini.plan(request).decision.support_limited:
                return request
        pytest.fail("no support-limited decision in a 150-transaction model")

    def test_rederived_per_request_while_learning(self, thin_artifacts):
        houdini = _houdini(thin_artifacts, learning=True)
        request = self._support_limited_request(houdini, thin_artifacts)
        first, second = houdini.plan(request), houdini.plan(request)
        assert second.estimate is first.estimate  # the walk is reused...
        assert second.decision is not first.decision  # ...the decision is not
        assert second.plan.source == "houdini"
        entry = _memo_entry(houdini, request)
        assert entry.decision is None and not entry.eligible
        # Once the counts support it, the decision is memoized and eligible.
        model = houdini.provider.model_for(request)
        model.find_vertex(first.estimate.query_vertices[0]).hits += 1000
        settled = houdini.plan(request)
        assert not settled.decision.support_limited
        assert houdini.plan(request).decision is settled.decision
        assert entry.decision is settled.decision and entry.eligible

    def test_memoized_when_the_counts_are_frozen(self, thin_artifacts):
        houdini = _houdini(thin_artifacts, learning=False)
        request = self._support_limited_request(houdini, thin_artifacts)
        assert houdini.plan(request).decision is houdini.plan(request).decision


class TestHitPlansAreShared:
    def test_one_read_only_plan_per_entry_over_a_tatp_run(self):
        """Every hit on an entry whose decision was memoized before the call
        returns the entry's one ``ExecutionPlan``; after 2,000 transactions
        each such plan still equals one freshly built from the entry's
        decision and eligibility, so nothing downstream wrote it."""
        spec = ClusterSpec(
            benchmark="tatp", num_partitions=16, strategy="houdini",
            model_provider="global", clients_per_partition=4, trace_transactions=600,
            seed=0, learning=False, metrics_mode="streaming",
        )
        session = Cluster.open(spec, artifacts=trained("tatp", 16, 600, 0))
        houdini = session.houdini
        memo = houdini.estimate_cache
        real_plan = houdini.plan
        served: dict[int, list] = {}  # plans served per entry
        entries = {}

        def entry_of(request):
            _, signature = houdini.estimator.footprint_and_signature(request)
            key = houdini._memo_key(request, houdini.provider.model_for(request), signature)
            return memo._entries.get(key)

        def plan(request):
            before = entry_of(request)
            decided = before is not None and before.decision is not None
            houdini_plan = real_plan(request)
            entry = entry_of(request)
            if decided and entry is before:
                entries[id(entry)] = entry
                served.setdefault(id(entry), []).append(houdini_plan.plan)
            return houdini_plan

        houdini.plan = plan
        try:
            session.run_for(txns=2000)
        finally:
            session.close()
        hits = sum(map(len, served.values()))
        assert hits > 1800 and len(served) > 50, (hits, len(served))
        for key, plans in served.items():
            entry = entries[key]
            assert all(plan is entry.plan for plan in plans)
            fresh = entry.decision.as_plan(
                houdini._charged_ms(entry.estimate, entry.eligible),
                source="houdini:cached" if entry.eligible else "houdini",
            )
            assert entry.plan == fresh
            assert entry.plan.finish_after_query is entry.decision.finish_after_query
