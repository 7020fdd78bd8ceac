"""Regression tests for the per-vertex successor view.

Guards the cache-invalidation contract.  A vertex's ``SuccessorView`` is a
function of its edge *set* and each ``edge.probability``: a run-time
mutation that adds an edge (``log_transitions``, ``fold_path``) must drop
it immediately and bump ``version``; one that
only counts a visit to an existing edge must leave it (and ``version``)
alone and mark the vertex dirty, so that the next
``process()`` replaces it — an ordering that disagrees with
the current edges and probabilities must never be served.
"""

from __future__ import annotations

from repro.markov import MarkovModel, PathStep
from repro.markov.model import SuccessorView
from repro.markov.vertex import VertexKey
from repro.types import PartitionSet, QueryType
from tests.conftest import add_path, trained


def step(name: str, partition: int, previous: list[int], counter: int = 0) -> PathStep:
    return PathStep(
        statement=name,
        query_type=QueryType.READ,
        partitions=PartitionSet.of([partition]),
        previous=PartitionSet.of(previous),
        counter=counter,
    )


def key_of(name: str, partition: int, previous: list[int], counter: int = 0) -> VertexKey:
    return VertexKey.query(
        name, counter, PartitionSet.of([partition]), PartitionSet.of(previous)
    )


def build_branching_model() -> MarkovModel:
    """Begin forks to A@0 (frequent) and A@1 (rare)."""
    model = MarkovModel("proc", 4)
    for _ in range(9):
        add_path(model, [step("A", 0, [])], aborted=False)
    add_path(model, [step("A", 1, [])], aborted=False)
    model.process()
    return model


class TestSuccessorCache:
    def test_successors_sorted_by_probability(self):
        model = build_branching_model()
        successors = model.successors(model.begin)
        assert [k for k, _ in successors] == [key_of("A", 0, []), key_of("A", 1, [])]
        assert [p for _, p in successors] == [0.9, 0.1]
        # Served from the precomputed table: identical list object per call.
        assert model.successors(model.begin) is successors

    def test_refreshed_after_logged_transitions_and_recompute(self):
        model = build_branching_model()
        before = model.successors(model.begin)
        # Run-time learning flips the distribution towards A@1.
        model.log_transitions([(model.begin, key_of("A", 1, []))] * 90)
        # Counts moved, probabilities did not: the array still describes the
        # model until the recompute, which must then replace it.
        assert model.successors(model.begin) is before
        assert model.edge_probability(model.begin, key_of("A", 1, [])) == 0.1
        model.process()
        after = model.successors(model.begin)
        assert [k for k, _ in after] == [key_of("A", 1, []), key_of("A", 0, [])]
        assert after[0][1] == 0.91
        # Untouched vertices keep serving their precomputed arrays.
        assert model.successors(key_of("A", 0, [])) is model.successors(key_of("A", 0, []))

    def test_refreshed_after_add_path_and_recompute(self):
        model = build_branching_model()
        for _ in range(90):
            add_path(model, [step("B", 2, [])], aborted=False)
        model.process()
        successors = model.successors(model.begin)
        assert successors[0][0] == key_of("B", 2, [])
        assert successors[0][1] == 0.9

    def test_new_edge_visible_before_recompute(self):
        model = build_branching_model()
        target = key_of("C", 3, [])
        model.log_transitions([(model.begin, target)])
        targets = [k for k, _ in model.successors(model.begin)]
        assert target in targets  # present immediately, probability still 0.0
        assert model.edge_probability(model.begin, target) == 0.0

    def test_records_names_and_probe_live_on_the_one_view(self):
        model = build_branching_model()
        view = model.successor_view(model.begin)
        assert view.pairs is model.successors(model.begin)
        assert [(r[0], r[1]) for r in view.records] == view.pairs
        for key, probability, is_terminal, name, counter, previous, partitions in view.records:
            assert (key.is_terminal, key.name, key.counter, key.previous, key.partitions) == \
                (is_terminal, name, counter, previous, partitions)
        assert view.single_name == "A" and not view.has_terminal
        hit = view.probe("A", 0, PartitionSet.of([]), PartitionSet.of([0]))
        assert hit is not None and hit[0] == key_of("A", 0, []) and hit[1] == 0.9
        assert view.probe("A", 1, PartitionSet.of([]), PartitionSet.of([0])) is None
        a0 = model.successor_view(key_of("A", 0, []))
        assert a0.single_name is None and a0.has_terminal
        assert a0.groups() == ({}, (), ((0, model.commit, 1.0),))
        # After a mutation + recompute the probe sees the new distribution.
        model.log_transitions([(model.begin, key_of("A", 1, []))] * 90)
        model.process()
        hit = model.successor_view(model.begin).probe(
            "A", 0, PartitionSet.of([]), PartitionSet.of([1])
        )
        assert hit is not None and hit[1] == 0.91


class TestIncrementalRecompute:
    def test_incremental_recompute_matches_full_rebuild(self):
        """Dirty-set recompute must equal processing a fresh model."""
        incremental = build_branching_model()
        incremental.log_transitions([(incremental.begin, key_of("A", 1, []))] * 5)
        incremental.log_transitions([(key_of("A", 1, []), incremental.commit)] * 5)
        incremental.process()

        fresh = MarkovModel("proc", 4)
        for _ in range(9):
            add_path(fresh, [step("A", 0, [])], aborted=False)
        add_path(fresh, [step("A", 1, [])], aborted=False)
        fresh.log_transitions([(fresh.begin, key_of("A", 1, []))] * 5)
        fresh.log_transitions([(key_of("A", 1, []), fresh.commit)] * 5)
        fresh.process()

        for vertex in fresh.vertices():
            mine = incremental.vertex(vertex.key)
            assert mine.expected_remaining_queries == vertex.expected_remaining_queries
            if vertex.table is None:
                assert mine.table is None
            else:
                assert mine.table is not None
                assert mine.table.approx_equal(vertex.table, tolerance=0.0)
            assert incremental.successors(vertex.key) == fresh.successors(vertex.key)

    def test_noop_recompute_keeps_everything(self):
        model = build_branching_model()
        successors = model.successors(model.begin)
        table = model.probability_table(model.begin)
        model.process()
        assert model.successors(model.begin) is successors
        assert model.probability_table(model.begin) is table


class TestCountChangeVersusStructureChange:
    def test_hit_only_batch_keeps_the_identical_view(self):
        model = build_branching_model()
        a0 = key_of("A", 0, [])
        views = (model.successor_view(model.begin), model.successor_view(a0))
        groups = views[1].groups()  # built on first use, then kept with the view
        version = model.version
        model.log_transitions([(model.begin, a0), (a0, model.commit)] * 3)
        assert model.version == version
        assert model.stale and model.edge(model.begin, a0).hits == 12
        assert model.successor_view(model.begin) is views[0]
        assert model.successor_view(a0) is views[1]
        assert views[1].groups() is groups
        # ... and the recompute still sees the counts (the source is dirty).
        model.process()
        assert model.successor_view(model.begin) is not views[0]
        assert model.successors(model.begin)[0] == (a0, 12 / 13)

    def test_new_edge_drops_the_view_and_bumps_version(self):
        model = build_branching_model()
        view = model.successor_view(model.begin)
        empty = PartitionSet.of([])
        assert view.probe("A", 0, empty, PartitionSet.of([0])) is not None
        untouched = model.successor_view(key_of("A", 0, []))
        version = model.version
        model.log_transitions([(model.begin, model.abort)])
        assert model.version == version + 1
        fresh = model.successor_view(model.begin)
        assert fresh is not view and len(fresh.records) == len(view.records) + 1
        # The index and groups went with the view they were built inside.
        assert fresh.has_terminal and fresh.groups()[2] == ((2, model.abort, 0.0),)
        assert fresh.probe("A", 0, empty, PartitionSet.of([0])) == view.pairs[0]
        assert model.successor_view(key_of("A", 0, [])) is untouched

    def test_equal_probability_successors_order_by_sort_token(self):
        """Pins the tie-break: plain text order of the token (``{10}`` before
        ``{1}`` before ``{2}``; upper-case statement names before ``abort``)
        — whatever ``__str__`` prints."""
        model = MarkovModel("proc", 16)
        for partition in (2, 10, 1):
            add_path(model, [step("A", partition, [])], aborted=False)
        model.log_transitions([(model.begin, model.abort)])
        model.process()
        assert [k.sort_token for k, _ in model.successors(model.begin)] == [
            "A#0@{10}|prev={}", "A#0@{1}|prev={}", "A#0@{2}|prev={}", "abort",
        ]

    def test_learning_rebuilds_few_successor_arrays(self, monkeypatch):
        """Count gate: with learning on, planning must mostly be served from
        the memoized views (measured 0.004 rebuilt per transition; 0.69 when
        every counted visit dropped them)."""
        from repro.session import Cluster, ClusterSpec

        rebuilds = 0
        build = SuccessorView.__init__

        def counting(self, edges):
            nonlocal rebuilds
            rebuilds += 1
            build(self, edges)

        session = Cluster.open(ClusterSpec(
            benchmark="tpcc", num_partitions=16, trace_transactions=1500,
            seed=0, learning=True,
        ), artifacts=trained("tpcc", 16, 1500, 0))
        monkeypatch.setattr(SuccessorView, "__init__", counting)
        session.run_for(txns=300)
        observed = sum(
            entry["transitions_observed"]
            for entry in session.houdini.maintenance.stats_by_procedure().values()
        )
        session.close()
        assert observed > 5000
        assert rebuilds / observed <= 0.2


class TestReadThroughCaching:
    def test_fallback_rebuilds_are_recached(self):
        """A new edge pops the view; the next read must re-cache so the
        vertex doesn't stay uncached until the next processing pass."""
        model = build_branching_model()
        model.log_transitions([(model.begin, key_of("C", 3, []))])
        first = model.successor_view(model.begin)
        assert model.successor_view(model.begin) is first
        assert model.successors(model.begin) is first.pairs
        # A further structure change invalidates the re-cached view again.
        model.log_transitions([(model.begin, key_of("D", 3, []))])
        assert model.successor_view(model.begin) is not first

    def test_unknown_vertex_is_not_cached(self):
        model = build_branching_model()
        ghost = key_of("Ghost", 0, [])
        assert model.successors(ghost) == []
        assert model.successor_view(ghost) is not model.successor_view(ghost)


class TestPickling:
    def test_partition_sets_and_models_pickle(self):
        import copy
        import pickle

        from repro.types import PartitionSet

        partitions = PartitionSet.of([2, 1])
        clone = pickle.loads(pickle.dumps(partitions))
        assert clone == partitions and hash(clone) == hash(partitions)
        assert copy.deepcopy(partitions) == partitions
        model = build_branching_model()
        view = model.successor_view(model.begin)
        view.probe("A", 0, PartitionSet.of([]), PartitionSet.of([0]))  # the built index pickles too
        restored = pickle.loads(pickle.dumps(model)).successor_view(model.begin)
        assert (restored.pairs, restored.records) == (view.pairs, view.records)
        assert (restored.single_name, restored.has_terminal) == ("A", False)
        assert restored.probe("A", 0, PartitionSet.of([]), PartitionSet.of([1])) == view.pairs[1]
