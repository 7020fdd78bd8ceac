"""Property: the memoized successor structures never disagree with the model.

Random interleavings of every mutation a model accepts — ``add_path``,
``record_transition``, ``record_transitions``, ``add_placeholder``,
``merge_counts`` — and ``process()``.  After every step each memoized
structure must equal a fresh rebuild from the edges (a count change keeps
the memo, a structure change drops it, a processing pass replaces it: none
of the three may ever leave a stale answer behind).  After every
``process()`` the incrementally maintained model must hold the very floats a
full ``process()`` computes on a serialized copy.

Tier-1 runs the default budget; CI's ``learning-smoke`` job runs
``--hypothesis-profile=long`` (registered in ``tests/conftest.py``).
"""

from __future__ import annotations

from hypothesis import example, given, settings, strategies as st

from repro.markov import MarkovModel
from repro.markov.serialization import model_from_dict, model_to_dict
from repro.markov.vertex import ABORT_KEY, BEGIN_KEY, COMMIT_KEY, VertexKey
from repro.types import PartitionSet, QueryType
from tests.conftest import to_steps

PARTITIONS = 3

raw_paths = st.lists(
    st.tuples(
        st.sampled_from(["A", "B"]),
        st.integers(min_value=0, max_value=PARTITIONS - 1),
        st.booleans(),  # write?
    ),
    min_size=1, max_size=4,
)
paths = st.tuples(raw_paths, st.booleans())  # (path, aborted)


#: Keys a transition may name: the three specials plus a few query states,
#: most of which also arise from ``raw_paths`` (so hits land on existing
#: edges) and some of which never do (so placeholders appear).
query_keys = st.builds(
    VertexKey.query,
    st.sampled_from(["A", "B", "Z"]),
    st.integers(min_value=0, max_value=1),
    st.builds(lambda p: PartitionSet.of([p]), st.integers(0, PARTITIONS - 1)),
    st.builds(PartitionSet.of, st.lists(st.integers(0, PARTITIONS - 1), max_size=2)),
)
sources = st.one_of(st.just(BEGIN_KEY), query_keys)
targets = st.one_of(st.sampled_from([COMMIT_KEY, ABORT_KEY]), query_keys)
transitions = st.tuples(sources, targets)

operations = st.one_of(
    st.tuples(st.just("add_path"), paths),
    st.tuples(st.just("record_transition"),
              st.tuples(transitions, st.integers(min_value=1, max_value=40))),
    st.tuples(st.just("record_transitions"), st.lists(transitions, max_size=5)),
    st.tuples(st.just("add_placeholder"), query_keys),
    st.tuples(st.just("merge_counts"), st.lists(paths, min_size=1, max_size=3)),
    st.tuples(st.just("process"), st.none()),
)


def apply(model: MarkovModel, operation: str, argument) -> None:
    if operation == "add_path":
        raw_path, aborted = argument
        model.add_path(to_steps(raw_path), aborted=aborted)
    elif operation == "record_transition":
        (source, target), count = argument
        model.record_transition(source, target, count)
    elif operation == "record_transitions":
        model.record_transitions(argument)
    elif operation == "add_placeholder":
        model.add_placeholder(argument, QueryType.READ)
    elif operation == "merge_counts":
        other = MarkovModel(model.procedure, model.num_partitions)
        for raw_path, aborted in argument:
            other.add_path(to_steps(raw_path), aborted=aborted)
        model.merge_counts(other)
    else:
        model.process()


def assert_memos_match_a_fresh_rebuild(model: MarkovModel) -> None:
    ghost = VertexKey.query("Ghost", 9, PartitionSet.of([0]), PartitionSet.of([]))
    for key in [vertex.key for vertex in model.vertices()] + [ghost]:
        pairs = sorted(
            ((edge.target, edge.probability) for edge in model.edges_from(key)),
            key=lambda pair: (-pair[1], pair[0].sort_token),
        )
        records = [
            (k, p, k.is_terminal, k.name, k.counter, k.previous, k.partitions)
            for k, p in pairs
        ]
        assert model.successors(key) == pairs
        assert model.successor_records(key) == records
        assert model.successor_hint(key) == MarkovModel._build_hint(pairs)
        assert model.successor_groups(key) == MarkovModel._build_groups(records)
        for target, probability in pairs:
            probed = model.probe_successor(
                key, target.name, target.counter, target.previous, target.partitions
            )
            assert probed == (None if target.is_terminal else (target, probability))
        assert model.probe_successor(
            key, ghost.name, ghost.counter, ghost.previous, ghost.partitions
        ) is None


def derived_state(model: MarkovModel) -> list:
    state = []
    for vertex in model.vertices():
        table = vertex.table
        state.append((
            vertex.key,
            [(edge.target, edge.hits, edge.probability)
             for edge in model.edges_from(vertex.key)],
            vertex.expected_remaining_queries,
            None if table is None else (
                table.single_partition, table.abort,
                list(table.read), list(table.write), list(table.finish),
            ),
        ))
    return state


def assert_incremental_equals_full(model: MarkovModel) -> None:
    full = model_from_dict(model_to_dict(model))
    _, acyclic = model._topological_order()
    if acyclic:
        assert derived_state(model) == derived_state(full)
        return
    # Placeholder edges closed a cycle: tables come from a bounded fixed-point
    # iteration whose last digits depend on where it started.  Counts and
    # edge probabilities are still exact.
    for mine, theirs in zip(derived_state(model), derived_state(full)):
        assert mine[:2] == theirs[:2]
        assert model.vertex(mine[0]).table.approx_equal(
            full.vertex(mine[0]).table, tolerance=1e-6
        )


_A = VertexKey.query("A", 0, PartitionSet.of([0]), PartitionSet.of([]))
_B = VertexKey.query("B", 0, PartitionSet.of([1]), PartitionSet.of([0]))


@given(st.lists(operations, min_size=1, max_size=25))
@example([  # run-time edges close a cycle A <-> B (rare under random draws)
    ("record_transitions", [(BEGIN_KEY, _A), (_A, _B), (_B, _A), (_B, COMMIT_KEY)]),
    ("process", None),
    ("record_transition", ((_B, _A), 7)),
    ("process", None),
])
@settings(deadline=None)
def test_memoized_structures_equal_a_fresh_rebuild_after_every_step(steps):
    model = MarkovModel("prop", PARTITIONS)
    for operation, argument in steps:
        apply(model, operation, argument)
        assert_memos_match_a_fresh_rebuild(model)
        if operation == "process":
            assert_incremental_equals_full(model)
    model.process()
    assert_memos_match_a_fresh_rebuild(model)
    assert_incremental_equals_full(model)
