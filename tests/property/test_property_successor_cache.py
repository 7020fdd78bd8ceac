"""Property: a vertex's successor view never disagrees with the model.

Random interleavings of every mutation a model accepts — ``fold_path``
(through ``add_path``), ``log_transitions`` (one pair many times, or an
attempt's batch), ``add_placeholder`` — and ``process()``.  After every step every vertex's
``SuccessorView`` — pairs, records, name/terminal summary and, touched here
on every step, its probe index and per-name groups — must equal a fresh
rebuild from the edges (a count change keeps the view, a structure change
drops it, a processing pass replaces it: none of the three may ever leave a
stale answer behind).  After every ``process()`` the incrementally
maintained model must hold the very floats a full ``process()`` computes on
a serialized copy.  And across every step, whatever the model had *published*
for walks to read — a ``SuccessorView``, a ``ProbabilityTable`` — still holds
what it held when it was captured: the model replaces those objects and never
mutates them, which is what lets the plan memo validate a memoized walk by
the identity of what it read (``MarkovModel.still_publishes``).

Tier-1 runs the default budget; CI's ``learning-smoke`` job runs
``--hypothesis-profile=long`` (registered in ``tests/conftest.py``).
"""

from __future__ import annotations

import copy

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.markov import MarkovModel
from repro.markov.serialization import model_from_dict, model_to_dict
from repro.markov.vertex import ABORT_KEY, BEGIN_KEY, COMMIT_KEY, VertexKey
from repro.types import PartitionSet, QueryType
from tests.conftest import add_path, to_steps

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
    st.tuples(st.just("log_repeated"),
              st.tuples(transitions, st.integers(min_value=1, max_value=40))),
    st.tuples(st.just("log_transitions"), st.lists(transitions, max_size=5)),
    st.tuples(st.just("add_placeholder"), query_keys),
    st.tuples(st.just("process"), st.none()),
)


def apply(model: MarkovModel, operation: str, argument) -> None:
    if operation == "add_path":
        raw_path, aborted = argument
        add_path(model, to_steps(raw_path), aborted=aborted)
    elif operation == "log_repeated":
        (source, target), count = argument
        model.log_transitions([(source, target)] * count)
    elif operation == "log_transitions":
        model.log_transitions(argument)
    elif operation == "add_placeholder":
        model.add_placeholder(argument, QueryType.READ)
    else:
        model.process()


def assert_views_match_a_fresh_rebuild(model: MarkovModel) -> None:
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
        view = model.successor_view(key)
        # Known vertices keep one view object; an unknown one is never kept.
        assert (model.successor_view(key) is view) == (key != ghost)
        assert model.successors(key) == pairs
        assert view.pairs == pairs
        assert view.records == records
        names = {k.name for k, _ in pairs if not k.is_terminal}
        assert view.single_name == (names.pop() if len(names) == 1 else None)
        assert view.has_terminal == any(k.is_terminal for k, _ in pairs)
        groups, group_names, terminals = view.groups()
        queries = [(i, r) for i, r in enumerate(records) if not r[2]]
        assert terminals == tuple((i, r[0], r[1]) for i, r in enumerate(records) if r[2])
        assert group_names == tuple(dict.fromkeys(r[3] for _, r in queries))
        assert groups == {
            group_key: tuple(
                (i, r[0], r[1], r[6]) for i, r in queries if (r[3], r[4], r[5]) == group_key
            )
            for group_key in {(r[3], r[4], r[5]) for _, r in queries}
        }
        for target, probability in pairs:
            probed = view.probe(target.name, target.counter, target.previous, target.partitions)
            assert probed == (None if target.is_terminal else (target, probability))
        assert view.probe(ghost.name, ghost.counter, ghost.previous, ghost.partitions) is None


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


def view_content(view) -> tuple:
    return (list(view.pairs), list(view.records), view.single_name, view.has_terminal)


def published(model: MarkovModel) -> list[tuple]:
    """Every view and table the model publishes, each with a copy of what it
    holds now.  Their lazily filled caches (the benign exception to "never
    mutated") are forced first, half of the time, so both orders occur."""
    captured = []
    for index, vertex in enumerate(model.vertices()):
        view, table = model.successor_view(vertex.key), vertex.table
        captured.append((view, view_content, view_content(view)))
        if table is not None:
            if index % 2:
                table.positive_access()
            captured.append((table, copy.deepcopy, copy.deepcopy(table)))
    return captured


def assert_never_mutated(captured: list[tuple]) -> None:
    for published_object, content_of, content in captured:
        assert content_of(published_object) == content, (
            f"a published {type(published_object).__name__} was mutated in place"
        )


def check(steps) -> None:
    model = MarkovModel("prop", PARTITIONS)
    for operation, argument in [*steps, ("process", None)]:
        captured = published(model)
        apply(model, operation, argument)
        assert_never_mutated(captured)
        assert_views_match_a_fresh_rebuild(model)
        if operation == "process":
            assert_incremental_equals_full(model)


@given(st.lists(operations, min_size=1, max_size=25))
@example([  # run-time edges close a cycle A <-> B (rare under random draws)
    ("log_transitions", [(BEGIN_KEY, _A), (_A, _B), (_B, _A), (_B, COMMIT_KEY)]),
    ("process", None),
    ("log_repeated", ((_B, _A), 7)),
    ("process", None),
])
@settings(deadline=None)
def test_successor_views_equal_a_fresh_rebuild_after_every_step(steps):
    check(steps)


# ----------------------------------------------------------------------
# The property is only worth its budget if it catches the bugs it is for:
# a seeded mutation of ``_new_edge``, the one edge creation; one of
# ``_count_visits``, which folds logged hits into the edges and marks their
# sources dirty; one of ``fold_path``, whose counted hits mark nothing dirty
# but force a full pass; and one of ``_table_for`` that refreshes a
# published table in place.
# ----------------------------------------------------------------------
_new_edge = MarkovModel._new_edge
_table_for = MarkovModel._table_for
_fold_path = MarkovModel.fold_path


def _table_refreshed_in_place(self, key):
    table, published_table = _table_for(self, key), self.vertex(key).table
    if published_table is None:
        return table
    published_table.single_partition, published_table.abort = table.single_partition, table.abort
    published_table.read[:], published_table.write[:] = table.read, table.write
    published_table.finish[:] = table.finish
    return published_table


def _new_edge_keeps_the_view(self, source, target):
    view = self._successor_views.get(source)
    edge = _new_edge(self, source, target)
    if view is not None:
        self._successor_views[source] = view
    return edge


def _hit_does_not_dirty_the_source(self, counts):
    edges = self._edges
    for (source, target), count in counts.items():
        edges[source][target].hits += count


def _fold_path_leaves_the_model_processed(self, path, aborted):
    processed = self._processed
    _fold_path(self, path, aborted)
    self._processed = processed


class TestMutationsAreCaught:
    fork = [
        ("add_path", ([("A", 0, False)], False)),
        ("add_path", ([("A", 1, False)], False)),
        ("process", None),
    ]

    def test_a_new_edge_that_keeps_the_view(self, monkeypatch):
        script = self.fork + [("log_repeated", ((BEGIN_KEY, ABORT_KEY), 1))]
        check(script)
        monkeypatch.setattr(MarkovModel, "_new_edge", _new_edge_keeps_the_view)
        with pytest.raises(AssertionError):
            check(script)

    def test_a_hit_that_does_not_dirty_its_source(self, monkeypatch):
        script = self.fork + [("log_repeated", ((BEGIN_KEY, _A), 7)), ("process", None)]
        check(script)
        monkeypatch.setattr(MarkovModel, "_count_visits", _hit_does_not_dirty_the_source)
        with pytest.raises(AssertionError):
            check(script)

    def test_a_counted_hit_that_leaves_the_model_processed(self, monkeypatch):
        script = self.fork + [("add_path", ([("A", 0, False)], False)), ("process", None)]
        check(script)
        monkeypatch.setattr(MarkovModel, "fold_path", _fold_path_leaves_the_model_processed)
        with pytest.raises(AssertionError):
            check(script)

    def test_a_recompute_that_refreshes_a_table_in_place(self, monkeypatch):
        """Every value is right — only the plan memo, which trusts identity,
        would be fooled."""
        script = self.fork + [("log_repeated", ((BEGIN_KEY, _A), 7)), ("process", None)]
        monkeypatch.setattr(MarkovModel, "_table_for", _table_refreshed_in_place)
        with pytest.raises(AssertionError, match="ProbabilityTable was mutated in place"):
            check(script)
