"""Property: the transition log learns exactly what counting each transition
as it happened learned.

Run-time learning writes an attempt's path once: ``MarkovModel.
log_transitions`` counts vertex hits and adds placeholders and new edges at
once, and appends the pairs to the model's log; edge hits and maintenance's
observed counters are folded from the log in one aggregated pass at the next
check (or before any reader of edge counts), and ``process`` republishes only
the views and tables that changed.  The naive side is the write path it
replaced, kept in ``tests/houdini/reference.py``: ``ReferenceModel``
(per-transition ``record_transitions``, full-republish ``process``) and
``ReferenceMaintenance`` (fed every attempt's pairs one by one).

Both sides are driven by the same Hypothesis-drawn attempt stream: prefixes
that follow the model's own edges (handed over as known), deviations into
known and unknown states (placeholders typed by the monitor or created by
the log), new terminal edges, drift checks, recomputes, direct processing
passes and edge-count reads between checks.  At every comparison point they
must agree bit for bit: the model's whole state (``model_state``:
structure, hits, every probability and table cell, successor order),
``version``, the observed counters' key order and counts, the maintenance
counters (``last_accuracy`` included) and every check verdict.

Tier-1 runs a fixed-seed budget; CI's ``planning-smoke`` job runs
``--hypothesis-profile=long``.
"""

from __future__ import annotations

import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.houdini import HoudiniConfig, ModelMaintenance
from repro.markov import MarkovModel
from repro.markov.vertex import ABORT_KEY, BEGIN_KEY, COMMIT_KEY, VertexKey
from repro.types import PartitionSet, QueryType
from tests.conftest import add_path, to_steps
from tests.houdini.reference import ReferenceMaintenance, ReferenceModel
from tests.oracles import model_state

PARTITIONS = 3

raw_paths = st.lists(
    st.tuples(
        st.sampled_from(["A", "B"]),
        st.integers(min_value=0, max_value=PARTITIONS - 1),
        st.booleans(),  # write?
    ),
    min_size=1, max_size=4,
)
#: The trained model both sides start from: (path, aborted) records.
corpora = st.lists(st.tuples(raw_paths, st.booleans()), min_size=1, max_size=6)

#: States a deviation may enter: most arise from ``raw_paths`` (hits land on
#: existing vertices), ``Z`` never does (placeholders appear).
query_keys = st.builds(
    VertexKey.query,
    st.sampled_from(["A", "B", "Z"]),
    st.integers(min_value=0, max_value=1),
    st.builds(lambda p: PartitionSet.of([p]), st.integers(0, PARTITIONS - 1)),
    st.builds(PartitionSet.of, st.lists(st.integers(0, PARTITIONS - 1), max_size=2)),
)

attempts = st.tuples(
    st.lists(st.integers(min_value=0, max_value=7), max_size=4),  # followed prefix
    st.lists(query_keys, max_size=3),  # deviation
    st.booleans(),  # does the monitor add typed placeholders first?
    st.booleans(),  # aborted?
)
operations = st.one_of(
    st.tuples(st.just("attempt"), attempts),
    st.tuples(st.just("attempt"), attempts),
    st.tuples(st.just("attempt"), attempts),
    st.tuples(st.just("check"), st.none()),
    st.tuples(st.just("recompute"), st.none()),
    st.tuples(st.just("process"), st.none()),
    st.tuples(st.just("read"), st.integers(min_value=0, max_value=7)),
    st.tuples(st.just("accuracy"), st.integers(min_value=0, max_value=7)),
    st.tuples(st.just("compare"), st.none()),
)


class Side:
    """One model plus its maintenance, learning through one write path."""

    def __init__(self, model_class, maintenance_class, corpus, config) -> None:
        self.model = model_class("prop", PARTITIONS)
        for raw_path, aborted in corpus:
            add_path(self.model, to_steps(raw_path), aborted=aborted)
        self.model.process()
        self.maintenance = maintenance_class(self.model, config)

    def learn(self, transitions, known) -> None:
        if isinstance(self.model, ReferenceModel):
            self.model.record_transitions(transitions)
            self.maintenance.record_transitions(transitions)
        else:
            self.model.log_transitions(transitions, known)


def attempt_path(model: MarkovModel, argument):
    """An attempt's transitions and the known targets of its followed prefix:
    walk the model's own edges from ``begin`` (as an estimate would), then
    deviate through the drawn states, then commit or abort."""
    choices, deviation, _, aborted = argument
    states, known = [BEGIN_KEY], []
    for choice in choices:
        successors = [key for key, _ in model.successors(states[-1]) if key.is_query]
        if not successors:
            break
        states.append(successors[choice % len(successors)])
        known.append(model.vertex(states[-1]))
    states += deviation
    states.append(ABORT_KEY if aborted else COMMIT_KEY)
    return list(zip(states, states[1:])), known


def fingerprint(side: Side) -> dict:
    maintenance = side.maintenance
    maintenance.fold()
    state = model_state(side.model)
    stats = maintenance.stats
    return {
        "model": hashlib.sha256(json.dumps(state, sort_keys=True).encode()).hexdigest(),
        "version": side.model.version,
        "stale": side.model.stale,
        "observed": [
            (str(source), [(str(target), count) for target, count in targets.items()])
            for source, targets in maintenance._observed.items()
        ],
        "stats": (stats.transitions_observed, stats.accuracy_checks,
                  stats.recomputations, stats.last_accuracy.hex()),
    }


def run(corpus, config_args, script) -> None:
    min_observations, threshold = config_args
    new, old = (
        Side(model_class, maintenance_class, corpus, HoudiniConfig(
            maintenance_min_observations=min_observations,
            maintenance_accuracy_threshold=threshold,
        ))
        for model_class, maintenance_class in (
            (MarkovModel, ModelMaintenance), (ReferenceModel, ReferenceMaintenance)
        )
    )
    for operation, argument in [*script, ("check", None), ("compare", None)]:
        if operation == "attempt":
            transitions, known = attempt_path(new.model, argument)
            for side in (new, old):
                if argument[2]:  # the monitor met the unknown states first
                    for _, target in transitions:
                        if target.is_query and side.model.find_vertex(target) is None:
                            side.model.add_placeholder(target, QueryType.WRITE)
                side.learn(transitions, [side.model.vertex(v.key) for v in known])
            assert new.model.version == old.model.version
            assert [v.hits for v in new.model.vertices()] == [
                v.hits for v in old.model.vertices()
            ]
        elif operation == "check":
            verdicts = [side.maintenance.check() for side in (new, old)]
            assert verdicts[0] == verdicts[1]
            assert new.maintenance.stats.last_accuracy.hex() == (
                old.maintenance.stats.last_accuracy.hex()
            )
        elif operation == "recompute":
            for side in (new, old):
                side.maintenance.recompute()
        elif operation == "process":
            for side in (new, old):
                side.model.process()
        elif operation == "read":
            # An edge-count reader between checks folds the model's share
            # of the log; the maintenance's share waits for the check.
            keys = [vertex.key for vertex in new.model.vertices()]
            key = keys[argument % len(keys)]
            assert [(e.target, e.hits) for e in new.model.edges_from(key)] == [
                (e.target, e.hits) for e in old.model.edges_from(key)
            ]
        elif operation == "accuracy":
            keys = [vertex.key for vertex in new.model.vertices()]
            key = keys[argument % len(keys)]
            assert new.maintenance.vertex_accuracy(key).hex() == (
                old.maintenance.vertex_accuracy(key).hex()
            )
        else:
            assert fingerprint(new) == fingerprint(old)


scripts = st.lists(operations, min_size=1, max_size=30)
config_args = st.tuples(
    st.integers(min_value=1, max_value=6),
    st.sampled_from([0.5, 0.75, 0.95, 1.0]),
)


@given(corpora, config_args, scripts)
@settings(deadline=None, derandomize=True,
          max_examples=max(150, settings.default.max_examples // 2))
def test_the_log_learns_what_counting_each_transition_learned(corpus, config, script):
    run(corpus, config, script)


# ----------------------------------------------------------------------
# The property is only worth its budget if it catches the bugs it is for.
# Each mutation gets a script the unmutated code passes.
# ----------------------------------------------------------------------
_A0 = VertexKey.query("A", 0, PartitionSet.of([0]), PartitionSet.of([]))
_CORPUS = [
    ([("A", 0, False), ("B", 1, True)], False),
    ([("A", 0, False), ("B", 2, True)], False),
    ([("A", 0, False)], True),
]


def _fold_drops_the_terminal_pair(self, counts):
    edges = self._edges
    for (source, target), count in counts.items():
        if not target.is_terminal:
            edges[source][target].hits += count
    if self._dirty is not None:
        self._dirty.update(source for source, _ in counts)


def _keeps_a_table_whose_child_was_replaced(self, order, changed):
    vertices = self._vertices
    for key in order:
        vertex = vertices[key]
        published = vertex.table
        if published is not None and key not in changed and key not in self._reshaped:
            continue
        self._reshaped.discard(key)
        table = self._table_for(key)
        if table != published:
            vertex.table = table


def _fold_counts_a_repeated_pair_once(self):
    log, counts = self.model.drain_log()
    self.stats.transitions_observed += len(log)
    for source, target in counts:
        targets = self._observed.setdefault(source, {})
        targets[target] = targets.get(target, 0) + 1


class TestMutationsAreCaught:
    drift = [
        # Two attempts that leave A for B#2 (abort) shift A's distribution;
        # B's own probabilities stay put, so only a replaced child can move
        # begin's table.
        ("attempt", ([0], [VertexKey.query("B", 0, PartitionSet.of([2]),
                                           PartitionSet.of([0]))], True, True)),
        ("attempt", ([0, 1], [], False, False)),
        ("process", None),
        ("compare", None),
    ]

    @pytest.mark.parametrize("attribute, mutation", [
        ("_count_visits", _fold_drops_the_terminal_pair),
        ("_refresh", _keeps_a_table_whose_child_was_replaced),
    ])
    def test_model_mutation(self, monkeypatch, attribute, mutation):
        run(_CORPUS, (1, 0.75), self.drift)
        monkeypatch.setattr(MarkovModel, attribute, mutation)
        with pytest.raises(AssertionError):
            run(_CORPUS, (1, 0.75), self.drift)

    def test_a_fold_that_counts_a_repeated_pair_once(self, monkeypatch):
        script = [
            ("attempt", ([0], [], False, False)),
            ("attempt", ([0], [], False, False)),
            ("compare", None),
        ]
        run(_CORPUS, (1, 0.75), script)
        monkeypatch.setattr(ModelMaintenance, "fold", _fold_counts_a_repeated_pair_once)
        with pytest.raises(AssertionError):
            run(_CORPUS, (1, 0.75), script)
