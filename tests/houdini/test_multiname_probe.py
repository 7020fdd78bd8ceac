"""Tests for the multi-name successor index (per-name groups).

Covers the model-side structure (`SuccessorView.groups`, which lives and
dies with its vertex's view) and the estimator's grouped candidate selection,
which must be observationally identical to both the compiled record scan
and the paper-literal reference (``reference.py``).
"""

from __future__ import annotations

import pytest

from repro.catalog import (
    Catalog,
    Operation,
    PartitionScheme,
    ProcedureParameter,
    Schema,
    Statement,
    StoredProcedure,
    Table,
    integer,
    param,
)
from repro.houdini import GlobalModelProvider, HoudiniConfig, PathEstimator
from repro.houdini import estimator as estimator_module
from repro.mapping import MappingEntry, ParameterMapping, ParameterMappingSet
from repro.markov.model import MarkovModel, PathStep
from repro.types import PartitionSet, ProcedureRequest, QueryType
from tests.conftest import add_path
from tests.houdini.reference import ReferenceEstimator

NUM_PARTITIONS = 4


class FanOutProcedure(StoredProcedure):
    """First statement is one of four reads, each on a parameter-determined
    partition — a wide multi-name branch right at the begin vertex."""

    name = "fanout"
    parameters = (ProcedureParameter("a"), ProcedureParameter("b"))
    statements = {
        name: Statement(
            name=name, table="DATA", operation=Operation.SELECT,
            where={"D_ID": param(0)},
        )
        for name in ("ReadA", "ReadB", "ReadC", "ReadD")
    }

    def run(self, ctx, a, b):  # pragma: no cover - never executed
        return None


def make_catalog() -> Catalog:
    schema = Schema([
        Table(
            name="DATA",
            columns=[integer("D_ID"), integer("D_VALUE", nullable=True)],
            primary_key=["D_ID"],
            partition_column="D_ID",
        ),
    ])
    return Catalog(schema, PartitionScheme(NUM_PARTITIONS, 2), [FanOutProcedure()])


def make_mappings() -> ParameterMappingSet:
    mapping = ParameterMapping(procedure="fanout")
    for name in ("ReadA", "ReadB", "ReadC", "ReadD"):
        mapping.add(MappingEntry(
            statement=name, query_param_index=0,
            procedure_param_index=0, array_aligned=False, coefficient=1.0,
        ))
    mappings = ParameterMappingSet()
    mappings.add(mapping)
    return mappings


def make_model() -> MarkovModel:
    """Begin fans out to 4 names x 4 partitions = 16 successors."""
    model = MarkovModel("fanout", NUM_PARTITIONS)
    empty = PartitionSet.of([])
    for weight, name in ((40, "ReadA"), (30, "ReadB"), (20, "ReadC"), (10, "ReadD")):
        for partition in range(NUM_PARTITIONS):
            step = PathStep(
                statement=name, query_type=QueryType.READ,
                partitions=PartitionSet.of([partition]), previous=empty, counter=0,
            )
            for _ in range(weight):
                add_path(model, [step], aborted=False)
    model.process()
    return model


@pytest.fixture()
def setup():
    catalog = make_catalog()
    mappings = make_mappings()
    model = make_model()
    provider = GlobalModelProvider({"fanout": model})
    return catalog, mappings, model, provider


class TestSuccessorGroups:
    def test_groups_cover_every_non_terminal_successor(self, setup):
        _, _, model, _ = setup
        groups, names, terminals = model.successor_view(model.begin).groups()
        assert set(names) == {"ReadA", "ReadB", "ReadC", "ReadD"}
        assert terminals == ()
        total = sum(len(bucket) for bucket in groups.values())
        assert total == len(model.successors(model.begin)) == 16

    def test_group_probe_matches_the_identity_probe(self, setup):
        _, _, model, _ = setup
        empty = PartitionSet.of([])
        view = model.successor_view(model.begin)
        groups, _, _ = view.groups()
        for partition in range(NUM_PARTITIONS):
            bucket = groups[("ReadB", 0, empty)]
            match = [
                entry for entry in bucket
                if entry[3] == PartitionSet.of([partition])
            ]
            assert len(match) == 1
            probe = view.probe("ReadB", 0, empty, PartitionSet.of([partition]))
            assert probe == (match[0][1], match[0][2])

    def test_positions_restore_record_order(self, setup):
        _, _, model, _ = setup
        view = model.successor_view(model.begin)
        records = view.records
        groups, _, _ = view.groups()
        flattened = sorted(
            (entry for bucket in groups.values() for entry in bucket),
            key=lambda entry: entry[0],
        )
        assert [entry[1] for entry in flattened] == [record[0] for record in records]

    def test_invalidated_on_runtime_learning(self, setup):
        _, _, model, _ = setup
        begin = model.begin
        cached = model.successor_view(begin).groups()
        target = model.successors(begin)[0][0]
        model.log_transitions([(begin, target)])
        # A counted visit changes no probability: the view and its groups are
        # kept until reprocessing replaces them to reflect the new counts.
        assert model.successor_view(begin).groups() is cached
        model.process()
        groups, names, _ = model.successor_view(begin).groups()
        assert (groups, names) != cached[:2]
        assert set(names) == {"ReadA", "ReadB", "ReadC", "ReadD"}
        # A new outgoing edge changes the structure: the view goes at once,
        # and the rebuilt one groups the new terminal successor.
        replaced = model.successor_view(begin)
        model.log_transitions([(begin, model.abort)])
        assert model.successor_view(begin) is not replaced
        assert model.successor_view(begin).groups()[2] == ((16, model.abort, 0.0),)


class TestGroupedChoiceEquivalence:
    def _estimate(self, setup, compiled: bool, request):
        catalog, mappings, _, provider = setup
        estimator_class = PathEstimator if compiled else ReferenceEstimator
        estimator = estimator_class(catalog, provider, mappings, HoudiniConfig())
        return estimator.estimate(request)

    @pytest.mark.parametrize("a", range(NUM_PARTITIONS))
    def test_compiled_grouped_equals_reference(self, setup, a):
        request = ProcedureRequest.of("fanout", (a, 0))
        compiled = self._estimate(setup, True, request)
        interpreted = self._estimate(setup, False, request)
        assert compiled.vertices == interpreted.vertices
        assert compiled.edge_probabilities == interpreted.edge_probabilities
        assert compiled.abort_probability == interpreted.abort_probability
        assert dict(compiled.partitions) == dict(interpreted.partitions)

    def test_grouped_branch_is_taken(self, setup, monkeypatch):
        """The begin vertex fans out 16 ways — above the grouped threshold."""
        calls = []
        original = PathEstimator._choose_grouped

        def spy(self, *args, **kwargs):
            calls.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(PathEstimator, "_choose_grouped", spy)
        request = ProcedureRequest.of("fanout", (2, 0))
        estimate = self._estimate(setup, True, request)
        assert calls, "wide multi-name vertex should use the grouped fast path"
        assert estimate.reached_terminal

    def test_grouped_and_scan_pools_agree(self, setup, monkeypatch):
        """Force the scan by raising the fan-out threshold; results match."""
        request = ProcedureRequest.of("fanout", (1, 0))
        grouped = self._estimate(setup, True, request)
        monkeypatch.setattr(estimator_module, "_GROUPED_CHOICE_MIN_FANOUT", 10_000)
        scanned = self._estimate(setup, True, request)
        assert grouped.vertices == scanned.vertices
        assert grouped.edge_probabilities == scanned.edge_probabilities
