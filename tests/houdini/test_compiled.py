"""Tests for the compiled statement resolvers (houdini/compiled.py).

The compiled resolvers must be *observationally identical* to the
paper-literal reference (``reference.py`` beside this file) — same
predictions, same estimates, same footprints — they only move the
catalog/mapping resolution from per-candidate-state to per-procedure.
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
from repro.houdini.compiled import CONST, DOMINANT, MAPPED, UNKNOWN, CompiledProcedure
from repro.mapping import MappingEntry, ParameterMapping
from repro.markov import MarkovModel
from repro.session import ClusterSpec, train
from repro.types import PartitionSet
from tests.houdini.reference import ReferenceEstimator

# ----------------------------------------------------------------------
# Synthetic catalog covering every resolver kind.
# ----------------------------------------------------------------------


class KitchenSinkProcedure(StoredProcedure):
    name = "kitchen_sink"
    parameters = (
        ProcedureParameter("key"),
        ProcedureParameter("ids", is_array=True),
    )
    statements = {
        "ReadReplicated": Statement(
            name="ReadReplicated", table="LOOKUP", operation=Operation.SELECT,
            where={"L_ID": param(0)},
        ),
        "WriteReplicated": Statement(
            name="WriteReplicated", table="LOOKUP", operation=Operation.UPDATE,
            where={"L_ID": param(0)}, set_values={"L_VALUE": param(0)},
        ),
        "ReadLiteral": Statement(
            name="ReadLiteral", table="DATA", operation=Operation.SELECT,
            where={"D_ID": 7},
        ),
        "ReadMapped": Statement(
            name="ReadMapped", table="DATA", operation=Operation.SELECT,
            where={"D_ID": param(0)},
        ),
        "ReadUnmapped": Statement(
            name="ReadUnmapped", table="DATA", operation=Operation.SELECT,
            where={"D_ID": param(1)},
        ),
        "Broadcast": Statement(
            name="Broadcast", table="DATA", operation=Operation.SELECT,
            where={"D_VALUE": param(0)},
        ),
        "ReadUnpartitioned": Statement(
            name="ReadUnpartitioned", table="FLAT", operation=Operation.SELECT,
            where={"F_ID": param(0)},
        ),
    }

    def run(self, ctx, key, ids):  # pragma: no cover - never executed
        return None


def make_catalog() -> Catalog:
    schema = Schema([
        Table(
            name="LOOKUP",
            columns=[integer("L_ID"), integer("L_VALUE")],
            primary_key=["L_ID"],
            replicated=True,
        ),
        Table(
            name="DATA",
            columns=[integer("D_ID"), integer("D_VALUE")],
            primary_key=["D_ID"],
            partition_column="D_ID",
        ),
        Table(
            name="FLAT",
            columns=[integer("F_ID")],
            primary_key=["F_ID"],
        ),
    ])
    return Catalog(schema, PartitionScheme(4, 2), [KitchenSinkProcedure()])


def make_mapping() -> ParameterMapping:
    return ParameterMapping(
        procedure="kitchen_sink",
        entries=[
            MappingEntry(
                statement="ReadMapped", query_param_index=0,
                procedure_param_index=0, array_aligned=False, coefficient=1.0,
            ),
        ],
    )


@pytest.fixture
def catalog():
    return make_catalog()


@pytest.fixture
def compiled(catalog):
    return CompiledProcedure(
        catalog.procedure("kitchen_sink"), catalog, make_mapping()
    )


class TestResolverKinds:
    def test_kinds_resolved_at_compile_time(self, compiled):
        kinds = {name: cs.kind for name, cs in compiled.statements.items()}
        assert kinds == {
            "ReadReplicated": DOMINANT,
            "WriteReplicated": CONST,
            "ReadLiteral": CONST,
            "ReadMapped": MAPPED,
            "ReadUnmapped": UNKNOWN,
            "Broadcast": CONST,
            "ReadUnpartitioned": CONST,
        }

    def test_const_resolvers(self, compiled, catalog):
        scheme = catalog.scheme
        empty = PartitionSet.of([])
        all_parts = scheme.all_partitions()
        assert compiled.predict_partitions("WriteReplicated", 0, (1, ()), empty) == all_parts
        assert compiled.predict_partitions("Broadcast", 0, (1, ()), empty) == all_parts
        assert compiled.predict_partitions("ReadLiteral", 0, (1, ()), empty) == \
            PartitionSet.of([scheme.partition_for_value(7)])
        assert compiled.predict_partitions("ReadUnpartitioned", 0, (1, ()), empty) == \
            PartitionSet.of([0])

    def test_dominant_uses_first_touched_partition(self, compiled):
        assert compiled.predict_partitions(
            "ReadReplicated", 0, (1, ()), PartitionSet.of([2, 3])
        ) == PartitionSet.of([2])
        assert compiled.predict_partitions(
            "ReadReplicated", 0, (1, ()), PartitionSet.of([])
        ) is None

    def test_mapped_and_unknown(self, compiled, catalog):
        empty = PartitionSet.of([])
        assert compiled.predict_partitions("ReadMapped", 0, (9, ()), empty) == \
            PartitionSet.of([catalog.scheme.partition_for_value(9)])
        assert compiled.predict_partitions("ReadMapped", 0, (None, ()), empty) is None
        assert compiled.predict_partitions("ReadUnmapped", 0, (9, ()), empty) is None

    def test_footprint_is_all_when_any_statement_is_unpredictable(self, compiled, catalog):
        # WriteReplicated / Broadcast / ReadUnmapped force the full range.
        assert compiled.footprint((5, ())) == frozenset(range(4))

    def test_footprint_none_without_mapping(self, catalog):
        compiled = CompiledProcedure(
            catalog.procedure("kitchen_sink"), catalog, None
        )
        assert compiled.footprint((5, ())) is None


class TestEquivalenceWithReference:
    """Compiled predictions must match the paper-literal reference exactly."""

    def _estimators(self, artifacts):
        arguments = (
            artifacts.benchmark.catalog, GlobalModelProvider(artifacts.models),
            artifacts.mappings, HoudiniConfig(),
        )
        return PathEstimator(*arguments), ReferenceEstimator(*arguments)

    def _assert_identical(self, artifacts, count=150):
        compiled, reference = self._estimators(artifacts)
        requests = artifacts.benchmark.generator.generate(count)
        for request in requests:
            fast = compiled.estimate(request)
            slow = reference.estimate(request)
            assert fast.vertices == slow.vertices
            assert fast.edge_probabilities == slow.edge_probabilities
            assert fast.abort_probability == slow.abort_probability
            assert fast.predicted_abort == slow.predicted_abort
            assert fast.work_units == slow.work_units
            assert fast.touched_partitions() == slow.touched_partitions()
            assert fast.base_partition() == slow.base_partition()
            for pid, prediction in fast.partitions.items():
                other = slow.partitions[pid]
                assert prediction.access_confidence == other.access_confidence
                assert prediction.last_access_index == other.last_access_index
                assert prediction.written == other.written
            assert compiled.predicted_footprint(request) == \
                reference.predicted_footprint(request)

    def test_tpcc_estimates_identical(self, tpcc_artifacts):
        self._assert_identical(tpcc_artifacts)

    def test_tatp_estimates_identical(self, tatp_artifacts):
        self._assert_identical(tatp_artifacts)

    def test_one_successor_view_fetch_per_walk_step(self, tpcc_artifacts, monkeypatch):
        """The walker's only model read per step is one ``successor_view``
        call: `_choose` and its strategies read the view they are handed."""
        compiled, _ = self._estimators(tpcc_artifacts)
        fetches = []
        fetch = MarkovModel.successor_view

        def counting(self, key):
            fetches.append(key)
            return fetch(self, key)

        monkeypatch.setattr(MarkovModel, "successor_view", counting)
        neworders = [
            request for request in tpcc_artifacts.benchmark.generator.generate(60)
            if request.procedure == "neworder"
        ]
        assert neworders
        for request in neworders:
            del fetches[:]
            estimate = compiled.estimate(request)
            assert estimate.reached_terminal and len(estimate.vertices) > 10
            assert fetches == estimate.vertices[:-1]

    def test_predict_partitions_equivalence(self, tpcc_artifacts):
        catalog = tpcc_artifacts.benchmark.catalog
        _, reference = self._estimators(tpcc_artifacts)
        requests = tpcc_artifacts.benchmark.generator.generate(25)
        for procedure_name, mapping in tpcc_artifacts.mappings.items():
            procedure = catalog.procedure(procedure_name)
            compiled = CompiledProcedure(procedure, catalog, mapping)
            for request in requests:
                if request.procedure != procedure_name:
                    continue
                for statement_name in procedure.statements:
                    for counter in (0, 1, 2):
                        for accumulated in (
                            PartitionSet.of([]),
                            PartitionSet.of([1]),
                            PartitionSet.of([0, 2]),
                        ):
                            assert compiled.predict_partitions(
                                statement_name, counter, request.parameters, accumulated
                            ) == reference.predict_partitions(
                                procedure_name, statement_name, counter,
                                request.parameters, accumulated,
                            )


class TestFootprintSignatureParity:
    @pytest.fixture(scope="class")
    def auctionmark_estimator(self):
        artifacts = train(ClusterSpec(
            benchmark="auctionmark", num_partitions=4, trace_transactions=400, seed=11
        ))
        estimator = PathEstimator(
            artifacts.benchmark.catalog,
            artifacts.global_provider(),
            artifacts.mappings,
            HoudiniConfig(),
        )
        return artifacts, estimator

    def test_combined_equals_separate_on_live_requests(self, auctionmark_estimator):
        artifacts, estimator = auctionmark_estimator
        generator = artifacts.benchmark.generator
        for _ in range(200):
            req = generator.next_request()
            compiled = estimator._compiled_for(req.procedure)
            assert compiled.footprint_and_signature(req.parameters) == (
                compiled.footprint(req.parameters),
                compiled.binding_signature(req.parameters),
            )

    def test_footprint_all_short_parameters_do_not_raise(self, auctionmark_estimator):
        """Regression: a broadcast/replicated-write procedure's footprint is
        the whole cluster without consulting the parameters, so a short
        parameter list must not raise on the combined path either."""
        artifacts, estimator = auctionmark_estimator
        checked = 0
        for name in artifacts.models:
            compiled = estimator._compiled_for(name)
            if not compiled._footprint_all:
                continue
            footprint, signature = compiled.footprint_and_signature(())
            assert footprint == compiled.footprint(())
            assert signature is None or isinstance(signature, tuple)
            checked += 1
        assert checked > 0, "AuctionMark should have footprint_all procedures"
