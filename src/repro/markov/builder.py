"""Markov-model construction from workload traces (paper §3.2).

The builder folds each distinct execution path once, with its count.  It
groups records by procedure and statement sequence, in order of first
record.  In a group each query position has one statement, one invocation
counter and one routing decision, so the catalog's partition estimator (the
"internal API for the target cluster configuration") routes a whole column
of query parameters at once
(:meth:`~repro.catalog.partitioning.PartitionEstimator.partitions_column`).
A record's path is then its row of partition sets plus whether it aborted.
Each distinct row becomes one path of interned vertex keys (statement,
invocation counter, partitions, previously accessed partitions), and
:meth:`MarkovModel.fold_path` adds the row's count to every state and edge
on it.  Distinct paths are folded in order of first record, so vertices and
edges are created in the order a record-by-record fold creates them, and
every count, probability, ``version`` and insertion order is the same.

A trace with a faulty record (an unknown procedure or statement, parameters
too short to route) is folded record by record instead: the clean prefix is
folded, then the first faulty record raises.

Because partitions are re-estimated from parameters rather than copied from
the trace, the same trace can be used to build models for *any* cluster size
— exactly the property the paper relies on when it regenerates models after a
repartitioning.
"""

from __future__ import annotations

from collections import Counter
from operator import attrgetter, itemgetter
from typing import Callable, Iterable, Mapping, Sequence

from ..catalog.partitioning import default_base_partition
from ..catalog.procedure import StoredProcedure
from ..catalog.schema import Catalog
from ..errors import ModelError
from ..types import EMPTY_PARTITION_SET, PartitionId, QueryType
from ..workload.trace import TransactionTraceRecord, WorkloadTrace
from .model import MarkovModel, PathStep
from .vertex import VertexKey

#: Chooses the base partition assumed for a trace record (controls where
#: replicated-table reads are located).
TraceBaseChooser = Callable[[TransactionTraceRecord], PartitionId]

#: ``(first record, procedure, path, aborted, count)``: one distinct path.
_Fold = tuple[int, str, list[tuple[VertexKey, QueryType]], bool, int]


class MarkovModelBuilder:
    """Builds one Markov model per stored procedure from a workload trace."""

    def __init__(
        self,
        catalog: Catalog,
        *,
        base_partition_chooser: TraceBaseChooser | None = None,
        precompute_tables: bool = True,
    ) -> None:
        self.catalog = catalog
        self.precompute_tables = precompute_tables
        self._choose_base = base_partition_chooser or self._default_base_chooser
        #: Per procedure name: the procedure and its statement table, statement
        #: name -> ``(statement, table, query type)``.  Both are built on first
        #: use and never invalidated: the catalog is immutable.
        self._procedures: dict[str, tuple[StoredProcedure, dict[str, tuple]]] = {}

    # ------------------------------------------------------------------
    def build(self, trace: WorkloadTrace) -> dict[str, MarkovModel]:
        """Build models for every procedure present in ``trace``."""
        models: dict[str, MarkovModel] = {}
        self._fold(models, trace.records)
        for model in models.values():
            model.process(precompute_tables=self.precompute_tables)
        return models

    def extend(self, model: MarkovModel, records: Iterable[TransactionTraceRecord]) -> int:
        """Construction phase only: fold records into an existing model.

        A record of another procedure raises once the records before it are
        folded.
        """
        records = list(records)
        clean = next(
            (index for index, record in enumerate(records) if record.procedure != model.procedure),
            len(records),
        )
        self._fold({model.procedure: model}, records[:clean])
        if clean < len(records):
            raise ModelError(
                f"record for {records[clean].procedure!r} cannot extend model of "
                f"{model.procedure!r}"
            )
        return clean

    def steps_for_record(self, record: TransactionTraceRecord) -> list[PathStep]:
        """Compute the path steps (with partition estimates) for one record."""
        return [
            PathStep(key.name, query_type, key.partitions, key.previous, key.counter)
            for key, query_type in self._path(record)
        ]

    # ------------------------------------------------------------------
    def _fold(
        self, models: dict[str, MarkovModel], records: Sequence[TransactionTraceRecord]
    ) -> None:
        """Fold ``records`` into ``models``, keyed by procedure; a missing
        model is created at its procedure's first record."""
        try:
            paths: Iterable[_Fold] = self._distinct_paths(records)
        except Exception:
            # A faulty record: fold record by record, so that the clean
            # prefix is folded and the first faulty record raises what it
            # raises in record order.
            paths = (
                (index, record.procedure, self._path(record), record.aborted, 1)
                for index, record in enumerate(records)
            )
        for _, procedure, path, aborted, count in paths:
            model = models.get(procedure)
            if model is None:
                model = models[procedure] = MarkovModel(procedure, self.catalog.num_partitions)
            model.fold_path(path, aborted, count)

    def _distinct_paths(self, records: Sequence[TransactionTraceRecord]) -> list[_Fold]:
        """Each distinct ``(procedure, path, aborted)`` of ``records`` with
        its count, in order of first record."""
        groups: dict[tuple[str, tuple[str, ...]], list[int]] = {}
        for index, record in enumerate(records):
            key = (record.procedure, tuple(map(itemgetter(0), record.queries)))
            groups.setdefault(key, []).append(index)
        bases = list(map(self._choose_base, records))
        partitions_column = self.catalog.estimator.partitions_column
        query_key = VertexKey.query
        distinct: list[_Fold] = []
        for (procedure_name, sequence), indices in groups.items():
            procedure, statements = self._statements(procedure_name)
            members = list(map(records.__getitem__, indices))
            member_bases = list(map(bases.__getitem__, indices))
            member_aborted = list(map(attrgetter("aborted"), members))
            states = []
            columns = []
            counters: dict[str, int] = {}
            queries = zip(*map(attrgetter("queries"), members))
            for name, column in zip(sequence, queries):
                statement, table, query_type = self._statement(procedure, statements, name)
                counter = counters[name] = counters.get(name, -1) + 1
                states.append((name, counter, query_type))
                columns.append(partitions_column(
                    table, statement, list(map(itemgetter(1), column)), member_bases
                ))
            # Rows are told apart by the ids of their partition sets, which
            # hash in C (a set hashes in Python).  The estimator returns
            # interned sets, and two rows of equal sets under different ids
            # would fold the same keys anyway.
            rows = list(zip(*columns, member_aborted))
            keys = list(zip(*[map(id, column) for column in columns], member_aborted))
            first = dict(zip(reversed(keys), range(len(keys) - 1, -1, -1)))
            for key, count in Counter(keys).items():
                offset = first[key]
                previous = EMPTY_PARTITION_SET
                path = []
                for (name, counter, query_type), partitions in zip(states, rows[offset]):
                    path.append((query_key(name, counter, partitions, previous), query_type))
                    previous = previous.union(partitions)
                distinct.append((indices[offset], procedure_name, path, key[-1], count))
        distinct.sort(key=itemgetter(0))
        return distinct

    def _path(self, record: TransactionTraceRecord) -> list[tuple[VertexKey, QueryType]]:
        """The record's queries as interned ``(vertex key, query type)`` pairs.

        Tracks the per-statement invocation counter and the accumulated
        previously-accessed partition set, the two history components of the
        vertex identity.
        """
        procedure, statements = self._statements(record.procedure)
        base_partition = self._choose_base(record)
        partitions_for = self.catalog.estimator.partitions_for
        query_key = VertexKey.query
        counters: dict[str, int] = {}
        previous = EMPTY_PARTITION_SET
        path = []
        for name, parameters, _ in record.queries:
            statement, table, query_type = self._statement(procedure, statements, name)
            partitions = partitions_for(
                table, statement, parameters, base_partition=base_partition
            )
            counter = counters.get(name, 0)
            counters[name] = counter + 1
            path.append((query_key(name, counter, partitions, previous), query_type))
            previous = previous.union(partitions)
        return path

    def _statements(self, procedure_name: str) -> tuple[StoredProcedure, dict[str, tuple]]:
        """The procedure and its statement table (an unknown procedure
        raises)."""
        entry = self._procedures.get(procedure_name)
        if entry is None:
            entry = self._procedures[procedure_name] = (self.catalog.procedure(procedure_name), {})
        return entry

    def _statement(
        self, procedure: StoredProcedure, statements: dict[str, tuple], name: str
    ) -> tuple:
        """``(statement, table, query type)`` of one of ``procedure``'s
        statements (an unknown statement raises)."""
        resolved = statements.get(name)
        if resolved is None:
            statement = procedure.statement(name)
            resolved = statements[name] = (
                statement, self.catalog.schema.table(statement.table), statement.query_type
            )
        return resolved

    def _default_base_chooser(self, record: TransactionTraceRecord) -> PartitionId:
        """:func:`default_base_partition`, as the recorder's default."""
        return default_base_partition(self.catalog.scheme, record.parameters)


def build_models_from_trace(
    catalog: Catalog,
    trace: WorkloadTrace,
    *,
    base_partition_chooser: TraceBaseChooser | None = None,
    precompute_tables: bool = True,
) -> dict[str, MarkovModel]:
    """Convenience wrapper: build and process models for a whole trace."""
    builder = MarkovModelBuilder(
        catalog,
        base_partition_chooser=base_partition_chooser,
        precompute_tables=precompute_tables,
    )
    return builder.build(trace)


def models_summary(models: Mapping[str, MarkovModel]) -> str:
    """One-line-per-model summary used by examples and experiment logs."""
    lines = []
    for name in sorted(models):
        model = models[name]
        lines.append(
            f"{name}: {model.vertex_count()} vertices, {model.edge_count()} edges, "
            f"{model.transactions_observed} transactions"
        )
    return "\n".join(lines)
