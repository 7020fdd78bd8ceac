"""Markov-model construction from workload traces (paper §3.2).

The builder makes one pass over the trace.  It groups records by procedure
in first-appearance order and folds each record straight into its
procedure's model: every query's partitions are estimated with the
catalog's partition estimator (the "internal API for the target cluster
configuration"), the query's vertex key is interned from its statement,
invocation counter, partitions and previously accessed partitions, and
:meth:`MarkovModel.fold_path` counts the record's path of keys.  No
intermediate step objects are built.  Because partitions are re-estimated
from parameters rather than copied from the trace, the same trace can be
used to build models for *any* cluster size — exactly the property the
paper relies on when it regenerates models after a repartitioning.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping

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
        for record in trace:
            model = models.get(record.procedure)
            if model is None:
                model = models[record.procedure] = MarkovModel(
                    record.procedure, self.catalog.num_partitions
                )
            model.fold_path(self._path(record), record.aborted)
        for model in models.values():
            model.process(precompute_tables=self.precompute_tables)
        return models

    def build_for_procedure(
        self, trace: WorkloadTrace, procedure_name: str
    ) -> MarkovModel:
        """Build (and process) the model for one procedure."""
        model = MarkovModel(procedure_name, self.catalog.num_partitions)
        self.extend(model, (r for r in trace if r.procedure == procedure_name))
        model.process(precompute_tables=self.precompute_tables)
        return model

    def extend(self, model: MarkovModel, records: Iterable[TransactionTraceRecord]) -> int:
        """Construction phase only: fold records into an existing model."""
        added = 0
        for record in records:
            if record.procedure != model.procedure:
                raise ModelError(
                    f"record for {record.procedure!r} cannot extend model of "
                    f"{model.procedure!r}"
                )
            model.fold_path(self._path(record), record.aborted)
            added += 1
        return added

    def steps_for_record(self, record: TransactionTraceRecord) -> list[PathStep]:
        """Compute the path steps (with partition estimates) for one record."""
        return [
            PathStep(key.name, query_type, key.partitions, key.previous, key.counter)
            for key, query_type in self._path(record)
        ]

    # ------------------------------------------------------------------
    def _path(self, record: TransactionTraceRecord) -> list[tuple[VertexKey, QueryType]]:
        """The record's queries as interned ``(vertex key, query type)`` pairs.

        Tracks the per-statement invocation counter and the accumulated
        previously-accessed partition set, the two history components of the
        vertex identity.
        """
        entry = self._procedures.get(record.procedure)
        if entry is None:
            entry = (self.catalog.procedure(record.procedure), {})
            self._procedures[record.procedure] = entry
        procedure, statements = entry
        base_partition = self._choose_base(record)
        partitions_for = self.catalog.estimator.partitions_for
        query_key = VertexKey.query
        counters: dict[str, int] = {}
        previous = EMPTY_PARTITION_SET
        path = []
        for name, parameters, _ in record.queries:
            resolved = statements.get(name)
            if resolved is None:
                statement = procedure.statement(name)
                resolved = statements[name] = (
                    statement, self.catalog.schema.table(statement.table), statement.query_type
                )
            statement, table, query_type = resolved
            partitions = partitions_for(
                table, statement, parameters, base_partition=base_partition
            )
            counter = counters.get(name, 0)
            counters[name] = counter + 1
            path.append((query_key(name, counter, partitions, previous), query_type))
            previous = previous.union(partitions)
        return path

    def _default_base_chooser(self, record: TransactionTraceRecord) -> PartitionId:
        """Home partition of the first scalar parameter (same as the recorder)."""
        for value in record.parameters:
            if isinstance(value, (int, str)) and not isinstance(value, bool):
                return self.catalog.scheme.partition_for_value(value)
        return 0


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
