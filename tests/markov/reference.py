"""The step-list model builder: the reference the production builder must equal.

This is the form of §3.2 kept verbatim from before the builder folded
interned vertex keys straight into the model: rescan the trace once per
procedure, turn every record's queries into a list of :class:`PathStep`
objects (looking the statement and its table up per query), then fold the
list into the model one step at a time.  It is the differential oracle for
``repro.markov.builder`` (``tests/property/test_property_model_builder.py``):
same models in the same order, same vertices and edges in the same order,
same hit counts, probability bits, versions and transaction counts.

It shares with production the :class:`MarkovModel` it fills (through the
model's own ``_add_vertex`` / ``_add_edge_visit``, as the old ``add_path``
did), :class:`PathStep` and the catalog's partition estimator.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.catalog.procedure import StoredProcedure
from repro.catalog.schema import Catalog
from repro.errors import ModelError
from repro.markov.model import MarkovModel, PathStep
from repro.markov.vertex import ABORT_KEY, BEGIN_KEY, COMMIT_KEY, VertexKey
from repro.types import PartitionId, PartitionSet
from repro.workload.trace import TransactionTraceRecord, WorkloadTrace


def steps_from_queries(
    catalog: Catalog,
    procedure: StoredProcedure,
    queries: Sequence[tuple[str, Sequence]],
    base_partition: PartitionId,
) -> list[PathStep]:
    """Convert (statement, parameters) pairs into :class:`PathStep` objects.

    Tracks the per-statement invocation counter and the accumulated
    previously-accessed partition set, the two history components of the
    vertex identity.
    """
    steps: list[PathStep] = []
    counters: dict[str, int] = {}
    previous = PartitionSet.of([])
    for statement_name, parameters in queries:
        statement = procedure.statement(statement_name)
        table = catalog.schema.table(statement.table)
        partitions = catalog.estimator.partitions_for(
            table, statement, parameters, base_partition=base_partition
        )
        counter = counters.get(statement_name, 0)
        counters[statement_name] = counter + 1
        steps.append(PathStep(
            statement=statement_name,
            query_type=statement.query_type,
            partitions=partitions,
            previous=previous,
            counter=counter,
        ))
        previous = previous.union(partitions)
    return steps


def add_path(model: MarkovModel, steps: Sequence[PathStep], aborted: bool) -> list[VertexKey]:
    """Fold one transaction's execution path into the model.

    Returns the list of vertex keys visited (begin ... terminal), which
    callers can reuse for accuracy bookkeeping.
    """
    current = BEGIN_KEY
    model._vertices[current].hits += 1
    visited = [current]
    for step in steps:
        key = step.key()
        vertex = model._add_vertex(key, step.query_type)
        vertex.hits += 1
        model._add_edge_visit(current, key)
        visited.append(key)
        current = key
    terminal = ABORT_KEY if aborted else COMMIT_KEY
    model._vertices[terminal].hits += 1
    model._add_edge_visit(current, terminal)
    visited.append(terminal)
    model.transactions_observed += 1
    model._processed = False
    return visited


class StepListModelBuilder:
    """Builds one Markov model per stored procedure from a workload trace."""

    def __init__(self, catalog: Catalog) -> None:
        self.catalog = catalog

    def build(self, trace: WorkloadTrace) -> dict[str, MarkovModel]:
        """Build models for every procedure present in ``trace``."""
        models: dict[str, MarkovModel] = {}
        for procedure_name in trace.procedures:
            models[procedure_name] = self.build_for_procedure(trace, procedure_name)
        return models

    def build_for_procedure(
        self, trace: WorkloadTrace, procedure_name: str
    ) -> MarkovModel:
        """Build (and process) the model for one procedure."""
        model = MarkovModel(procedure_name, self.catalog.num_partitions)
        self.extend(model, (r for r in trace if r.procedure == procedure_name))
        model.process()
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
            steps = self.steps_for_record(record)
            add_path(model, steps, aborted=record.aborted)
            added += 1
        return added

    def steps_for_record(self, record: TransactionTraceRecord) -> list[PathStep]:
        """Compute the path steps (with partition estimates) for one record."""
        procedure = self.catalog.procedure(record.procedure)
        base_partition = self._default_base_chooser(record)
        queries = [(statement, parameters) for statement, parameters, _ in record.queries]
        return steps_from_queries(self.catalog, procedure, queries, base_partition)

    def _default_base_chooser(self, record: TransactionTraceRecord) -> PartitionId:
        """Home partition of the first scalar parameter (same as the recorder)."""
        for value in record.parameters:
            if isinstance(value, (int, str)) and not isinstance(value, bool):
                return self.catalog.scheme.partition_for_value(value)
        return 0


# ----------------------------------------------------------------------
# What the golden digest and the property compare.
# ----------------------------------------------------------------------
def _table_state(table) -> tuple | None:
    if table is None:
        return None
    return (
        table.single_partition.hex(),
        table.abort.hex(),
        tuple(value.hex() for value in table.read),
        tuple(value.hex() for value in table.write),
        tuple(value.hex() for value in table.finish),
    )


def model_state(models: Mapping[str, MarkovModel]) -> list[tuple]:
    """Everything a built model holds, in insertion order, floats as hex.

    Per model (in the mapping's order): its vertices in insertion order with
    hit count, query type, probability table and expected remaining queries;
    its edges in insertion order (sources in vertex order, targets in first
    visit order) with hit count and probability; ``version`` and
    ``transactions_observed``.  Keys are spelled by their frozen
    ``sort_token``.  No ``set`` is read: keys hash by identity, so set order
    follows allocation addresses.
    """
    state = []
    for name, model in models.items():
        vertices = []
        edges = []
        for vertex in model.vertices():
            vertices.append((
                vertex.key.sort_token,
                vertex.hits,
                None if vertex.query_type is None else vertex.query_type.name,
                _table_state(vertex.table),
                vertex.expected_remaining_queries.hex(),
            ))
            for edge in model.edges_from(vertex.key):
                edges.append((
                    edge.source.sort_token,
                    edge.target.sort_token,
                    edge.hits,
                    edge.probability.hex(),
                ))
        state.append((
            name, model.num_partitions, tuple(vertices), tuple(edges),
            model.version, model.transactions_observed,
        ))
    return state
