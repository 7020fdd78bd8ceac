"""Naive references for Houdini: the paper-literal path estimator, and
run-time learning as it was before the transition log.

The paper-literal path estimator is the reference the compiled one must equal.
Its one mapping lookup is :func:`resolve`, the per-slot resolver that
``repro.houdini.compiled`` replaced (the mapping tests pin it too).

Until the plan memo became the only planning cache this code lived in
``repro.houdini.estimator`` behind ``HoudiniConfig.compiled_estimation=False``.
It re-derives every catalog and mapping fact per candidate state and picks
the next state with a plain scan of the view's successor records — no
compiled resolvers, no identity probe, no per-name group index — so it is the
oracle for ``repro.houdini.compiled`` and for the shortcuts in
``PathEstimator._choose`` (``test_compiled.py``, ``test_multiname_probe.py``).
It shares only the walk loop and the per-vertex accounting with the
production estimator.
"""

from __future__ import annotations

from repro.catalog.statement import Operation
from repro.errors import EstimationError
from repro.houdini import PathEstimator
from repro.houdini.estimator import _pool_rank
from repro.houdini.maintenance import ModelMaintenance
from repro.mapping import ParameterMapping
from repro.markov.model import MarkovModel, SuccessorView
from repro.markov.vertex import Edge
from repro.types import PartitionSet


def resolve(mapping: ParameterMapping, statement: str, query_param_index: int,
            invocation_counter: int, procedure_parameters):
    """Predict the value of one query parameter from procedure inputs.

    Returns ``None`` when the slot is unmapped or the mapped array is too
    short for this invocation counter — the "cannot determine all the
    query parameters" condition of §4.2.
    """
    entry = mapping.entry_for(statement, query_param_index)
    if entry is None:
        return None
    if entry.procedure_param_index >= len(procedure_parameters):
        raise EstimationError(
            f"mapping for {mapping.procedure!r} references parameter "
            f"{entry.procedure_param_index} but only "
            f"{len(procedure_parameters)} were supplied"
        )
    value = procedure_parameters[entry.procedure_param_index]
    if entry.array_aligned:
        if not isinstance(value, (list, tuple)):
            return None
        if invocation_counter >= len(value):
            return None
        return value[invocation_counter]
    return value


class ReferenceEstimator(PathEstimator):
    """:class:`PathEstimator` with interpreted resolution and a plain scan."""

    def predict_partitions(self, procedure_name, statement_name, counter, parameters, accumulated):
        """Partitions a candidate query would touch; ``None`` when unknown."""
        procedure = self.catalog.procedure(procedure_name)
        mapping = self.mappings.get(procedure_name)
        statement = procedure.statement(statement_name)
        table = self.catalog.schema.table(statement.table)
        scheme = self.catalog.scheme
        if table.replicated:
            if statement.operation is Operation.SELECT:
                # Replicated reads are local to wherever the control code
                # runs: the first partition the transaction touched.
                if not accumulated.partitions:
                    return None
                return PartitionSet.of([accumulated.partitions[0]])
            return scheme.all_partitions()
        partition_column = table.partition_column
        if partition_column is None:
            return PartitionSet.of([0])
        literal = statement.partitioning_literal(partition_column)
        if literal is not None:
            return PartitionSet.of([scheme.partition_for_value(literal)])
        index = statement.partitioning_parameter_index(partition_column)
        if index is None:
            return scheme.all_partitions()
        if mapping is None:
            return None
        value = resolve(mapping, statement_name, index, counter, parameters)
        if value is None:
            return None
        return PartitionSet.of([scheme.partition_for_value(value)])

    def predicted_footprint(self, request):
        """Mapping-only footprint: every statement, every plausible counter."""
        mapping = self.mappings.get(request.procedure)
        if mapping is None:
            return None
        procedure = self.catalog.procedure(request.procedure)
        scheme = self.catalog.scheme
        everything = frozenset(range(scheme.num_partitions))
        max_counter = 1
        for value in request.parameters:
            if isinstance(value, (list, tuple)):
                max_counter = max(max_counter, len(value))
        max_counter = min(max_counter, 128)
        footprint = set()
        for statement in procedure.statements.values():
            table = self.catalog.schema.table(statement.table)
            if table.replicated:
                if statement.operation is not Operation.SELECT:
                    return everything
                continue
            partition_column = table.partition_column
            if partition_column is None:
                footprint.add(0)
                continue
            literal = statement.partitioning_literal(partition_column)
            if literal is not None:
                footprint.add(scheme.partition_for_value(literal))
                continue
            index = statement.partitioning_parameter_index(partition_column)
            if index is None or mapping.entry_for(statement.name, index) is None:
                return everything
            for counter in range(max_counter):
                value = resolve(mapping, statement.name, index, counter, request.parameters)
                if value is not None:
                    footprint.add(scheme.partition_for_value(value))
        return frozenset(footprint)

    def _choose(self, view, parameters, accumulated, counters, estimate, compiled):
        successors = view.records
        estimate.work_units += len(successors)
        valid, consistent = [], []
        for key, probability, is_terminal, name, counter, previous, partitions in successors:
            if is_terminal:
                valid.append((key, probability))
                continue
            if counter != counters.get(name, 0) or previous != accumulated:
                continue
            consistent.append((key, probability))
            predicted = self.predict_partitions(
                estimate.procedure, name, counter, parameters, accumulated
            )
            if predicted is not None and partitions == predicted:
                valid.append((key, probability))
        pool = valid or consistent or [(record[0], record[1]) for record in successors]
        if len(pool) == 1:
            key, probability = pool[0]
            return key, 1.0 if probability > 0 else 0.0
        best = max(pool, key=_pool_rank)
        total = sum(probability for _, probability in pool)
        if total <= 0:
            return best[0], 0.0
        return best[0], best[1] / total


# ----------------------------------------------------------------------
# Run-time learning as it was before the transition log: every transition
# counted twice as it happens (once into the model, once into maintenance),
# and every processing pass republishing the whole dirty region.
# ----------------------------------------------------------------------

class ReferenceModel(MarkovModel):
    """:class:`MarkovModel` with the per-transition writer and the
    full-republish ``process`` the transition log replaced — the oracle of
    ``tests/property/test_property_transition_log.py``.  It never logs:
    ``record_transitions`` is its run-time learning write."""

    def _add_edge_visit(self, source, target, count=1):
        targets = self._edges.get(source)
        if targets is None:
            targets = self._edges[source] = {}
        edge = targets.get(target)
        if edge is None:
            edge = Edge(source=source, target=target)
            targets[target] = edge
            self._reverse.setdefault(target, set()).add(source)
            self.version += 1
            self._successor_views.pop(source, None)
        edge.hits += count
        if self._dirty is not None:
            self._dirty.add(source)
        return edge

    def record_transition(self, source, target, count=1):
        if source not in self._vertices:
            self.add_placeholder(source)
        if target not in self._vertices:
            self.add_placeholder(target)
        self._vertices[target].hits += count
        self._add_edge_visit(source, target, count)
        self._stale = True

    def record_transitions(self, transitions):
        for source, target in transitions:
            self.record_transition(source, target)

    def process(self):
        dirty = self._dirty
        incremental = self._processed and dirty is not None
        if incremental and not dirty:
            self._stale = False
            return
        sources = dirty if incremental else None
        self._reference_edge_probabilities(sources)
        for key in self._vertices if sources is None else sources:
            if key in self._vertices:
                self._successor_views[key] = SuccessorView(self._edges[key].values())
        order, complete = self._topological_order()
        if not complete:
            self._compute_probability_tables_fixed_point(order)
            self._compute_remaining_queries(order, reset=True)
        elif incremental:
            affected = self._affected_closure(dirty)
            restricted = [key for key in order if key in affected]
            self._compute_probability_tables_ordered(restricted)
            self._compute_remaining_queries(restricted)
        else:
            self._compute_probability_tables_ordered(order)
            self._compute_remaining_queries(order)
        self._dirty = set()
        self._processed = True
        self._stale = False
        self.version += 1

    def _reference_edge_probabilities(self, sources):
        if sources is None:
            items = self._edges.items()
        else:
            items = ((key, self._edges.get(key, {})) for key in sources)
        for _, targets in items:
            total = sum(edge.hits for edge in targets.values())
            for edge in targets.values():
                edge.probability = edge.hits / total if total > 0 else 0.0


class ReferenceMaintenance(ModelMaintenance):
    """:class:`ModelMaintenance` fed one transition at a time, as it was
    before it folded the model's log: ``record_transitions`` is its writer,
    and there is never a log to fold."""

    def record_transitions(self, transitions):
        observed = self._observed
        for source, target in transitions:
            counts = observed.setdefault(source, {})
            counts[target] = counts.get(target, 0) + 1
        self.stats.transitions_observed += len(transitions)

    def fold(self):
        pass
