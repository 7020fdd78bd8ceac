"""The pairwise parameter-mapping builder: the reference the production builder must equal.

This is the paper-literal form of §4.1, kept verbatim from before the
builder learned to count trace structure: rescan the trace once per
procedure, and for every traced query parameter compare the value with every
procedure parameter (the element aligned with the invocation counter, for an
array), recording one comparison and possibly one match per pair.  It is the
differential oracle for ``repro.mapping.mapping_builder``
(``tests/property/test_property_mapping_builder.py``): same entries in the
same order with the same coefficient bits, hence the same slot choices.

It shares with production only the :class:`ParameterMapping` it fills and
:func:`geometric_mean`.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any

from repro.catalog.procedure import StoredProcedure
from repro.catalog.schema import Catalog
from repro.mapping.parameter_mapping import (
    DEFAULT_COEFFICIENT_THRESHOLD,
    MappingEntry,
    ParameterMapping,
    ParameterMappingSet,
    geometric_mean,
)
from repro.workload.trace import TransactionTraceRecord, WorkloadTrace


@dataclass
class _PairCounter:
    """Match counts per alignment position for one candidate pair."""

    matches: dict[int, int] = field(default_factory=lambda: defaultdict(int))
    comparisons: dict[int, int] = field(default_factory=lambda: defaultdict(int))

    def record(self, position: int, matched: bool) -> None:
        self.comparisons[position] += 1
        if matched:
            self.matches[position] += 1

    def coefficient(self) -> float:
        ratios = []
        for position, total in self.comparisons.items():
            if total <= 0:
                continue
            ratios.append(self.matches[position] / total)
        return geometric_mean(ratios)

    def total_comparisons(self) -> int:
        return sum(self.comparisons.values())


class PairwiseMappingBuilder:
    """Builds :class:`ParameterMapping` objects from traces, pair by pair."""

    def __init__(
        self,
        catalog: Catalog,
        *,
        threshold: float = DEFAULT_COEFFICIENT_THRESHOLD,
        min_comparisons: int = 3,
    ) -> None:
        self.catalog = catalog
        self.threshold = threshold
        #: Pairs observed fewer times than this are ignored: a single lucky
        #: match should not create a mapping.
        self.min_comparisons = min_comparisons

    # ------------------------------------------------------------------
    def build_all(self, trace: WorkloadTrace) -> ParameterMappingSet:
        """Build mappings for every procedure appearing in ``trace``."""
        mapping_set = ParameterMappingSet()
        for procedure_name in trace.procedures:
            mapping_set.add(self.build(trace, procedure_name))
        return mapping_set

    def build(self, trace: WorkloadTrace, procedure_name: str) -> ParameterMapping:
        """Build the mapping for one procedure from its trace records."""
        procedure = self.catalog.procedure(procedure_name)
        scalar_pairs: dict[tuple[str, int, int], _PairCounter] = defaultdict(_PairCounter)
        array_pairs: dict[tuple[str, int, int], _PairCounter] = defaultdict(_PairCounter)
        for record in trace:
            if record.procedure != procedure_name:
                continue
            self._scan_record(procedure, record, scalar_pairs, array_pairs)
        mapping = ParameterMapping(procedure_name, threshold=self.threshold)
        self._emit_entries(mapping, scalar_pairs, array_aligned=False)
        self._emit_entries(mapping, array_pairs, array_aligned=True)
        return mapping

    # ------------------------------------------------------------------
    def _scan_record(
        self,
        procedure: StoredProcedure,
        record: TransactionTraceRecord,
        scalar_pairs,
        array_pairs,
    ) -> None:
        counters: dict[str, int] = defaultdict(int)
        for statement, query_parameters, _ in record.queries:
            counter = counters[statement]
            counters[statement] += 1
            for query_index, query_value in enumerate(query_parameters):
                if isinstance(query_value, (list, tuple)):
                    continue
                for proc_index, proc_value in enumerate(record.parameters):
                    key = (statement, query_index, proc_index)
                    if isinstance(proc_value, (list, tuple)):
                        # Array procedure parameter: compare this invocation's
                        # value against the element aligned with its counter.
                        if counter < len(proc_value):
                            array_pairs[key].record(
                                counter, _values_equal(proc_value[counter], query_value)
                            )
                    else:
                        scalar_pairs[key].record(
                            counter, _values_equal(proc_value, query_value)
                        )

    def _emit_entries(self, mapping: ParameterMapping, pairs, *, array_aligned: bool) -> None:
        for (statement, query_index, proc_index), counter in pairs.items():
            if counter.total_comparisons() < self.min_comparisons:
                continue
            coefficient = counter.coefficient()
            if coefficient < self.threshold:
                continue
            mapping.add(MappingEntry(
                statement=statement,
                query_param_index=query_index,
                procedure_param_index=proc_index,
                array_aligned=array_aligned,
                coefficient=coefficient,
            ))


def _values_equal(left: Any, right: Any) -> bool:
    """Value equality that never treats booleans and integers as equal."""
    if isinstance(left, bool) != isinstance(right, bool):
        return False
    return left == right


def mapping_state(mappings: ParameterMappingSet) -> list:
    """Everything two builders must agree on: procedure order, each mapping's
    threshold and entries in insertion order (coefficients to the bit), and
    the index of the entry every mapped slot resolves to.
    ``mapping_set_to_dict`` sorts what it writes, so this reads the objects."""
    state = []
    for procedure, mapping in mappings.items():
        entries = [
            (e.statement, e.query_param_index, e.procedure_param_index,
             e.array_aligned, e.coefficient.hex())
            for e in mapping.entries
        ]
        slots = sorted({(e.statement, e.query_param_index) for e in mapping.entries})
        chosen = [(slot, mapping.entries.index(mapping.entry_for(*slot))) for slot in slots]
        state.append((procedure, mapping.threshold, entries, chosen))
    return state
