"""Derives parameter mappings from workload traces by dynamic analysis.

For every (query parameter slot, procedure parameter) pair the builder needs
how often the two were compared and how often they carried the same value,
per invocation counter (for an array parameter: per aligned element).  It
turns those into per-position match ratios and folds the ratios into a single
coefficient with a geometric mean (paper §4.1).  Pairs below the pruning
threshold are dropped as coincidences.

Neither count needs a comparison per pair:

* **Comparisons follow from the trace's structure.**  A query occurrence
  compares each of its scalar slots with every scalar procedure parameter and
  with every array parameter long enough to have an element at the
  occurrence's invocation counter.  So the builder counts occurrences per
  structure — statement, counter, scalar slots and the record's parameter
  shape — and expands the counts when it emits entries.  Expanding the
  structures in the order they first occurred reaches every pair, and every
  counter position of a pair, in the order a pairwise scan first reaches
  them.  The geometric mean therefore adds its logarithms in the same order,
  and entries are added to the mapping in the same order: the result is
  bit-identical to comparing every pair.
* **Matches come from a hashed probe.**  Each record indexes its scalar
  parameters, and its array elements per position, by value hash.  A query
  value probes the index, and every hit is re-checked with ``==`` and with
  the rule that a boolean never equals an integer.  A value that cannot be
  hashed (a dict loaded from JSON, say) is compared with every parameter.

Records are grouped by procedure in one pass over the trace.
"""

from __future__ import annotations

from typing import Iterable

from ..catalog.schema import Catalog
from ..workload.trace import TransactionTraceRecord, WorkloadTrace
from .parameter_mapping import (
    DEFAULT_COEFFICIENT_THRESHOLD,
    MappingEntry,
    ParameterMapping,
    ParameterMappingSet,
    geometric_mean,
)

_ARRAY = (list, tuple)
#: A scalar procedure parameter's entry in a record's shape; an array's
#: entry is its length.
_SCALAR = -1

#: Value hash -> ``(array_aligned, procedure index)`` of the parameters
#: (array elements at one position) with that hash.
_Table = dict[int, list[tuple[bool, int]]]
#: ``(array_aligned, statement, query index, procedure index, counter)``.
_Match = tuple[bool, str, int, int, int]
#: ``(statement, counter, scalar query slots, procedure parameter shape)``.
_Structure = tuple[str, int, tuple[int, ...], tuple[int, ...]]
#: ``(statement, query index, procedure index)`` -> comparisons per counter.
_Comparisons = dict[tuple[str, int, int], dict[int, int]]


class ParameterMappingBuilder:
    """Builds :class:`ParameterMapping` objects from traces."""

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
        by_procedure: dict[str, list[TransactionTraceRecord]] = {}
        for record in trace:
            by_procedure.setdefault(record.procedure, []).append(record)
        mapping_set = ParameterMappingSet()
        for procedure_name, records in by_procedure.items():
            mapping_set.add(self._build(procedure_name, records))
        return mapping_set

    def build(self, trace: WorkloadTrace, procedure_name: str) -> ParameterMapping:
        """Build the mapping for one procedure from its trace records."""
        return self._build(
            procedure_name, [record for record in trace if record.procedure == procedure_name]
        )

    # ------------------------------------------------------------------
    def _build(
        self, procedure_name: str, records: Iterable[TransactionTraceRecord]
    ) -> ParameterMapping:
        self.catalog.procedure(procedure_name)  # an unknown procedure raises
        occurrences, matches = _count(records)
        scalar, array = _comparisons(occurrences)
        mapping = ParameterMapping(procedure_name, threshold=self.threshold)
        self._emit_entries(mapping, scalar, matches, array_aligned=False)
        self._emit_entries(mapping, array, matches, array_aligned=True)
        return mapping

    def _emit_entries(
        self,
        mapping: ParameterMapping,
        comparisons: _Comparisons,
        matches: dict[_Match, int],
        *,
        array_aligned: bool,
    ) -> None:
        for (statement, query_index, proc_index), positions in comparisons.items():
            if sum(positions.values()) < self.min_comparisons:
                continue
            coefficient = geometric_mean([
                matches.get((array_aligned, statement, query_index, proc_index, position), 0)
                / total
                for position, total in positions.items()
            ])
            if coefficient < self.threshold:
                continue
            mapping.add(MappingEntry(
                statement=statement,
                query_param_index=query_index,
                procedure_param_index=proc_index,
                array_aligned=array_aligned,
                coefficient=coefficient,
            ))


def _count(
    records: Iterable[TransactionTraceRecord],
) -> tuple[dict[_Structure, int], dict[_Match, int]]:
    """One pass over a procedure's records: query occurrences per structure
    (in first-occurrence order) and value matches per pair and counter."""
    occurrences: dict[_Structure, int] = {}
    matches: dict[_Match, int] = {}
    for record in records:
        parameters = record.parameters
        shape = tuple([len(v) if isinstance(v, _ARRAY) else _SCALAR for v in parameters])
        tables = _index(parameters)
        counters: dict[str, int] = {}
        for statement, query_parameters, _ in record.queries:
            counter = counters.get(statement, 0)
            counters[statement] = counter + 1
            table = tables[counter] if counter < len(tables) else tables[-1]
            slots = []
            for query_index, value in enumerate(query_parameters):
                if isinstance(value, _ARRAY):
                    continue
                slots.append(query_index)
                candidates = None
                if table is not None:
                    try:
                        candidates = table.get(hash(value), ())
                    except TypeError:
                        pass
                if candidates is None:
                    candidates = _comparable(parameters, counter)
                for array_aligned, proc_index in candidates:
                    proc_value = parameters[proc_index]
                    if array_aligned:
                        proc_value = proc_value[counter]
                    # A boolean never equals an integer here.
                    if (isinstance(proc_value, bool) == isinstance(value, bool)
                            and proc_value == value):
                        match = (array_aligned, statement, query_index, proc_index, counter)
                        matches[match] = matches.get(match, 0) + 1
            structure = (statement, counter, tuple(slots), shape)
            occurrences[structure] = occurrences.get(structure, 0) + 1
    return occurrences, matches


def _index(parameters: tuple) -> list[_Table | None]:
    """One probe table per invocation counter: table ``n`` holds the scalars
    and every array's ``n``-th element, and the last table (scalars only)
    serves every counter past the longest array.  A single ``None`` when a
    value cannot be hashed: every query value is then compared with every
    parameter."""
    scalars: _Table = {}
    arrays = []
    try:
        for proc_index, value in enumerate(parameters):
            if isinstance(value, _ARRAY):
                arrays.append((proc_index, [hash(element) for element in value]))
            else:
                scalars.setdefault(hash(value), []).append((False, proc_index))
    except TypeError:
        return [None]
    if not arrays:
        return [scalars]
    longest = max(len(hashes) for _, hashes in arrays)
    tables = [{key: list(found) for key, found in scalars.items()} for _ in range(longest)]
    for proc_index, hashes in arrays:
        for table, key in zip(tables, hashes):
            table.setdefault(key, []).append((True, proc_index))
    tables.append(scalars)
    return tables


def _comparable(parameters: tuple, counter: int) -> list[tuple[bool, int]]:
    """Every ``(array_aligned, procedure index)`` a value at ``counter`` is
    compared with: the scalars, and the arrays with an element there."""
    return [
        (isinstance(value, _ARRAY), proc_index)
        for proc_index, value in enumerate(parameters)
        if not isinstance(value, _ARRAY) or counter < len(value)
    ]


def _comparisons(occurrences: dict[_Structure, int]) -> tuple[_Comparisons, _Comparisons]:
    """Comparisons per counter for each scalar and each array-aligned pair.

    Structures are expanded in first-occurrence order, so pairs and their
    counter positions appear in the order a pairwise scan first reaches them.
    """
    scalar: _Comparisons = {}
    array: _Comparisons = {}
    for (statement, counter, slots, shape), times in occurrences.items():
        for query_index in slots:
            for proc_index, length in enumerate(shape):
                if length == _SCALAR:
                    pairs = scalar
                elif counter < length:
                    pairs = array
                else:
                    continue
                key = (statement, query_index, proc_index)
                positions = pairs.get(key)
                if positions is None:
                    positions = pairs[key] = {}
                positions[counter] = positions.get(counter, 0) + times
    return scalar, array


def build_parameter_mappings(
    catalog: Catalog,
    trace: WorkloadTrace,
    *,
    threshold: float = DEFAULT_COEFFICIENT_THRESHOLD,
) -> ParameterMappingSet:
    """Convenience wrapper mirroring :func:`build_models_from_trace`."""
    return ParameterMappingBuilder(catalog, threshold=threshold).build_all(trace)
