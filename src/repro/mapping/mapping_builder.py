"""Derives parameter mappings from workload traces by dynamic analysis.

For every (query parameter slot, procedure parameter) pair the builder needs
how often the two were compared and how often they carried the same value,
per invocation counter (for an array parameter: per aligned element).  It
turns those into per-position match ratios and folds the ratios into a single
coefficient with a geometric mean (paper §4.1).  Pairs below the pruning
threshold are dropped as coincidences.

Both counts are taken a column at a time.  One pass groups a procedure's
records by statement sequence and parameter shape (each parameter a scalar or
an array of some length).  In a group each query position has one statement
and one invocation counter, so the position's query parameters transpose
into a column per slot, and the procedure parameters into a column per
parameter (an array's column holds its element at the counter).  Rows that
differ in arity, or in which slots hold arrays, are split into blocks that
agree.

* **Matches** of two columns are ``sum(map(operator.eq, ...))``.  ``==``
  needs no hash, so a dict loaded from a JSON trace compares like any value;
  and unlike ``list ==`` or ``list.count`` it never short-cuts on identity,
  so one NaN object in both columns is no match.  A boolean never equals an
  integer: a pair whose columns hold a ``bool`` is compared element by
  element under that rule.
* **Comparisons** follow from the blocks.  Each row of a block compares its
  scalar slots with every scalar parameter and every array long enough to
  have an element at the counter.  A pairwise scan first reaches a pair at a
  counter in the first record, and at the position, of the first block that
  compares them there; so blocks expanded in order of first record, then
  position, reach every pair, and every counter position of a pair, in the
  order a pairwise scan does.  The geometric mean therefore adds its
  logarithms, and the mapping its entries, in the same order: the result is
  bit-identical to comparing every pair.
"""

from __future__ import annotations

from itertools import repeat
from operator import eq, itemgetter
from typing import Iterable, Sequence

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

#: ``(array_aligned, statement, query index, procedure index, counter)``.
_Match = tuple[bool, str, int, int, int]
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
        scalar, array, matches = _count(records)
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
) -> tuple[_Comparisons, _Comparisons, dict[_Match, int]]:
    """Comparisons per counter for each scalar and each array-aligned pair,
    in the order a pairwise scan first reaches them, and value matches per
    pair and counter, over one procedure's records."""
    groups: dict[tuple, list[tuple[int, tuple, tuple]]] = {}
    for index, record in enumerate(records):
        shape = tuple([len(v) if isinstance(v, _ARRAY) else _SCALAR for v in record.parameters])
        key = (tuple([query[0] for query in record.queries]), shape)
        groups.setdefault(key, []).append((index, record.parameters, record.queries))
    blocks: list[tuple[int, int, str, int, tuple, tuple, int]] = []
    matches: dict[_Match, int] = {}
    for (sequence, shape), members in groups.items():
        indices, parameters, queries = zip(*members)
        counters: dict[str, int] = {}
        for position, (statement, column) in enumerate(zip(sequence, zip(*queries))):
            counter = counters[statement] = counters.get(statement, -1) + 1
            rows = [query[1] for query in column]
            slots = _slot_columns(rows)
            if slots is not None:
                parts = [(indices[0], rows, slots, _parameter_columns(parameters, shape, counter))]
            else:  # split the rows by which of their slots hold arrays
                split: dict[tuple[bool, ...], list[int]] = {}
                for offset, row in enumerate(rows):
                    arrays = tuple(map(isinstance, row, repeat(_ARRAY)))
                    split.setdefault(arrays, []).append(offset)
                parts = []
                for offsets in split.values():
                    block = [rows[offset] for offset in offsets]
                    block_parameters = [parameters[offset] for offset in offsets]
                    parts.append((indices[offsets[0]], block, _slot_columns(block),
                                  _parameter_columns(block_parameters, shape, counter)))
            for first, block, slots, columns in parts:
                for query_index, values, query_bool in slots:
                    for array_aligned, proc_index, proc_values, proc_bool in columns:
                        found = sum(map(_equal if query_bool or proc_bool else eq,
                                        proc_values, values))
                        if found:
                            match = (array_aligned, statement, query_index, proc_index, counter)
                            matches[match] = matches.get(match, 0) + found
                blocks.append((first, position, statement, counter,
                               tuple([slot[0] for slot in slots]),
                               tuple([column[:2] for column in columns]), len(block)))
    # First record, then position: the order of a pairwise scan.
    blocks.sort(key=itemgetter(0, 1))
    scalar: _Comparisons = {}
    array: _Comparisons = {}
    for _, _, statement, counter, slots, compared, times in blocks:
        for query_index in slots:
            for array_aligned, proc_index in compared:
                pairs = array if array_aligned else scalar
                positions = pairs.setdefault((statement, query_index, proc_index), {})
                positions[counter] = positions.get(counter, 0) + times
    return scalar, array, matches


def _slot_columns(rows: list[tuple]) -> list[tuple[int, tuple, bool]] | None:
    """``(slot, values, holds a bool)`` per slot that holds a scalar in every
    row; ``None`` if the rows differ in arity or in which slots hold arrays."""
    if len(set(map(len, rows))) > 1:
        return None
    columns = []
    for slot, values in enumerate(zip(*rows)):
        kinds = set(map(type, values))
        arrays = sum([issubclass(kind, _ARRAY) for kind in kinds])
        if not arrays:
            columns.append((slot, values, bool in kinds))
        elif arrays < len(kinds):
            return None
    return columns


def _parameter_columns(parameters: Sequence[tuple], shape: tuple, counter: int) -> list[tuple]:
    """``(array_aligned, procedure index, values, holds a bool)`` for each
    procedure parameter a query value at ``counter`` is compared with: each
    scalar, and each array's element at ``counter``."""
    columns = []
    for proc_index, (length, values) in enumerate(zip(shape, zip(*parameters))):
        if length != _SCALAR:
            if counter >= length:
                continue
            values = tuple(map(itemgetter(counter), values))
        columns.append((length != _SCALAR, proc_index, values, bool in set(map(type, values))))
    return columns


def _equal(proc_value, value) -> bool:
    """``==``, except that a boolean never equals an integer."""
    return isinstance(proc_value, bool) == isinstance(value, bool) and proc_value == value


def build_parameter_mappings(
    catalog: Catalog,
    trace: WorkloadTrace,
    *,
    threshold: float = DEFAULT_COEFFICIENT_THRESHOLD,
) -> ParameterMappingSet:
    """Convenience wrapper mirroring :func:`build_models_from_trace`."""
    return ParameterMappingBuilder(catalog, threshold=threshold).build_all(trace)
