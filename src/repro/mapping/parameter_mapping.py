"""Parameter mappings (paper §4.1).

A parameter mapping captures which stored-procedure input parameters feed
which query input parameters.  Houdini uses it to compute, *before the
transaction runs*, the partitions a candidate query would access — which is
what turns the Markov model from a descriptive artifact into a predictive
one.

The mapping is derived from a workload trace by dynamic analysis: every query
parameter value observed in a transaction is compared against the
transaction's procedure parameters, per-position match ratios are computed,
and ratios from repeated query invocations / array elements are folded
together with a geometric mean exactly as the paper describes.  Pairs whose
final coefficient falls below a threshold (0.9 by default) are discarded as
coincidental matches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence


#: Default pruning threshold; the paper found coefficients > 0.9 reliable.
DEFAULT_COEFFICIENT_THRESHOLD = 0.9


@dataclass(frozen=True)
class MappingEntry:
    """One link: a query parameter comes from a procedure parameter.

    ``array_aligned`` means the procedure parameter is an array and the
    query's n-th invocation reads the array's n-th element (the
    ``i_ids[n] -> CheckStock#n`` pattern of Fig. 7/8).
    """

    statement: str
    query_param_index: int
    procedure_param_index: int
    array_aligned: bool
    coefficient: float


@dataclass
class ParameterMapping:
    """All accepted mapping entries for one stored procedure."""

    procedure: str
    entries: list[MappingEntry] = field(default_factory=list)
    threshold: float = DEFAULT_COEFFICIENT_THRESHOLD

    def __post_init__(self) -> None:
        self._by_slot: dict[tuple[str, int], MappingEntry] = {}
        for entry in self.entries:
            self._offer(entry)

    # ------------------------------------------------------------------
    def add(self, entry: MappingEntry) -> None:
        self.entries.append(entry)
        self._offer(entry)

    def _offer(self, entry: MappingEntry) -> None:
        """Let ``entry`` serve its slot if it ranks first there.

        The rank reads only the entry's own fields — higher coefficient, then
        lower procedure parameter, then scalar before array-aligned — so the
        order entries arrive in (the builder's, or a loaded file's sorted
        one) never changes which entry a slot resolves to.
        """
        slot = (entry.statement, entry.query_param_index)
        current = self._by_slot.get(slot)
        if current is None or _rank(entry) < _rank(current):
            self._by_slot[slot] = entry

    def entry_for(self, statement: str, query_param_index: int) -> MappingEntry | None:
        """Best mapping entry for one query-parameter slot, if any."""
        return self._by_slot.get((statement, query_param_index))

    def statements(self) -> tuple[str, ...]:
        return tuple(sorted({entry.statement for entry in self.entries}))

    # ------------------------------------------------------------------
    def describe(self) -> str:
        """Human-readable rendering similar to the paper's Fig. 7."""
        lines = [f"Parameter mapping for {self.procedure!r} (threshold {self.threshold}):"]
        for entry in sorted(
            self.entries, key=lambda e: (e.statement, e.query_param_index)
        ):
            suffix = "[n]" if entry.array_aligned else ""
            lines.append(
                f"  {entry.statement}(param {entry.query_param_index}) <- "
                f"procedure parameter {entry.procedure_param_index}{suffix} "
                f"(coefficient {entry.coefficient:.3f})"
            )
        return "\n".join(lines)


def _rank(entry: MappingEntry) -> tuple[float, int, bool]:
    """Sort key of the entries competing for one slot: the best comes first."""
    return (-entry.coefficient, entry.procedure_param_index, entry.array_aligned)


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean used to aggregate per-position coefficients (§4.1)."""
    if not values:
        return 0.0
    if any(value <= 0.0 for value in values):
        return 0.0
    return math.exp(sum(math.log(value) for value in values) / len(values))


@dataclass
class ParameterMappingSet(Mapping[str, ParameterMapping]):
    """Mappings for every procedure of an application."""

    mappings: dict[str, ParameterMapping] = field(default_factory=dict)

    def __getitem__(self, procedure: str) -> ParameterMapping:
        return self.mappings[procedure]

    def __iter__(self):
        return iter(self.mappings)

    def __len__(self) -> int:
        return len(self.mappings)

    def add(self, mapping: ParameterMapping) -> None:
        self.mappings[mapping.procedure] = mapping

    def get(self, procedure: str, default=None):
        return self.mappings.get(procedure, default)
