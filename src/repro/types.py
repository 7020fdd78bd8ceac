"""Shared light-weight types used across the ``repro`` package.

The paper's system (H-Store + Houdini) deals in a handful of simple
identifiers: partitions, nodes/sites, transactions and clients.  We keep them
as plain ``int`` aliases for speed (millions of them are created in the
simulator) and provide small frozen dataclasses for the few composite values
that travel across subsystem boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, NamedTuple, Sequence

PartitionId = int
NodeId = int
TransactionId = int
ClientId = int

#: Parameter values accepted by stored procedures and statements.
ParameterValue = Any


class QueryType(Enum):
    """Coarse classification of a statement used by probability tables."""

    READ = "read"
    WRITE = "write"

    @property
    def is_write(self) -> bool:
        return self is QueryType.WRITE


class PartitionSet:
    """An immutable, hashable, ordered set of partition identifiers.

    Markov-model vertices are keyed on the partitions a query accesses and
    the partitions the transaction accessed previously, so these sets must be
    hashable and cheap to compare.  The canonical representation is a sorted
    tuple.

    These sets are hashed and unioned in the inner loop of Houdini's path
    estimation, so the implementation trades a little generality for speed:
    the hash is computed once at construction, the empty set and small
    singleton sets are interned (making equality checks and dict probes
    pointer comparisons in the common case), and :meth:`union` returns an
    existing operand whenever the result would equal it.
    """

    __slots__ = ("partitions", "_hash", "_frozen")

    partitions: tuple[PartitionId, ...]

    def __init__(self, partitions: tuple[PartitionId, ...] = ()) -> None:
        object.__setattr__(self, "partitions", tuple(partitions))
        object.__setattr__(self, "_hash", hash(self.partitions))
        object.__setattr__(self, "_frozen", None)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"PartitionSet is immutable (cannot set {name!r})")

    def __reduce__(self):
        # The default slots-based pickling would go through the blocked
        # __setattr__; reconstruct through the constructor instead (also
        # keeps pickled/deep-copied instances out of the intern tables,
        # which is fine — equality is by value).
        return (PartitionSet, (self.partitions,))

    # ------------------------------------------------------------------
    @staticmethod
    def of(values: Sequence[PartitionId] | frozenset[PartitionId]) -> "PartitionSet":
        if type(values) in (set, frozenset):
            return _interned(tuple(sorted(values)))
        return _interned(tuple(sorted(set(values))))

    def union(self, other: "PartitionSet") -> "PartitionSet":
        mine, theirs = self.partitions, other.partitions
        if not theirs or mine == theirs:
            return self
        if not mine:
            return other
        if len(theirs) == 1 and theirs[0] in mine:
            return self
        merged = set(mine)
        merged.update(theirs)
        if len(merged) == len(mine):
            return self
        if len(merged) == len(theirs):
            return other
        return _interned(tuple(sorted(merged)))

    def contains(self, partition_id: PartitionId) -> bool:
        return partition_id in self.partitions

    def issuperset(self, other: "PartitionSet") -> bool:
        return set(self.partitions) >= set(other.partitions)

    def as_frozenset(self) -> frozenset[PartitionId]:
        frozen = self._frozen
        if frozen is None:
            frozen = frozenset(self.partitions)
            object.__setattr__(self, "_frozen", frozen)
        return frozen

    def __eq__(self, other: Any) -> bool:
        if self is other:
            return True
        if isinstance(other, PartitionSet):
            return self.partitions == other.partitions
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __iter__(self):
        return iter(self.partitions)

    def __len__(self) -> int:
        return len(self.partitions)

    def __bool__(self) -> bool:
        return bool(self.partitions)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PartitionSet(partitions={self.partitions!r})"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(str(p) for p in self.partitions)
        return "{" + inner + "}"


EMPTY_PARTITION_SET = PartitionSet()

#: Interned singleton sets, keyed by partition id.  Partition counts are
#: small (the paper's clusters run tens of partitions), so interning every
#: id below this limit covers all of them without unbounded growth.
_INTERN_SINGLETON_LIMIT = 1024
_SINGLETON_SETS: dict[PartitionId, PartitionSet] = {}


def _interned(partitions: tuple[PartitionId, ...]) -> PartitionSet:
    """Return a canonical instance for empty / small singleton tuples."""
    if not partitions:
        return EMPTY_PARTITION_SET
    if len(partitions) == 1:
        pid = partitions[0]
        if isinstance(pid, int) and 0 <= pid < _INTERN_SINGLETON_LIMIT:
            cached = _SINGLETON_SETS.get(pid)
            if cached is None:
                cached = PartitionSet(partitions)
                _SINGLETON_SETS[pid] = cached
            return cached
    return PartitionSet(partitions)


class ProcedureRequest(NamedTuple):
    """A client request: a stored-procedure name plus its input parameters.

    This is the unit of work that arrives at the transaction coordinator
    (Fig. 1 of the paper) and the unit that Houdini builds an initial path
    estimate for.  A named tuple rather than a dataclass: the closed-loop
    simulator constructs one per submission on its hot path.
    """

    procedure: str
    parameters: tuple[ParameterValue, ...]
    client_id: ClientId = 0
    arrival_node: NodeId = 0

    @staticmethod
    def of(procedure: str, parameters: Sequence[ParameterValue], **kwargs: Any) -> "ProcedureRequest":
        return ProcedureRequest(procedure, tuple(parameters), **kwargs)


@dataclass(slots=True)
class QueryInvocation:
    """One executed query inside a transaction.

    The ``counter`` records how many times this statement had already been
    executed by the same transaction before this invocation — part of the
    Markov-model vertex identity (Section 3.1).
    """

    statement: str
    parameters: tuple[ParameterValue, ...]
    partitions: PartitionSet
    counter: int
    query_type: QueryType = QueryType.READ
