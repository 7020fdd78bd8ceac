"""Markov-model vertices.

An execution state (Section 3.1) is identified by four things: the query's
name, how many times that query has already been executed by the same
transaction (``counter``), the set of partitions the query accesses, and the
set of partitions the transaction accessed previously.  Three special states
— ``begin``, ``commit`` and ``abort`` — bracket every execution path.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from enum import Enum

from ..types import EMPTY_PARTITION_SET, PartitionSet, QueryType


class VertexKind(Enum):
    """Kind of vertex in a transaction Markov model."""

    BEGIN = "begin"
    COMMIT = "commit"
    ABORT = "abort"
    QUERY = "query"

    @property
    def is_terminal(self) -> bool:
        return self in (VertexKind.COMMIT, VertexKind.ABORT)


#: The hash-consing table behind :meth:`VertexKey.query`: state fields (the
#: partition sets as their sorted tuples, which hash and compare in C and are
#: equal exactly when the sets are) -> weak reference to the one live key of
#: that state.  Weak, because the table is process-global and must not pin
#: the keys of discarded models: a key dies with the last model, estimate or
#: maintenance tail that references it, and its entry goes with it.
_QUERY_KEYS: dict[tuple, weakref.KeyedRef] = {}


def _forget(reference: weakref.KeyedRef) -> None:
    # A dead key's slot may already hold its successor (the collector clears
    # a reference before calling back): remove only this reference's entry.
    if _QUERY_KEYS.get(reference.key) is reference:
        del _QUERY_KEYS[reference.key]


class VertexKey:
    """Identity of an execution state — hash-consed: one live object per state.

    Keys come only from :meth:`query` and the module singletons
    :data:`BEGIN_KEY` / :data:`COMMIT_KEY` / :data:`ABORT_KEY`; pickling,
    copying and deserialization route back through those and direct
    construction is rejected, so two keys of one state cannot coexist.  That
    is what lets equality and hashing be the object defaults: every dict
    probe in the model, the estimator's inner loop, the run-time monitor and
    the learner is a C-level identity test with no Python frame.
    """

    #: ``is_query`` / ``is_terminal`` are precomputed (attribute reads, not
    #: enum comparisons).  ``sort_token`` breaks ties among equal-probability
    #: successors (``SuccessorView.pairs``): it decides successor order and
    #: so result bytes — its format is frozen in ``_make_key``, spelled out
    #: down to the partition lists, independent of ``__str__``/``label``.
    __slots__ = (
        "kind", "name", "counter", "partitions", "previous",
        "is_query", "is_terminal", "sort_token", "__weakref__",
    )

    def __new__(cls, *args, **kwargs):
        raise TypeError(
            "VertexKey is hash-consed: use VertexKey.query() or "
            "BEGIN_KEY / COMMIT_KEY / ABORT_KEY"
        )

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"VertexKey is immutable (cannot set {name!r})")

    def __reduce__(self):
        # Unpickling and copying land on the canonical object: a query key
        # through the table, a special through its module-level name.
        if self.kind is VertexKind.QUERY:
            return VertexKey.query, (self.name, self.counter, self.partitions, self.previous)
        return f"{self.kind.name}_KEY"

    # ------------------------------------------------------------------
    @staticmethod
    def query(
        name: str,
        counter: int,
        partitions: PartitionSet,
        previous: PartitionSet,
    ) -> "VertexKey":
        """The key of a query state (the only constructor of query keys)."""
        probe = (name, counter, partitions.partitions, previous.partitions)
        reference = _QUERY_KEYS.get(probe)
        key = reference() if reference is not None else None
        if key is None:
            key = _make_key(VertexKind.QUERY, name, counter, partitions, previous)
            _QUERY_KEYS[probe] = weakref.KeyedRef(key, _forget, probe)
        return key

    def accessed_partitions(self) -> PartitionSet:
        """All partitions the transaction has touched once it leaves this state."""
        return self.previous.union(self.partitions)

    def label(self) -> str:
        """Human-readable label used by the DOT exporter."""
        if self.kind is not VertexKind.QUERY:
            return self.kind.value
        return (
            f"{self.name}\ncounter: {self.counter}\n"
            f"partitions: {self.partitions}\nprevious: {self.previous}"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"VertexKey({self})"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if self.kind is not VertexKind.QUERY:
            return self.kind.value
        return f"{self.name}#{self.counter}@{self.partitions}|prev={self.previous}"


def _make_key(
    kind: VertexKind,
    name: str = "",
    counter: int = 0,
    partitions: PartitionSet = EMPTY_PARTITION_SET,
    previous: PartitionSet = EMPTY_PARTITION_SET,
) -> VertexKey:
    if kind is VertexKind.QUERY:
        partition_list = ", ".join(map(str, partitions.partitions))
        previous_list = ", ".join(map(str, previous.partitions))
        token = f"{name}#{counter}@{{{partition_list}}}|prev={{{previous_list}}}"
    else:
        token = kind.value
    key = object.__new__(VertexKey)
    for slot, value in zip(VertexKey.__slots__, (
        kind, name, counter, partitions, previous,
        kind is VertexKind.QUERY, kind.is_terminal, token,
    )):
        object.__setattr__(key, slot, value)
    return key


BEGIN_KEY = _make_key(VertexKind.BEGIN)
COMMIT_KEY = _make_key(VertexKind.COMMIT)
ABORT_KEY = _make_key(VertexKind.ABORT)


@dataclass(slots=True)
class Vertex:
    """A vertex plus the bookkeeping attached to it during construction."""

    key: VertexKey
    #: READ/WRITE classification of the vertex's query (None for specials).
    query_type: QueryType | None = None
    #: Number of times the construction phase reached this state.
    hits: int = 0
    #: Pre-computed probability table (filled in by the processing phase).
    table: "object | None" = field(default=None, repr=False)
    #: Expected number of queries remaining until commit/abort (a "future
    #: work" extension the paper suggests for intelligent scheduling).
    expected_remaining_queries: float = 0.0


@dataclass(slots=True)
class Edge:
    """A directed edge between two execution states."""

    source: VertexKey
    target: VertexKey
    hits: int = 0
    probability: float = 0.0
