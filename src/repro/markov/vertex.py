"""Markov-model vertices.

An execution state (Section 3.1) is identified by four things: the query's
name, how many times that query has already been executed by the same
transaction (``counter``), the set of partitions the query accesses, and the
set of partitions the transaction accessed previously.  Three special states
— ``begin``, ``commit`` and ``abort`` — bracket every execution path.
"""

from __future__ import annotations

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


#: Small integer codes hashed in place of the enum members (see
#: :meth:`VertexKey.__post_init__`).
_KIND_CODES = {kind: code for code, kind in enumerate(VertexKind)}

#: Intern table for query-state keys (see :meth:`VertexKey.query`).  Grows
#: with the number of distinct execution states observed — the same order of
#: magnitude as the Markov models themselves — but, being process-global, it
#: would outlive discarded models, so interning stops at a bound (further
#: keys are constructed uncached; interning is only an optimization, equality
#: stays value-based).
_QUERY_KEY_INTERN: dict[tuple, "VertexKey"] = {}
_QUERY_KEY_INTERN_LIMIT = 262_144


@dataclass(frozen=True)
class VertexKey:
    """Hashable identity of an execution state.

    Keys are used as dictionary keys throughout the model and the estimator's
    inner loop, so the hash is computed once at construction and the
    ``is_query`` / ``is_terminal`` classifications are precomputed attributes
    rather than per-access enum comparisons.
    """

    kind: VertexKind
    name: str = ""
    counter: int = 0
    partitions: PartitionSet = EMPTY_PARTITION_SET
    previous: PartitionSet = EMPTY_PARTITION_SET

    def __post_init__(self) -> None:
        # Hash the kind's code point rather than the enum member: enum
        # hashing is a Python-level call, and query keys are constructed for
        # every monitored query invocation.
        object.__setattr__(
            self,
            "_hash",
            hash(
                (_KIND_CODES[self.kind], self.name, self.counter,
                 self.partitions, self.previous)
            ),
        )
        object.__setattr__(self, "is_query", self.kind is VertexKind.QUERY)
        object.__setattr__(self, "is_terminal", self.kind.is_terminal)
        # Tie-break among equal-probability successors
        # (``SuccessorView.pairs``).  It decides successor order and
        # so result bytes: the format is frozen here, spelled out down to the
        # partition lists, and independent of every ``__str__``/``label``.
        if self.kind is VertexKind.QUERY:
            partitions = ", ".join(map(str, self.partitions.partitions))
            previous = ", ".join(map(str, self.previous.partitions))
            token = f"{self.name}#{self.counter}@{{{partitions}}}|prev={{{previous}}}"
        else:
            token = self.kind.value
        object.__setattr__(self, "sort_token", token)

    # ------------------------------------------------------------------
    @staticmethod
    def query(
        name: str,
        counter: int,
        partitions: PartitionSet,
        previous: PartitionSet,
    ) -> "VertexKey":
        """Interned constructor for query-state keys.

        The runtime monitor and the estimator construct one key per query
        they look at, almost always one that already exists in some model;
        interning turns the duplicate construction (dataclass init + 5-tuple
        hash) into a single dict probe and makes later dict lookups hit the
        pointer-equality fast path.
        """
        probe = (name, counter, partitions, previous)
        key = _QUERY_KEY_INTERN.get(probe)
        if key is None:
            key = VertexKey(
                kind=VertexKind.QUERY,
                name=name,
                counter=counter,
                partitions=partitions,
                previous=previous,
            )
            if len(_QUERY_KEY_INTERN) < _QUERY_KEY_INTERN_LIMIT:
                _QUERY_KEY_INTERN[probe] = key
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

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if self.kind is not VertexKind.QUERY:
            return self.kind.value
        return f"{self.name}#{self.counter}@{self.partitions}|prev={self.previous}"


def _vertex_key_hash(self: VertexKey) -> int:
    return self._hash  # type: ignore[attr-defined]


# Installed after class creation so the dataclass machinery cannot replace it
# with the default field-tuple hash.
VertexKey.__hash__ = _vertex_key_hash  # type: ignore[method-assign]


BEGIN_KEY = VertexKey(kind=VertexKind.BEGIN)
COMMIT_KEY = VertexKey(kind=VertexKind.COMMIT)
ABORT_KEY = VertexKey(kind=VertexKind.ABORT)


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

    @property
    def is_terminal(self) -> bool:
        return self.key.is_terminal

    @property
    def is_query(self) -> bool:
        return self.key.is_query


@dataclass(slots=True)
class Edge:
    """A directed edge between two execution states."""

    source: VertexKey
    target: VertexKey
    hits: int = 0
    probability: float = 0.0
