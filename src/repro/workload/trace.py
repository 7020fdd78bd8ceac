"""Workload traces.

A *workload trace* is the input to Markov-model generation and parameter
mapping (Section 3.1 of the paper): for each sampled transaction it records
the procedure's input parameters and the sequence of queries the transaction
executed with their parameters.  Traces deliberately do **not** store the
partitions each query accessed — the paper notes that partitions must be
re-estimated with the DBMS's internal API whenever the partitioning scheme
changes, and the model builder here does exactly that.  (The recorder
leaves each query's ``partitions`` ``None``; a hand-built or loaded query
may carry them.)

Each query is held as a plain ``(statement, parameters, partitions)`` tuple
and read by position.  A trace is the bulk of what set-up leaves in memory
(about 25 queries per TPC-C transaction), and CPython stops tracking an
exact tuple of atomic values, so the cycle collector never rescans them;
a named tuple or dataclass instance would stay tracked.

Traces serialize to JSON-lines so they can be saved, inspected and reloaded.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

from ..errors import WorkloadError


class QueryTraceRecord(NamedTuple):
    """One query invocation inside a traced transaction, for building by hand.

    A :class:`TransactionTraceRecord` stores it as the plain tuple of the
    same three fields.
    """

    statement: str
    parameters: tuple
    partitions: tuple[int, ...] | None = None


@dataclass(frozen=True)
class TransactionTraceRecord:
    """One traced transaction: procedure inputs plus the executed queries.

    ``queries`` holds plain ``(statement, parameters, partitions)`` tuples;
    one given as a :class:`QueryTraceRecord` (or any other sequence) is
    converted on construction.

    ``at_ms`` optionally records the transaction's submission timestamp
    relative to the start of the trace.  The recorder stamps it when the
    trace is collected against an arrival process, and
    :class:`~repro.workload.sources.TraceReplaySource` replays stamped
    records at their original (or rescaled) times; unstamped records fall
    back to a fixed replay gap.
    """

    txn_id: int
    procedure: str
    parameters: tuple
    queries: tuple[tuple, ...]
    aborted: bool = False
    at_ms: float | None = None

    def __post_init__(self) -> None:
        # ``tuple(query)`` returns an exact tuple itself: recorded and loaded
        # queries pass through, hand-built ones share their representation.
        object.__setattr__(self, "queries", tuple([tuple(query) for query in self.queries]))

    @property
    def query_count(self) -> int:
        return len(self.queries)

    def to_json(self) -> dict:
        queries = []
        for statement, parameters, partitions in self.queries:
            query: dict = {"statement": statement, "parameters": _jsonable(parameters)}
            if partitions is not None:
                query["partitions"] = list(partitions)
            queries.append(query)
        payload = {
            "txn_id": self.txn_id,
            "procedure": self.procedure,
            "parameters": _jsonable(self.parameters),
            "queries": queries,
            "aborted": self.aborted,
        }
        if self.at_ms is not None:
            payload["at_ms"] = self.at_ms
        return payload

    @staticmethod
    def from_json(payload: dict) -> "TransactionTraceRecord":
        queries = []
        for query in payload["queries"]:
            partitions = query.get("partitions")
            queries.append((
                query["statement"],
                _detuple(query["parameters"]),
                tuple(partitions) if partitions is not None else None,
            ))
        return TransactionTraceRecord(
            txn_id=payload["txn_id"],
            procedure=payload["procedure"],
            parameters=_detuple(payload["parameters"]),
            queries=queries,
            aborted=payload.get("aborted", False),
            at_ms=payload.get("at_ms"),
        )


@dataclass
class WorkloadTrace:
    """A sample workload trace: an ordered list of transaction records."""

    records: list[TransactionTraceRecord] = field(default_factory=list)

    # ------------------------------------------------------------------
    def append(self, record: TransactionTraceRecord) -> None:
        self.records.append(record)

    def extend(self, records: Iterable[TransactionTraceRecord]) -> None:
        self.records.extend(records)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TransactionTraceRecord]:
        return iter(self.records)

    def __getitem__(self, index):
        return self.records[index]

    # ------------------------------------------------------------------
    @property
    def procedures(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for record in self.records:
            seen.setdefault(record.procedure, None)
        return tuple(seen)

    def for_procedure(self, procedure: str) -> "WorkloadTrace":
        """Sub-trace containing only the given procedure's transactions."""
        return WorkloadTrace([r for r in self.records if r.procedure == procedure])

    def split(self, *fractions: float) -> tuple["WorkloadTrace", ...]:
        """Split the trace into consecutive segments by fraction.

        The paper's feed-forward selection splits per-procedure workloads
        into training (30%), validation (30%) and testing (40%) worksets.
        Fractions must sum to at most 1; the final segment absorbs rounding.
        """
        if not fractions:
            raise WorkloadError("split requires at least one fraction")
        if any(f < 0 for f in fractions) or sum(fractions) > 1.0 + 1e-9:
            raise WorkloadError(f"invalid split fractions {fractions!r}")
        segments: list[WorkloadTrace] = []
        start = 0
        total = len(self.records)
        for i, fraction in enumerate(fractions):
            if i == len(fractions) - 1 and abs(sum(fractions) - 1.0) < 1e-9:
                stop = total
            else:
                stop = start + int(round(total * fraction))
            segments.append(WorkloadTrace(self.records[start:stop]))
            start = stop
        return tuple(segments)

    def halves(self) -> tuple["WorkloadTrace", "WorkloadTrace"]:
        """First/second half split used by the Table 3 accuracy experiment."""
        middle = len(self.records) // 2
        return WorkloadTrace(self.records[:middle]), WorkloadTrace(self.records[middle:])

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> None:
        """Write the trace as JSON lines."""
        path = Path(path)
        with path.open("w", encoding="utf-8") as handle:
            for record in self.records:
                handle.write(json.dumps(record.to_json()) + "\n")

    @staticmethod
    def load(path: str | Path) -> "WorkloadTrace":
        """Read a JSON-lines trace written by :meth:`save`."""
        path = Path(path)
        records = []
        with path.open("r", encoding="utf-8") as handle:
            for line_number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(TransactionTraceRecord.from_json(json.loads(line)))
                except (json.JSONDecodeError, KeyError, TypeError, AttributeError) as exc:
                    # TypeError / AttributeError: valid JSON of the wrong
                    # shape (``[1, 2]``, ``"queries": 5``, ``"queries": [5]``).
                    raise WorkloadError(f"malformed trace line {line_number}: {exc}") from exc
        return WorkloadTrace(records)


# ----------------------------------------------------------------------
# JSON helpers: tuples round-trip as lists, so parameters are normalized.
# ----------------------------------------------------------------------
def _jsonable(value):
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _detuple(value):
    if isinstance(value, list):
        return tuple(_detuple(v) for v in value)
    return value
