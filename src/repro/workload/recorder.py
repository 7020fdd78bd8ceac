"""Trace recorder.

Builds a :class:`~repro.workload.trace.WorkloadTrace` by actually executing
requests against a populated database with no lock restrictions.  This is the
reproduction of the paper's "sample workload trace ... collected over a
simulated one hour period": the control code runs for real, so loops,
conditionals and user aborts all show up in the trace exactly as they would
in production.

Each executed query is recorded as the plain ``(statement, parameters,
partitions)`` tuple :class:`~repro.workload.trace.TransactionTraceRecord`
holds, with ``partitions`` left ``None`` (the model builder re-estimates
them), built directly rather than through a named type: a recorded trace is
then nothing the cycle collector keeps rescanning.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence

from ..catalog.partitioning import default_base_partition
from ..catalog.schema import Catalog
from ..engine.engine import AttemptOutcome, ExecutionEngine
from ..errors import WorkloadError
from ..storage.partition_store import Database
from ..types import PartitionId, ProcedureRequest
from .trace import TransactionTraceRecord, WorkloadTrace

#: Chooses the base partition used while recording a request.
BasePartitionChooser = Callable[[ProcedureRequest], PartitionId]


class TraceRecorder:
    """Executes requests and records their actual execution paths."""

    def __init__(
        self,
        catalog: Catalog,
        database: Database,
        *,
        base_partition_chooser: BasePartitionChooser | None = None,
    ) -> None:
        self.catalog = catalog
        self.database = database
        self.engine = ExecutionEngine(catalog, database)
        self._choose_base = base_partition_chooser or self._default_base_chooser
        self._next_txn_id = 1

    # ------------------------------------------------------------------
    def record(
        self,
        requests: Iterable[ProcedureRequest],
        *,
        arrival_times_ms: Iterable[float] | None = None,
    ) -> WorkloadTrace:
        """Execute every request once and return the resulting trace.

        ``arrival_times_ms`` optionally stamps each record with a submission
        timestamp (e.g. from :func:`repro.workload.sources.arrival_times`),
        which :class:`~repro.workload.sources.TraceReplaySource` replays at
        original or rescaled speed.  The iterable must yield at least as
        many timestamps as there are requests.
        """
        trace = WorkloadTrace()
        times: Iterator[float] | None = (
            iter(arrival_times_ms) if arrival_times_ms is not None else None
        )
        for request in requests:
            at_ms = None
            if times is not None:
                try:
                    at_ms = next(times)
                except StopIteration:
                    raise WorkloadError(
                        f"arrival_times_ms ran out after {len(trace)} "
                        f"timestamp(s) with requests still unrecorded"
                    ) from None
            trace.append(self.record_one(request, at_ms=at_ms))
        return trace

    def record_one(
        self, request: ProcedureRequest, *, at_ms: float | None = None
    ) -> TransactionTraceRecord:
        """Execute a single request (unrestricted) and trace it."""
        txn_id = self._next_txn_id
        self._next_txn_id += 1
        base_partition = self._choose_base(request)
        attempt = self.engine.execute_attempt(
            request,
            txn_id=txn_id,
            base_partition=base_partition,
            locked_partitions=None,
            undo_enabled=True,
        )
        queries = tuple([
            (invocation.statement, invocation.parameters, None)
            for invocation in attempt.invocations
        ])
        return TransactionTraceRecord(
            txn_id=txn_id,
            procedure=request.procedure,
            parameters=tuple(request.parameters),
            queries=queries,
            aborted=attempt.outcome is AttemptOutcome.USER_ABORT,
            at_ms=at_ms,
        )

    # ------------------------------------------------------------------
    def _default_base_chooser(self, request: ProcedureRequest) -> PartitionId:
        """Default base partition (:func:`default_base_partition`).  Callers
        with different conventions should supply their own chooser (the
        benchmark packages do)."""
        return default_base_partition(self.catalog.scheme, request.parameters)
