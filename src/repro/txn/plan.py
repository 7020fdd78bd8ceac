"""Execution plans.

An :class:`ExecutionPlan` is what an execution strategy (a baseline or
Houdini) hands to the transaction coordinator before a transaction starts.
It encodes exactly the four properties the paper says are exploitable when
known in advance (Section 1):

1. the base partition where the control code should run (OP1),
2. the set of partitions to lock (OP2),
3. whether undo logging can be disabled (OP3),
4. per-partition "finish" hints enabling early prepare / speculation (OP4).

Plans also carry the estimation cost (in milliseconds of simulated time) the
strategy spent producing them, so the simulator can charge Houdini's overhead
honestly (Fig. 11).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..types import PartitionId, PartitionSet


@dataclass(slots=True)
class ExecutionPlan:
    """Pre-execution decisions for one transaction attempt."""

    #: Partition whose node runs the procedure's control code (OP1).
    base_partition: PartitionId
    #: Partitions to lock before starting (OP2).  ``None`` means "lock every
    #: partition in the cluster" (a fully distributed transaction).
    locked_partitions: PartitionSet | None
    #: Whether the attempt starts with undo logging disabled (OP3).
    undo_logging: bool = True
    #: Map of partition id -> estimated query index after which the
    #: transaction no longer needs that partition (OP4 / early prepare).
    #: The simulator uses this to release partitions early.
    finish_after_query: dict[PartitionId, int] = field(default_factory=dict)
    #: Simulated milliseconds spent computing this plan (Houdini overhead).
    estimation_ms: float = 0.0
    #: Free-form tag describing which strategy produced the plan.
    source: str = ""
    #: True when the plan predicts the transaction is single-partitioned.
    predicted_single_partition: bool = False
    #: Predicted probability that the transaction aborts (OP3 input).
    predicted_abort_probability: float = 0.0

    def lock_set(self, num_partitions: int) -> PartitionSet:
        """The concrete set of partitions this plan locks."""
        if self.locked_partitions is None:
            return PartitionSet.of(range(num_partitions))
        return self.locked_partitions
