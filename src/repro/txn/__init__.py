"""Transaction machinery: plans, records, strategies, coordinator."""

from .coordinator import MAX_RESTARTS, TransactionCoordinator
from .plan import ExecutionPlan
from .record import TransactionRecord
from .strategy import ExecutionStrategy

__all__ = [
    "ExecutionPlan",
    "TransactionRecord",
    "ExecutionStrategy",
    "TransactionCoordinator",
    "MAX_RESTARTS",
]
