"""Prediction-driven admission control (paper §8, future work).

The admission controller sits between the scheduler and the execution
engine.  Before a transaction is dispatched it checks the predicted resource
usage against what is already in flight; transactions that would overload
the node are deferred (pushed back into the queue) and, beyond a configurable
queueing ceiling, rejected so clients can back off instead of piling up.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .. import schema
from ..errors import SimulationError
from ..schema import spec
from .scheduler import PendingTransaction


class AdmissionDecision(Enum):
    """What the controller decided for one pending transaction."""

    ADMIT = "admit"
    DEFER = "defer"
    REJECT = "reject"


@dataclass(frozen=True)
class AdmissionLimits:
    """Capacity limits the controller enforces.

    All limits are optional; ``None`` disables the corresponding check.
    """

    #: Maximum number of transactions executing at once.
    max_in_flight: int | None = spec(None, kind="int", ge=1, optional=True)
    #: Maximum number of *distributed* transactions executing at once —
    #: these are the expensive ones (multi-partition locks + 2PC).
    max_distributed_in_flight: int | None = spec(None, kind="int", ge=1, optional=True)
    #: Maximum total predicted service time (ms) of in-flight transactions.
    max_in_flight_ms: float | None = spec(None, kind="float", gt=0, optional=True)
    #: Deferrals after which a transaction is rejected outright instead of
    #: being requeued forever.  A deferral is one drain pass that examined
    #: the transaction and found no capacity — it stays in the ready set and
    #: every pass re-examines it, so the budget counts scheduling events
    #: (submissions, completions, partition releases), not simulated time.
    #: Time parked on a busy partition costs nothing.
    max_deferrals: int = spec(16, kind="int", ge=0)

    def __post_init__(self) -> None:
        schema.check(self, SimulationError)

    to_dict = schema.to_dict

    @classmethod
    def from_dict(cls, data) -> "AdmissionLimits":
        return schema.from_dict(cls, data, SimulationError, "admission")


@dataclass
class AdmissionStats:
    """Counters describing one controller's activity."""

    admitted: int = 0
    deferred: int = 0
    rejected: int = 0


class AdmissionController:
    """Admits, defers or rejects transactions based on predicted load."""

    def __init__(self, limits: AdmissionLimits | None = None) -> None:
        self.limits = limits or AdmissionLimits()
        self.stats = AdmissionStats()
        self._in_flight: dict[int, PendingTransaction] = {}
        self._in_flight_ms = 0.0
        self._distributed_in_flight = 0

    # ------------------------------------------------------------------
    @property
    def in_flight(self) -> int:
        return len(self._in_flight)

    @property
    def distributed_in_flight(self) -> int:
        return self._distributed_in_flight

    # ------------------------------------------------------------------
    def decide(self, pending: PendingTransaction) -> AdmissionDecision:
        """Decide whether ``pending`` may start executing now."""
        if pending.deferrals > self.limits.max_deferrals:
            self.stats.rejected += 1
            return AdmissionDecision.REJECT
        if self._would_overload(pending):
            self.stats.deferred += 1
            return AdmissionDecision.DEFER
        self._admit(pending)
        return AdmissionDecision.ADMIT

    def _would_overload(self, pending: PendingTransaction) -> bool:
        limits = self.limits
        if limits.max_in_flight is not None and self.in_flight >= limits.max_in_flight:
            return True
        if (
            limits.max_distributed_in_flight is not None
            and not pending.predicted_single_partition
            and self._distributed_in_flight >= limits.max_distributed_in_flight
        ):
            return True
        if (
            limits.max_in_flight_ms is not None
            and self._in_flight
            and self._in_flight_ms + pending.predicted_cost_ms > limits.max_in_flight_ms
        ):
            return True
        return False

    def _admit(self, pending: PendingTransaction) -> None:
        self._in_flight[id(pending)] = pending
        self._in_flight_ms += pending.predicted_cost_ms
        if not pending.predicted_single_partition:
            self._distributed_in_flight += 1
        self.stats.admitted += 1

    # ------------------------------------------------------------------
    def set_limits(self, limits: AdmissionLimits | None) -> None:
        """Swap the capacity limits on a live controller.

        In-flight accounting is preserved: transactions admitted under the
        old limits keep holding (and eventually release) their capacity, and
        the new limits apply from the next :meth:`decide` call on.
        """
        self.limits = limits or AdmissionLimits()

    def release_if_admitted(self, pending: PendingTransaction) -> bool:
        """Release ``pending`` if this controller admitted it.

        Returns ``False`` (a no-op) otherwise — the case a controller
        installed mid-session sees when transactions admitted before it
        existed complete.
        """
        stored = self._in_flight.pop(id(pending), None)
        if stored is None:
            return False
        self._in_flight_ms -= stored.predicted_cost_ms
        if self._in_flight_ms < 1e-12:
            self._in_flight_ms = 0.0
        if not stored.predicted_single_partition:
            self._distributed_in_flight -= 1
        return True

    def describe(self) -> str:
        return (
            f"AdmissionController(in_flight={self.in_flight}, "
            f"distributed={self.distributed_in_flight}, "
            f"load={self._in_flight_ms:.2f}ms)"
        )
