"""Weighted fair queuing over per-tenant transaction queues.

:class:`TenantScheduler` is a drop-in :class:`~repro.scheduling.scheduler.
TransactionScheduler` that partitions the ready queue by tenant label and
dispatches by *virtual time*: each tenant accumulates credit equal to the
predicted service milliseconds it consumed divided by its policy weight, and
the backlogged tenant with the smallest virtual time dispatches next.  Since
charges are ``PredictedCost.service_ms`` — Houdini's estimate priced through
the simulator's cost model — fairness is defined over predicted *work*, not
request counts: a tenant of heavy distributed transactions makes progress at
the same weighted rate as one of cheap single-partition reads.

Inside one tenant the configured scheduling policy is unchanged — entries
carry the exact (policy key, FIFO sequence) ordering of the flat scheduler.
Each tenant is one *lane* of the partition wait lists: a release wakes the
head of every tenant's list on that partition, and virtual time decides
which of them is examined first.

Idle tenants hold no credit: on the idle → backlogged transition a tenant's
virtual time is floored to the global watermark (the virtual time of the
last dispatch), so sitting out does not bank an unbounded burst.

Each tenant's queued predicted work — what the shedding decision reads on
every arrival — is a running total, kept exactly: costs enter as integers
scaled by 2**1074 (every finite float is a multiple of 2**-1074), so adds
and removes leave no rounding residue, and the total reads back as the
correctly rounded sum of the queued costs (``math.fsum``), independent of
the order they arrived or left in.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterator

from ..scheduling.policies import SchedulingPolicy
from ..scheduling.scheduler import ENTRY_ORDER, PendingTransaction, TransactionScheduler
from ..types import PartitionId
from .config import TenancyConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.cost_model import CostModel

#: Virtual-time charge floor: even a zero-cost (estimate-free) dispatch
#: advances its tenant's clock, so unpredicted traffic cannot starve
#: predicted traffic by dispatching for free.
_MIN_CHARGE_MS = 1.0

#: Every finite float is an integer multiple of 2**-_EXACT_SHIFT.
_EXACT_SHIFT = 1074
_EXACT_SCALE = 1 << _EXACT_SHIFT


#: Stands for an infinite cost: above any total of finite costs (each is
#: below 2**2098 in these units), so a queued one reads back as ``inf``.
_INFINITE = 1 << 2200


def _exact(cost_ms: float) -> int:
    """``cost_ms`` as an exact integer multiple of 2**-1074."""
    if not math.isfinite(cost_ms):  # a price that overflowed
        return _INFINITE
    numerator, denominator = cost_ms.as_integer_ratio()
    # ``denominator`` is 2**k: scale by 2**(1074 - k).
    return numerator << (_EXACT_SHIFT + 1 - denominator.bit_length())


def _label_order(label: str | None) -> tuple[bool, str]:
    """Deterministic tenant tie-break: unlabeled first, then lexicographic."""
    return (label is not None, label or "")


class TenantScheduler(TransactionScheduler):
    """Per-tenant queues dispatched by predicted-work weighted fair queuing."""

    def __init__(
        self,
        config: TenancyConfig,
        policy: SchedulingPolicy | None = None,
        *,
        cost_model: "CostModel | None" = None,
        streaming_waits: bool = False,
    ) -> None:
        super().__init__(
            policy, cost_model=cost_model, streaming_waits=streaming_waits
        )
        self._config = config
        #: label -> queued-transaction count, ready *and* parked: a tenant
        #: with parked work is backlogged, not idle.
        self._tenant_counts: dict[str | None, int] = {}
        #: label -> queued predicted work (ready and parked) in units of
        #: 2**-1074 ms: exact, so removals cancel additions to the bit.
        #: ``predicted_cost_ms`` must not change while a transaction is queued.
        #: It moves only with the queue (:meth:`_push`, :meth:`pop`,
        #: :meth:`requeue`, :meth:`_drain_queued`); the shed predictor reads
        #: it on every arrival.  A requeue that skips it fails
        #: ``tests/property/test_property_backlog.py``.
        self._backlog: dict[str | None, int] = {}
        #: label -> virtual time in weighted predicted milliseconds.
        self._tenant_vtime: dict[str | None, float] = {}
        #: Global virtual-time watermark: pre-charge virtual time of the most
        #: recent *dispatch*.  Newly backlogged tenants are floored to it.
        #: Virtual time moves only at dispatch (:meth:`note_dispatched`) —
        #: never at pop — so a candidate the drain parks or pushes back
        #: leaves both its tenant's vtime and this watermark untouched.
        self._vfloor = 0.0

    # ------------------------------------------------------------------
    @property
    def tenancy_config(self) -> TenancyConfig:
        return self._config

    def set_tenancy(self, config: TenancyConfig) -> None:
        """Adopt a new tenancy config mid-stream.

        Weights apply from the next dispatch (virtual clocks carry over —
        a reconfigure is not an amnesty).
        """
        self._config = config

    # ------------------------------------------------------------------
    def _charge_ms(self, pending: PendingTransaction) -> float:
        cost = pending.predicted_cost_ms
        return cost if cost > _MIN_CHARGE_MS else _MIN_CHARGE_MS

    def _lane(self, pending: PendingTransaction) -> str | None:
        return pending.tenant

    def _push(self, pending: PendingTransaction) -> None:
        label = pending.tenant
        if not self._tenant_counts.get(label):
            # Idle -> backlogged: forfeit credit banked while absent.  Only
            # first entries come through here; a popped transaction's tenant
            # is not idle, and :meth:`requeue` does not re-floor it.
            vtime = self._tenant_vtime.get(label, 0.0)
            if vtime < self._vfloor:
                self._tenant_vtime[label] = self._vfloor
        self._tenant_counts[label] = self._tenant_counts.get(label, 0) + 1
        backlog = self._backlog
        backlog[label] = backlog.get(label, 0) + _exact(pending.predicted_cost_ms)
        super()._push(pending)

    def _rank(self, label: str | None) -> tuple:
        """Dispatch rank of a tenant: least virtual time first."""
        return (self._tenant_vtime.get(label, 0.0),) + _label_order(label)

    def _select(self) -> str | None:
        """The tenant whose ready head dispatches next."""
        if not self._ready:
            raise IndexError("pop from an empty TenantScheduler")
        return min(self._ready, key=self._rank)

    # ------------------------------------------------------------------
    def pop(self) -> PendingTransaction:
        pending = super().pop()
        self._tenant_counts[pending.tenant] -= 1
        self._backlog[pending.tenant] -= _exact(pending.predicted_cost_ms)
        return pending

    def requeue(
        self, pending: PendingTransaction, partition: PartitionId | None = None
    ) -> None:
        self._tenant_counts[pending.tenant] += 1
        self._backlog[pending.tenant] += _exact(pending.predicted_cost_ms)
        super().requeue(pending, partition)

    #: Inherited as is; named here because ``benchmarks/e2e/spans.py`` looks
    #: its tenancy span points up in this class's own namespace.
    resubmit = TransactionScheduler.resubmit

    def note_dispatched(self, pending: PendingTransaction) -> None:
        """Charge the dispatching tenant and advance the global watermark.

        This — not :meth:`pop` — is where virtual time moves.  The drain
        pops candidates it then parks or pushes back; charging at pop would
        need refunds, and the transient charges would leak into the
        watermark through the idle -> backlogged floor, eroding the weighted
        clocks into a tie-break (observed: the lexicographically-smaller
        tenant wins).
        """
        super().note_dispatched(pending)
        label = pending.tenant
        vtime = self._tenant_vtime.get(label, 0.0)
        if vtime > self._vfloor:
            self._vfloor = vtime
        weight = self._config.policy_for(label).weight
        self._tenant_vtime[label] = vtime + self._charge_ms(pending) / weight

    # ------------------------------------------------------------------
    def _drain_queued(self) -> list[PendingTransaction]:
        queued = super()._drain_queued()
        self._tenant_counts.clear()
        self._backlog.clear()
        return queued

    def _entries_of(self, label: str | None) -> Iterator[tuple]:
        """One tenant's queued entries, ready then parked, unordered."""
        yield from self._ready.get(label, ())
        for lanes in self._wait_lists.values():
            for heap in lanes.get(label, {}).values():
                yield from heap

    def pending_transactions(self) -> list[PendingTransaction]:
        """Still-queued transactions — ready or parked — tenants in
        virtual-time order.

        Introspection only.  Within one tenant the entries follow the policy
        (key, seq) order; across tenants the current virtual-time ranking —
        a faithful instantaneous picture, though actual interleaving depends
        on charges accrued as dispatch proceeds.
        """
        return [
            entry[2]
            for label in sorted(self.backlogged_tenants(), key=self._rank)
            for entry in sorted(self._entries_of(label), key=ENTRY_ORDER)
        ]

    # ------------------------------------------------------------------
    def predicted_backlog_ms_for(self, label: str | None) -> float:
        """Predicted service time queued (ready or parked) for one tenant:
        the correctly rounded sum of the queued costs, in O(1); ``inf`` once
        that sum is past the largest float or a queued cost is infinite."""
        try:
            return self._backlog.get(label, 0) / _EXACT_SCALE
        except OverflowError:
            return math.inf

    def backlogged_tenants(self) -> list[str | None]:
        """Labels with queued work, in deterministic (unlabeled-first) order."""
        return sorted(
            (label for label, count in self._tenant_counts.items() if count),
            key=_label_order,
        )

    def queue_depths(self) -> dict[str, dict[str, int]]:
        """Per-tenant backlog depth (JSON-shaped), parked work included; a
        tenant is one queue, listed under the key ``"0"``."""
        return {
            label if label is not None else "": {"0": self._tenant_counts[label]}
            for label in self.backlogged_tenants()
        }

    def fairness_snapshot(self) -> dict[str, float]:
        """Virtual time per tenant (unlabeled traffic under the ``""`` key)."""
        return {
            label if label is not None else "": vtime
            for label, vtime in sorted(
                self._tenant_vtime.items(), key=lambda item: _label_order(item[0])
            )
        }

    def describe(self) -> str:
        return (
            f"TenantScheduler(policy={self.policy.name}, pending={len(self)}, "
            f"tenants={len(self.backlogged_tenants())}, "
            f"backlog={self.predicted_backlog_ms():.2f}ms)"
        )
