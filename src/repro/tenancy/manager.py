"""The tenancy runtime: shedding decisions, in-flight work signal, snapshot.

:class:`TenancyManager` is the one object the simulator holds.  It owns the
quota controller and the SLO tracker, maintains the predicted-end heap that
prices in-flight *remaining* work, counts per-tenant arrivals and sheds, and
makes the admission-time shedding decision:

    predicted completion =
        remaining in-flight work / partitions
      + (tenant backlog + own cost) / (tenant fair share × partitions)

where the fair share is the tenant's weight over the weights of currently
backlogged tenants (itself included).  An arrival predicted to finish past
``slo_latency_ms × shed_headroom`` is rejected at the door — the tenant that
is already outside its SLO sheds, tenants inside theirs are untouched.  Only
explicitly configured tenants with an SLO are ever shed; unlabeled traffic
participates in weighted fairness but is never rejected here.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING

from .config import TenancyConfig
from .quota import TenantQuotaController
from .scheduler import TenantScheduler, _label_order
from .slo import SLOTracker

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..scheduling.scheduler import TransactionScheduler


class TenancyManager:
    """Per-session tenancy state: quotas, SLOs, shedding, snapshots."""

    def __init__(self, config: TenancyConfig) -> None:
        self.config = config
        self.quota = TenantQuotaController(config)
        self.slo = SLOTracker(config)
        #: Min-heap of predicted completion times (simulated ms) of
        #: dispatched transactions — the incrementally maintained form of
        #: the ``in_flight()`` remaining-work signal.  Entries at or before
        #: "now" are lazily discarded on read.
        self._work_ends: list[float] = []
        self._arrival_counts: dict[str, int] = {}
        self._shed_counts: dict[str, int] = {}

    # ------------------------------------------------------------------
    def set_config(self, config: TenancyConfig) -> None:
        """Live reconfigure: swap policy, keep runtime accounting."""
        self.config = config
        self.quota.set_config(config)
        self.slo.set_config(config)

    # ------------------------------------------------------------------
    # In-flight predicted-work signal
    # ------------------------------------------------------------------
    def note_dispatch(self, predicted_end_ms: float) -> None:
        """Register one dispatched transaction's predicted completion time."""
        heapq.heappush(self._work_ends, predicted_end_ms)

    def seed_inflight(self, predicted_ends_ms: list[float]) -> None:
        """Adopt outstanding completions on live attach (``set_tenancy``)."""
        for end in predicted_ends_ms:
            heapq.heappush(self._work_ends, end)

    def inflight_remaining_ms(self, now_ms: float) -> float:
        """Predicted remaining work of everything dispatched but unfinished."""
        ends = self._work_ends
        while ends and ends[0] <= now_ms:
            heapq.heappop(ends)
        total = 0.0
        for end in ends:
            total += end - now_ms
        return total

    # ------------------------------------------------------------------
    # Shedding
    # ------------------------------------------------------------------
    def record_arrival(self, label: str | None) -> None:
        if label is not None:
            self._arrival_counts[label] = self._arrival_counts.get(label, 0) + 1

    def should_shed(
        self,
        label: str | None,
        own_cost_ms: float,
        scheduler: "TransactionScheduler",
        now_ms: float,
        num_partitions: int,
    ) -> bool:
        """Decide whether one arrival would land outside its tenant's SLO."""
        if not self.config.shed or label is None:
            return False
        policy = self.config.tenants.get(label)
        if policy is None or policy.slo_latency_ms is None:
            return False
        if not isinstance(scheduler, TenantScheduler):
            return False
        labels = scheduler.backlogged_tenants()
        if label not in labels:
            labels = sorted([*labels, label], key=_label_order)
        total_weight = 0.0
        for other in labels:  # sorted order: deterministic float summation
            total_weight += self.config.policy_for(other).weight
        share = self.config.policy_for(label).weight / total_weight
        capacity = num_partitions if num_partitions > 0 else 1
        predicted_ms = self.inflight_remaining_ms(now_ms) / capacity + (
            scheduler.predicted_backlog_ms_for(label) + own_cost_ms
        ) / (share * capacity)
        return predicted_ms > policy.slo_latency_ms * self.config.shed_headroom

    def record_shed(self, label: str) -> None:
        self._shed_counts[label] = self._shed_counts.get(label, 0) + 1

    # ------------------------------------------------------------------
    def snapshot(self, scheduler: "TransactionScheduler | None" = None) -> dict:
        """JSON-shaped per-tenant picture for ``SimulationResult.tenancy``."""
        labels = sorted(set(self._arrival_counts) | set(self._shed_counts))
        arrivals: dict[str, dict] = {}
        for label in labels:
            seen = self._arrival_counts.get(label, 0)
            shed = self._shed_counts.get(label, 0)
            arrivals[label] = {
                "arrivals": seen,
                "shed": shed,
                "shed_rate": shed / seen if seen else 0.0,
            }
        snapshot = {
            "config": self.config.to_dict(),
            "arrivals": arrivals,
            "slo": self.slo.snapshot(),
            "quota": self.quota.snapshot(),
        }
        if isinstance(scheduler, TenantScheduler):
            snapshot["fairness"] = scheduler.fairness_snapshot()
            snapshot["queue_depths"] = scheduler.queue_depths()
        return snapshot
