"""Per-tenant admission quotas with a shared overflow pool.

The existing :class:`~repro.scheduling.admission.AdmissionController` caps
*global* concurrency; :class:`TenantQuotaController` layers per-tenant caps
on top.  A tenant whose own quota is exhausted may borrow one of the
``TenancyConfig.shared_quota`` overflow slots; once both are gone its
dispatches are pushed back to the queue (a quota push-back is not an
admission deferral — it does not eat into the ``max_deferrals`` rejection
budget, and a wake-up is guaranteed because a blocked tenant by definition
has transactions in flight whose completions re-drain the queue).

Accounting is charged per admitted transaction and released on completion,
keyed by object identity — exactly the admission controller's contract — so
a mid-run :meth:`set_config` never underflows: transactions admitted under
the old config release the slots they actually hold.
"""

from __future__ import annotations

from ..scheduling.scheduler import PendingTransaction
from .config import TenancyConfig


class TenantQuotaController:
    """Charge/release per-tenant concurrency slots around admission."""

    def __init__(self, config: TenancyConfig) -> None:
        self._config = config
        #: label -> own-quota slots currently held.
        self._held: dict[str, int] = {}
        #: Shared overflow slots currently held (across all tenants).
        self._shared_used = 0
        #: id(pending) -> (label, used_shared) for every admitted
        #: transaction this controller charged.  Release is a lookup here,
        #: never a recomputation against the (possibly reconfigured) config.
        self._quota_held: dict[int, tuple[str, bool]] = {}
        #: label -> dispatches pushed back because no slot was free.
        self.blocked: dict[str, int] = {}

    # ------------------------------------------------------------------
    def set_config(self, config: TenancyConfig) -> None:
        """Swap the config; slots already charged stay charged as-is."""
        self._config = config

    def _quota_for(self, label: str | None) -> int | None:
        if label is None or label not in self._config.tenants:
            return None
        return self._config.tenants[label].quota

    # ------------------------------------------------------------------
    def would_admit(self, pending: PendingTransaction) -> bool:
        """Pure check: is a slot free for this transaction right now?"""
        quota = self._quota_for(pending.tenant)
        if quota is None:
            return True
        if self._held.get(pending.tenant, 0) < quota:
            return True
        return self._shared_used < self._config.shared_quota

    def note_blocked(self, pending: PendingTransaction) -> None:
        """Count one quota push-back (for the shed/quota metrics)."""
        label = pending.tenant
        if label is not None:
            self.blocked[label] = self.blocked.get(label, 0) + 1

    def admit(self, pending: PendingTransaction) -> None:
        """Charge a slot for an admitted transaction.

        Callers must have checked :meth:`would_admit` in the same drain step;
        the own-quota slot is preferred over the shared pool, mirroring the
        check, so the two never disagree.
        """
        label = pending.tenant
        quota = self._quota_for(label)
        if quota is None:
            return
        assert label is not None
        if self._held.get(label, 0) < quota:
            self._held[label] = self._held.get(label, 0) + 1
            self._quota_held[id(pending)] = (label, False)
        else:
            self._shared_used += 1
            self._quota_held[id(pending)] = (label, True)

    def release_if_admitted(self, pending: PendingTransaction) -> bool:
        """Release the slot charged for ``pending``, if any."""
        entry = self._quota_held.pop(id(pending), None)
        if entry is None:
            return False
        label, used_shared = entry
        if used_shared:
            if self._shared_used > 0:
                self._shared_used -= 1
        else:
            held = self._held.get(label, 0)
            if held > 1:
                self._held[label] = held - 1
            else:
                self._held.pop(label, None)
        return True

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        return {
            "held": {label: count for label, count in sorted(self._held.items())},
            "shared_used": self._shared_used,
            "blocked": {
                label: count for label, count in sorted(self.blocked.items())
            },
        }
