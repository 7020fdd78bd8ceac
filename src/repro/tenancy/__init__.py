"""Multi-tenant SLO subsystem: policy, fair scheduling, quotas, shedding.

Turns the tenant labels of ``TenantSource`` streams into enforced policy:

* :class:`TenancyConfig` / :class:`TenantPolicy` — declarative per-tenant
  weight, admission quota and latency SLO;
* :class:`TenantScheduler` — weighted fair queuing over per-tenant queues,
  charged in predicted milliseconds (Houdini's estimates define fairness);
* :class:`TenantQuotaController` — per-tenant concurrency caps with a
  shared overflow pool, layered under the global admission controller;
* :class:`SLOTracker` — per-tenant compliance and burn-rate metrics;
* :class:`TenancyManager` — the runtime: predicted-remaining-work shedding
  under overload, in-flight signal maintenance, result snapshots.

Enabled with ``ClusterSpec(tenancy=...)``; ``tenancy`` is a live field, so
``ClusterSession.reconfigure(tenancy=...)`` (also what a spec diff replayed
by ``apply_schedule`` and ``repro serve``'s ``tenancy`` verbs call) swaps or
removes it on a running session.  Inspected via the ``tenancy`` and ``slo``
commands of ``repro serve``.
"""

from .config import TenancyConfig, TenantPolicy
from .manager import TenancyManager
from .quota import TenantQuotaController
from .scheduler import TenantScheduler
from .slo import SLOTracker

__all__ = [
    "SLOTracker",
    "TenancyConfig",
    "TenancyManager",
    "TenantPolicy",
    "TenantQuotaController",
    "TenantScheduler",
]
