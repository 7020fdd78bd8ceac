"""Declarative multi-tenant policy: weights, quotas and latency SLOs.

A :class:`TenancyConfig` turns tenant labels (``TenantSource`` streams,
``submit_request(tenant=...)``) into enforced policy.  Each labeled tenant
gets a :class:`TenantPolicy`:

* ``weight`` — its share of dispatch capacity under the weighted fair
  queuing scheduler (:class:`~repro.tenancy.scheduler.TenantScheduler`).
  Fairness is charged in *predicted milliseconds* (the scheduler's
  ``PredictedCost.service_ms``), so Houdini's predictions — not request
  counts — define what a fair share means;
* ``quota`` — the maximum number of the tenant's transactions admitted to
  execute at once, with ``TenancyConfig.shared_quota`` slots of common
  overflow capacity on top (:class:`~repro.tenancy.quota.TenantQuotaController`);
* ``slo_latency_ms`` / ``slo_quantile`` — the tenant's latency objective
  ("``slo_quantile`` of completions within ``slo_latency_ms``"), tracked by
  :class:`~repro.tenancy.slo.SLOTracker` and enforced under overload by the
  predicted-work shedding policy (:class:`~repro.tenancy.manager.TenancyManager`).

Unlabeled traffic (``tenant=None``) and labels missing from ``tenants``
fall back to ``default_policy`` for *weighting* only; quotas, SLO tracking
and shedding always require an explicit tenant label.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping

from .. import schema
from ..errors import SimulationError
from ..schema import spec


@dataclass(frozen=True)
class TenantPolicy:
    """Per-tenant policy: fair-share weight, admission quota, latency SLO."""

    #: Relative share of dispatch capacity under weighted fair queuing.
    weight: float = spec(1.0, kind="float", gt=0)
    #: Maximum concurrently executing transactions of this tenant
    #: (``None`` disables the quota for the tenant).
    quota: int | None = spec(None, kind="int", ge=1, optional=True)
    #: Latency objective in simulated milliseconds (``None`` = no SLO; the
    #: tenant is neither tracked nor shed).
    slo_latency_ms: float | None = spec(None, kind="float", gt=0, optional=True)
    #: The SLO quantile: ``slo_quantile`` of completions must land within
    #: ``slo_latency_ms`` (burn rate is measured against the remaining
    #: violation allowance, ``1 - slo_quantile``).
    slo_quantile: float = spec(0.95, kind="float", gt=0, lt=1)

    def __post_init__(self) -> None:
        schema.check(self, SimulationError)

    to_dict = schema.to_dict

    @classmethod
    def from_dict(cls, data: Mapping) -> "TenantPolicy":
        return schema.from_dict(cls, data, SimulationError, "tenant policy")


#: Policy applied to unlabeled traffic and unknown tenant labels.
_DEFAULT_POLICY = TenantPolicy()


@dataclass
class TenancyConfig:
    """The full multi-tenant policy of one cluster session."""

    #: Tenant label -> policy.  Values may be given as field dicts; they are
    #: coerced to :class:`TenantPolicy` at construction.
    tenants: dict[str, TenantPolicy] = field(default_factory=dict)
    #: Policy for unlabeled traffic and labels absent from ``tenants``
    #: (weighting only; ``None`` uses ``TenantPolicy()`` defaults).
    default_policy: TenantPolicy | None = spec(None, nested=TenantPolicy, optional=True)
    #: Shared overflow pool: admission slots any quota-limited tenant may
    #: borrow once its own quota is exhausted.
    shared_quota: int = spec(0, kind="int", ge=0)
    #: Enable predicted-work shedding for tenants with an SLO.
    shed: bool = spec(True, kind="bool")
    #: Shedding aggressiveness: an arrival predicted to complete later than
    #: ``slo_latency_ms * shed_headroom`` is rejected at the door.  Values
    #: below 1.0 shed earlier (more protective), above 1.0 later.
    shed_headroom: float = spec(1.0, kind="float", gt=0)

    def __post_init__(self) -> None:
        if not isinstance(self.tenants, Mapping):
            raise SimulationError(
                f"tenants must be a mapping of label -> TenantPolicy, "
                f"got {type(self.tenants).__name__}"
            )
        coerced: dict[str, TenantPolicy] = {}
        for label, policy in self.tenants.items():
            if not isinstance(label, str) or not label:
                raise SimulationError(
                    f"tenant labels must be non-empty strings, got {label!r}"
                )
            if isinstance(policy, Mapping):
                policy = TenantPolicy.from_dict(policy)
            if not isinstance(policy, TenantPolicy):
                raise SimulationError(
                    f"policy for tenant {label!r} must be a TenantPolicy or a "
                    f"field dict, got {type(policy).__name__}"
                )
            coerced[label] = policy
        self.tenants = coerced
        if isinstance(self.default_policy, Mapping):
            self.default_policy = TenantPolicy.from_dict(self.default_policy)
        schema.check(self, SimulationError)

    # ------------------------------------------------------------------
    def policy_for(self, label: str | None) -> TenantPolicy:
        """The policy governing one tenant label (default for unknowns)."""
        if label is not None:
            policy = self.tenants.get(label)
            if policy is not None:
                return policy
        if self.default_policy is not None:
            return self.default_policy
        return _DEFAULT_POLICY

    def copy(self) -> "TenancyConfig":
        """An independent copy (policies are frozen and safely shared)."""
        return replace(self)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        out = schema.to_dict(self)
        out["tenants"] = dict(sorted(out["tenants"].items()))
        return out

    @classmethod
    def from_dict(cls, data: Mapping) -> "TenancyConfig":
        return schema.from_dict(cls, data, SimulationError, "tenancy")
