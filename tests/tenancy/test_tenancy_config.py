"""TenantPolicy / TenancyConfig validation and serialization contracts."""

from __future__ import annotations

import json

import pytest

from repro.errors import SimulationError
from repro.tenancy import TenancyConfig, TenantPolicy


class TestTenantPolicyValidation:
    def test_defaults_are_valid(self):
        policy = TenantPolicy()
        assert policy.weight == 1.0
        assert policy.quota is None
        assert policy.slo_latency_ms is None
        assert policy.slo_quantile == 0.95

    @pytest.mark.parametrize("weight", [0.0, -1.0, "2", True, None])
    def test_bad_weight_rejected(self, weight):
        with pytest.raises(SimulationError):
            TenantPolicy(weight=weight)

    @pytest.mark.parametrize("quota", [0, -3, 1.5, True])
    def test_bad_quota_rejected(self, quota):
        with pytest.raises(SimulationError):
            TenantPolicy(quota=quota)

    @pytest.mark.parametrize("slo", [0.0, -10.0, True])
    def test_bad_slo_rejected(self, slo):
        with pytest.raises(SimulationError):
            TenantPolicy(slo_latency_ms=slo)

    @pytest.mark.parametrize("quantile", [0.0, 1.0, -0.5, 2.0])
    def test_bad_quantile_rejected(self, quantile):
        with pytest.raises(SimulationError):
            TenantPolicy(slo_quantile=quantile)


class TestTenancyConfigValidation:
    def test_bad_shared_quota_rejected(self):
        with pytest.raises(SimulationError):
            TenancyConfig(shared_quota=-1)

    def test_bad_headroom_rejected(self):
        with pytest.raises(SimulationError):
            TenancyConfig(shed_headroom=0.0)

    def test_tenant_labels_must_be_strings(self):
        with pytest.raises(SimulationError):
            TenancyConfig(tenants={7: TenantPolicy()})

    def test_policy_for_falls_back_to_default(self):
        config = TenancyConfig(
            tenants={"gold": TenantPolicy(weight=3.0)},
            default_policy=TenantPolicy(weight=0.5),
        )
        assert config.policy_for("gold").weight == 3.0
        assert config.policy_for("anyone-else").weight == 0.5
        assert TenancyConfig().policy_for("x").weight == 1.0

    def test_mapping_coercion(self):
        config = TenancyConfig(tenants={"gold": {"weight": 2.0, "quota": 4}})
        assert config.tenants["gold"] == TenantPolicy(weight=2.0, quota=4)


class TestRoundTrip:
    def test_json_round_trip(self):
        config = TenancyConfig(
            tenants={
                "gold": TenantPolicy(weight=4.0, quota=8, slo_latency_ms=50.0),
                "free": TenantPolicy(weight=1.0, slo_quantile=0.99),
            },
            default_policy=TenantPolicy(weight=0.25),
            shared_quota=2,
            shed=False,
            shed_headroom=1.5,
        )
        through_json = json.loads(json.dumps(config.to_dict()))
        restored = TenancyConfig.from_dict(through_json)
        assert restored.to_dict() == config.to_dict()
        assert restored.tenants == config.tenants
        assert restored.default_policy == config.default_policy

    def test_copy_is_independent(self):
        config = TenancyConfig(tenants={"a": TenantPolicy()})
        clone = config.copy()
        clone.tenants["b"] = TenantPolicy(weight=2.0)
        assert "b" not in config.tenants
