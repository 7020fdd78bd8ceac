"""Which fields a running session may change, read off the field table.

A field a running session may change carries ``live="<reconfigure keyword>"``
in its ``spec(...)`` declaration (:func:`repro.schema.live_fields`).  One
parametrized test walks every ``ClusterSpec`` and ``HoudiniConfig`` field:
a field marked live, changed through ``ClusterSpec.diff``, applies through
``ClusterSession.apply_schedule`` and the running session shows the new
value; any other field raises :class:`SessionError` naming it.  The changed
value is derived from the field's declared rule where it has one, so a new
field is covered without editing this module.
"""

from __future__ import annotations

import re
from dataclasses import fields, replace

import pytest

from repro import schema
from repro.errors import SessionError
from repro.houdini import HoudiniConfig
from repro.scheduling import AdmissionLimits
from repro.selftune import SelfTuneConfig
from repro.session import Cluster, ClusterSpec
from repro.sim import CostModel
from repro.tenancy import TenancyConfig, TenantPolicy
from repro.workload import OpenLoopSource
from tests.conftest import trained

BASE = ClusterSpec(benchmark="tatp", num_partitions=2, trace_transactions=100)

#: New values for the fields whose rule names a class, not a range (and for
#: the two undeclared structural fields).
CHANGED = {
    "houdini": HoudiniConfig(confidence_threshold=0.25),
    "selftune": SelfTuneConfig(),
    "tenancy": TenancyConfig(tenants={"gold": TenantPolicy(weight=2.0)}),
    "workload": OpenLoopSource(500.0, "uniform", seed=9),
    "admission": AdmissionLimits(max_in_flight=3),
    "cost_model": CostModel(query_local_ms=2 * CostModel().query_local_ms),
    "benchmark_config": {"subscribers": 10},
    "disabled_procedures": frozenset({"NoSuchProcedure"}),
}

#: Where a running session shows each live ``ClusterSpec`` field.
SHOWN = {
    "policy": lambda session: session.simulator.config.policy,
    "admission": lambda session: session.simulator.config.admission,
    "tenancy": lambda session: session.simulator.config.tenancy,
    "workload": lambda session: session.workload,
    "selftune": lambda session: session.selftune.config,
    "cost_model": lambda session: session.simulator.cost_model.to_dict(),
    "houdini": lambda session: session.houdini.config,
}

FIELDS = [(ClusterSpec, f.name) for f in fields(ClusterSpec)] + [
    (HoudiniConfig, f.name) for f in fields(HoudiniConfig)
]


def changed(cls, name: str, current):
    """A valid value of ``cls.name`` other than ``current``."""
    rule = schema.rule_of(cls, name)
    if name in CHANGED:
        return CHANGED[name]
    choices = rule["choices"]() if callable(rule["choices"]) else rule["choices"]
    if choices is not None:
        return next((choice for choice in choices if choice != current), current)
    if rule["kind"] == "bool":
        return not current
    if rule["kind"] == "int":
        return (current if current is not None else rule["ge"]) + 1
    return current / 2 if current else 1.0


def applies(cls, name: str) -> bool:
    """Marked live, or a nested config whose class marks fields live (a
    ``houdini`` diff goes field by field)."""
    nested = (schema.rule_of(cls, name) or {}).get("nested")
    return name in schema.live_fields(cls) or (
        nested is not None and bool(schema.live_fields(nested)))


def test_the_marks_are_the_documented_knobs():
    assert schema.live_fields(ClusterSpec) == {
        "policy": "policy", "admission": "admission", "workload": "workload",
        "selftune": "selftune", "tenancy": "tenancy", "cost_model": "cost",
    }
    assert schema.live_fields(HoudiniConfig) == {
        "enable_estimate_caching": "estimate_caching",
        "confidence_threshold": "confidence_threshold",
        "maintenance_window": "maintenance_window",
    }


@pytest.mark.parametrize(
    "cls,name", FIELDS, ids=[f"{cls.__name__}.{name}" for cls, name in FIELDS]
)
def test_a_field_changes_live_if_and_only_if_it_is_marked(cls, name):
    session = Cluster.open(BASE, artifacts=trained("tatp", 2, 100, 0))
    session.run_for(txns=20)
    if cls is HoudiniConfig:
        value = changed(cls, name, getattr(session.houdini.config, name))
        houdini = replace(HoudiniConfig(), **{name: value})
        diff = BASE.diff(replace(BASE, houdini=houdini))
        assert list(diff) == ["houdini"]
    else:
        value = changed(cls, name, getattr(BASE, name))
        # A spec field is refused by its key; the value need not be valid.
        diff = {name: value}
        if applies(cls, name):
            diff = BASE.diff(replace(BASE, **{name: value}))
            assert list(diff) == [name]
    if not applies(cls, name):
        with pytest.raises(SessionError, match=re.escape(f"{name!r} is not live")):
            session.apply_schedule([(session.now_ms, diff)])
        return
    session.apply_schedule([(session.now_ms + 1.0, diff)])
    if cls is HoudiniConfig:
        assert getattr(session.houdini.config, name) == value
    else:
        expected = value.to_dict() if name == "cost_model" else value
        assert SHOWN[name](session) == expected
    session.run_for(txns=10)  # and the session runs on under it
    session.close()
