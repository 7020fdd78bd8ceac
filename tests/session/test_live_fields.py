"""Which fields a running session may change, read off the field table.

A field a running session may change carries ``live=True`` in its
``spec(...)`` declaration (:func:`repro.schema.live_fields`), and
``ClusterSession.reconfigure`` takes it by its name.  One parametrized test
walks every ``ClusterSpec`` and ``HoudiniConfig`` field: a field marked
live, changed through ``ClusterSpec.diff``, applies through
``ClusterSession.apply_schedule`` and the running session shows the new
value; any other field raises :class:`SessionError` naming it, through
``apply_schedule`` and ``reconfigure`` alike.  The changed value is derived
from the field's declared rule where it has one, so a new field is covered
without editing this module.
"""

from __future__ import annotations

import json
import re
from dataclasses import fields, replace

import pytest

from repro import schema
from repro.errors import SessionError
from repro.houdini import HoudiniConfig
from repro.scheduling import AdmissionLimits
from repro.selftune import SelfTuneConfig
from repro.session import Cluster, ClusterSession, ClusterSpec
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
    "selftune": lambda session: session.selftune and session.selftune.config,
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


def test_the_marks_are_the_documented_knobs():
    assert schema.live_fields(ClusterSpec) == (
        "houdini", "selftune", "tenancy", "workload", "policy", "admission", "cost_model",
    )
    assert schema.live_fields(HoudiniConfig) == (
        "confidence_threshold", "enable_estimate_caching",
    )


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
        if name in schema.live_fields(cls):
            diff = BASE.diff(replace(BASE, **{name: value}))
            assert list(diff) == [name]
    if name not in schema.live_fields(cls):
        refused = re.escape(f"{name!r} is not live")
        for apply in (lambda: session.apply_schedule([(session.now_ms, diff)]),
                      lambda: session.reconfigure(**diff)):
            with pytest.raises(SessionError, match=refused) as error:
                apply()
            assert ", ".join(schema.live_fields(ClusterSpec)) in str(error.value)
        return
    session.apply_schedule([(session.now_ms + 1.0, diff)])
    if cls is HoudiniConfig:
        assert getattr(session.houdini.config, name) == value
    else:
        expected = value.to_dict() if name == "cost_model" else value
        assert SHOWN[name](session) == expected
    session.run_for(txns=10)  # and the session runs on under it
    session.close()


def test_workload_none_is_the_spec_closed_loop_on_both_paths():
    """``reconfigure(workload=None)`` resumes the spec's closed loop on an
    open-loop session, exactly as the ``{"workload": None}`` diff does."""
    open_loop = replace(BASE, workload=CHANGED["workload"])
    results = []
    for apply in ("reconfigure", "apply_schedule"):
        session = Cluster.open(open_loop, artifacts=trained("tatp", 2, 100, 0))
        session.run_for(txns=20)
        if apply == "reconfigure":
            session.reconfigure(workload=None)
        else:
            session.apply_schedule([(session.now_ms, open_loop.diff(BASE))])
        assert session.workload is None, apply
        assert session.run_for(txns=30).total_transactions == 50, apply
        results.append(json.dumps(session.close().to_dict(), sort_keys=True))
    assert results[0] == results[1]


def test_changes_apply_in_a_fixed_order_whatever_the_keyword_order(monkeypatch):
    """workload, policy, admission, generator, cost_model, houdini,
    selftune, tenancy — however the keywords are ordered."""
    order = ["workload", "policy", "admission", "generator", "cost_model", "houdini",
             "selftune", "tenancy"]
    session = Cluster.open(BASE, artifacts=trained("tatp", 2, 100, 0))
    applied = []
    for name in order:
        target = session.simulator if name == "generator" else ClusterSession
        method = "set_generator" if name == "generator" else f"_apply_{name}"
        monkeypatch.setattr(target, method, lambda *args, name=name: applied.append(name))
    # ``generator=None`` is "no change"; every live field takes ``None``.
    session.reconfigure(**{
        name: object() if name == "generator" else None for name in reversed(order)})
    assert applied == order


def test_a_houdini_diff_applies_where_the_benchmark_disables_procedures():
    """AuctionMark disables ``CheckWinningBids`` in Houdini whatever the spec
    lists, so the live config carries a procedure no spec names.  A diff's
    non-live fields are compared against the spec: the threshold changes
    and the procedure stays disabled."""
    base = ClusterSpec(benchmark="auctionmark", num_partitions=2, trace_transactions=100)
    session = Cluster.open(base, artifacts=trained("auctionmark", 2, 100, 0))
    session.run_for(txns=20)
    target = replace(base, houdini=HoudiniConfig(confidence_threshold=0.7))
    session.apply_schedule([(session.now_ms, base.diff(target))])
    assert session.houdini.config.confidence_threshold == 0.7
    assert "CheckWinningBids" in session.houdini.config.disabled_procedures
    assert session.run_for(txns=20).total_transactions == 40
    with pytest.raises(SessionError, match="'op4_floor' is not live"):
        session.reconfigure(houdini={"op4_floor": 0.5})
    session.close()
