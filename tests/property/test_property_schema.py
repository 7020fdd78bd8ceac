"""Config classes against the field table they declare (:mod:`repro.schema`).

``strategy_for(cls)`` derives a Hypothesis strategy from the ``spec(...)``
metadata on ``fields(cls)`` — integers and floats inside the declared bounds,
choices, ``None`` where optional, nested classes recursively — so every drawn
instance is valid by construction and nothing here restates a range.  (The
first piece of ROADMAP item 5's generator: a ``ClusterSpec`` with its source
tree is one draw.)  Two properties:

* **round trip** — ``cls.from_dict(obj.to_dict()) == obj`` and both dict forms
  serialize to the same JSON bytes, for every class that has a dict form;
* **boundary** — for every declared field, the values on a bound are accepted
  and the values one step outside it (and ``True`` for an integer, a string
  for a number, ``None`` where not optional, an unknown choice, an unknown
  key) raise the class's *own* error type with the field named in the message.

Both are proven by seeded mutations they must catch (``TestMutationsAreCaught``):
a derived dict that drops a key, a ``>=`` checked as ``>``, a ``from_dict``
that ignores unknown keys.  Tier-1 runs a fixed-seed slice of the default
budget; CI runs ``--hypothesis-profile=long`` (registered in
``tests/conftest.py``).
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import fields

import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from repro import schema
from repro.errors import SessionError, SimulationError, WorkloadError
from repro.experiments import ExperimentScale
from repro.houdini import HoudiniConfig
from repro.modelpart import PartitionerConfig
from repro.scheduling.admission import AdmissionLimits
from repro.selftune import SelfTuneConfig
from repro.session import ClusterSpec
from repro.sim import CostModel, SimulatorConfig
from repro.tenancy import TenancyConfig, TenantPolicy
from repro.workload import (
    ClientCohortSource,
    ClosedLoopSource,
    Cohort,
    OpenLoopSource,
    PhasedSource,
    TenantSource,
    TraceReplaySource,
    WorkloadSource,
    WorkloadTrace,
)
from repro.workload.trace import TransactionTraceRecord

#: Every schema-backed class and the error type it raises.
ERRORS = {
    ClusterSpec: SessionError, ExperimentScale: SessionError,
    HoudiniConfig: ValueError, SelfTuneConfig: ValueError,
    PartitionerConfig: ValueError,
    TenantPolicy: SimulationError, TenancyConfig: SimulationError,
    AdmissionLimits: SimulationError, CostModel: SimulationError,
    SimulatorConfig: SimulationError,
    ClosedLoopSource: WorkloadError, OpenLoopSource: WorkloadError,
    TraceReplaySource: WorkloadError, PhasedSource: WorkloadError,
    TenantSource: WorkloadError, ClientCohortSource: WorkloadError,
    Cohort: WorkloadError,
}
#: The classes with a dict form (the others are validated, never serialized).
SERIALIZED = [cls for cls in ERRORS if hasattr(cls, "from_dict")]

_NAMES = st.text("abcdefgh", min_size=1, max_size=4)
_LIMIT = 10**6


# ----------------------------------------------------------------------
# The strategy, derived from the table
# ----------------------------------------------------------------------
def _scalar(rule: dict):
    """Values inside one declared range."""
    choices = rule["choices"]() if callable(rule["choices"]) else rule["choices"]
    if choices is not None:
        return st.sampled_from(list(choices))
    if rule["nested"] is not None:
        return strategy_for(rule["nested"])
    if rule["kind"] == "bool":
        return st.booleans()
    if rule["kind"] == "str":
        return _NAMES
    low = rule["ge"] if rule["ge"] is not None else rule["gt"]
    high = rule["le"] if rule["le"] is not None else rule["lt"]
    if rule["kind"] == "int":
        return st.integers(
            (-_LIMIT if low is None else low + (rule["gt"] is not None)),
            (_LIMIT if high is None else high - (rule["lt"] is not None)),
        )
    return st.floats(
        -_LIMIT if low is None else low, _LIMIT if high is None else high,
        exclude_min=rule["gt"] is not None, exclude_max=rule["lt"] is not None,
        allow_nan=False,
    )


def _declared(rule: dict):
    values = _scalar(rule)
    if rule["each"]:
        values = st.lists(values, min_size=1, max_size=4).map(tuple)
    return st.none() | values if rule["optional"] else values


def _arrival_sources():
    """Sources a phase or a tenant may hold (no closed loop, shallow)."""
    return strategy_for(OpenLoopSource) | strategy_for(TraceReplaySource)


def _trace():
    record = st.builds(
        TransactionTraceRecord, txn_id=st.integers(0, 99), procedure=_NAMES,
        parameters=st.tuples(st.integers(0, 9)), queries=st.just(()),
        at_ms=st.none() | st.floats(0, 100),
    )
    return st.lists(record, max_size=3).map(WorkloadTrace)


def _phases():
    bounded = st.tuples(st.floats(1, 1000), _arrival_sources())
    last = st.tuples(st.none() | st.floats(1, 1000), _arrival_sources())
    return st.tuples(st.lists(bounded, max_size=2), last).map(lambda p: [*p[0], p[1]])


#: What a table cannot say — the undeclared (structural) fields, per class.
STRUCTURE = {
    (ClusterSpec, "benchmark_config"): lambda: st.none() | st.dictionaries(
        _NAMES, st.integers(0, 9), max_size=2),
    (HoudiniConfig, "disabled_procedures"): lambda: st.frozensets(_NAMES, max_size=3),
    (TenancyConfig, "tenants"): lambda: st.dictionaries(
        _NAMES, strategy_for(TenantPolicy), max_size=3),
    (TraceReplaySource, "trace"): lambda: st.none() | _trace(),
    (PhasedSource, "phases"): _phases,
    (TenantSource, "tenants"): lambda: st.dictionaries(
        _NAMES, _arrival_sources(), min_size=1, max_size=2),
    (ClientCohortSource, "cohorts"): lambda: st.lists(
        strategy_for(Cohort), min_size=1, max_size=3, unique_by=lambda c: c.name),
    (ClusterSpec, "workload"): lambda: st.none() | st.one_of(
        *(strategy_for(cls) for cls in WorkloadSource.__subclasses__())),
}


#: Fields of which exactly one must be given (hand-written in the classes).
EXACTLY_ONE = {
    TraceReplaySource: ("trace", "path"),
    Cohort: ("think_time_ms", "rate_per_user_per_sec"),
}


def _exactly_one(first: str, second: str):
    def fix(kwargs: dict) -> dict | None:
        if kwargs[first] is not None:
            kwargs[second] = None
        return kwargs if kwargs[first] is not None or kwargs[second] is not None else None
    return fix


def _selftune_needs_learning(kwargs: dict) -> dict:
    if not (kwargs["strategy"] in ("houdini", "houdini-global")
            and kwargs["model_provider"] == "global" and kwargs["learning"]):
        kwargs["selftune"] = None
    return kwargs


def _tail_bounds_min_tail(kwargs: dict) -> dict:
    kwargs["retrain_min_tail_txns"] = min(
        kwargs["retrain_min_tail_txns"], kwargs["retrain_tail_txns"])
    return kwargs


#: ... and the cross-field rules that stay hand-written in the classes.
CROSS_FIELD = {
    **{cls: _exactly_one(*pair) for cls, pair in EXACTLY_ONE.items()},
    ClusterSpec: _selftune_needs_learning,
    SelfTuneConfig: _tail_bounds_min_tail,
}


def strategy_for(cls):
    """Valid instances of a schema-backed class, read off ``fields(cls)``."""
    parts = {}
    for f in fields(cls):
        rule = schema.rule_of(cls, f.name)
        if (cls, f.name) in STRUCTURE:
            parts[f.name] = STRUCTURE[cls, f.name]()
        elif rule is not None and f.init:
            parts[f.name] = _declared(rule)
    fix = CROSS_FIELD.get(cls, lambda kwargs: kwargs)
    return (
        st.fixed_dictionaries(parts).map(fix).filter(lambda kwargs: kwargs is not None)
        .map(lambda kwargs: cls(**kwargs))
    )


# ----------------------------------------------------------------------
# Round trip
# ----------------------------------------------------------------------
def assert_round_trips(obj) -> None:
    document = obj.to_dict()
    rebuilt = type(obj).from_dict(document)
    assert rebuilt == obj, f"{type(obj).__name__} did not survive its dict form"
    assert json.dumps(rebuilt.to_dict()) == json.dumps(document)


def check_round_trip(cls, examples: int | None = None) -> None:
    """A fixed-seed slice of the profile's budget; an explicit budget stops
    at the first failure without shrinking it (the mutation checks)."""
    budget = {"max_examples": max(20, settings.default.max_examples // 5)}
    if examples is not None:
        budget = {"max_examples": examples, "database": None, "phases": (Phase.generate,)}

    @settings(deadline=None, derandomize=True,
              suppress_health_check=list(HealthCheck), **budget)
    @given(strategy_for(cls))
    def run(obj):
        if isinstance(obj, WorkloadSource):
            assert WorkloadSource.from_dict(obj.to_dict()) == obj
        assert_round_trips(obj)

    run()


@pytest.mark.parametrize("cls", SERIALIZED, ids=lambda cls: cls.__name__)
def test_every_valid_instance_round_trips(cls):
    check_round_trip(cls)


@pytest.mark.parametrize(
    "cls", [cls for cls in ERRORS if cls not in SERIALIZED], ids=lambda cls: cls.__name__
)
def test_every_drawn_instance_of_a_validated_class_is_accepted(cls):
    @settings(deadline=None, derandomize=True,
              max_examples=max(20, settings.default.max_examples // 5))
    @given(strategy_for(cls))
    def run(obj):
        schema.check(obj, ERRORS[cls])

    run()


# ----------------------------------------------------------------------
# Boundaries
# ----------------------------------------------------------------------
_OUTWARD = {"ge": -1, "gt": -1, "le": 1, "lt": 1}


def _step(rule: dict, bound, direction: int):
    if rule["kind"] == "int":
        return bound + direction
    return math.nextafter(float(bound), direction * math.inf)


def boundary_values(rule: dict) -> tuple[list, list]:
    """``(accepted, rejected)`` scalars for one declared rule."""
    accepted, rejected = [], []
    for key, outward in _OUTWARD.items():
        bound = rule[key]
        if bound is None:
            continue
        if key in ("ge", "le"):
            accepted.append(bound)
            rejected.append(_step(rule, bound, outward))
        else:
            accepted.append(_step(rule, bound, -outward))
            rejected.append(bound)
    kind = rule["kind"]
    if kind == "int":
        rejected += [True, 2.5, "7"]
    elif kind == "float":
        rejected += [True, "1.0"]
    elif kind == "bool":
        rejected += [1, "true"]
    elif kind == "str":
        rejected += ["", 5]
    if rule["choices"] is not None:
        rejected.append("no-such-choice")
    if rule["nested"] is not None:
        rejected.append(42)
    (accepted if rule["optional"] else rejected).append(None)
    return accepted, rejected


#: One fixed valid instance per class, cross-field rules slack.
_EXAMPLES = {
    SelfTuneConfig: SelfTuneConfig(retrain_min_tail_txns=1),
    OpenLoopSource: OpenLoopSource(50.0),
    TraceReplaySource: TraceReplaySource(path="trace.jsonl"),
    PhasedSource: PhasedSource([(None, OpenLoopSource(50.0))]),
    TenantSource: TenantSource({"gold": OpenLoopSource(50.0)}),
    Cohort: Cohort("casual", 10, think_time_ms=5.0),
    ClientCohortSource: ClientCohortSource([Cohort("casual", 10, think_time_ms=5.0)]),
}
for _cls in ERRORS:
    if _cls not in _EXAMPLES:
        _EXAMPLES[_cls] = _cls()  # every other class is valid at its defaults

DECLARED = [
    (cls, f.name) for cls in ERRORS for f in fields(cls)
    if f.init and schema.rule_of(cls, f.name) is not None
]


def build(cls, name: str, value):
    """The example instance with one field replaced (validated like any
    construction; ``SimulatorConfig`` is checked where the simulator does)."""
    base = _EXAMPLES[cls]
    kwargs = {f.name: getattr(base, f.name) for f in fields(cls) if f.init}
    kwargs[name] = value
    if name in EXACTLY_ONE.get(cls, ()):
        first, second = EXACTLY_ONE[cls]
        kwargs[second if name == first else first] = None
    obj = cls(**kwargs)
    if cls is SimulatorConfig:
        schema.check(obj, SimulationError)
    return obj


def check_boundaries(cls, name: str) -> None:
    rule = schema.rule_of(cls, name)
    accepted, rejected = boundary_values(rule)
    wrap = (lambda value: (value,)) if rule["each"] else (lambda value: value)
    for value in accepted:
        if value is not None or name not in EXACTLY_ONE.get(cls, ()):
            build(cls, name, wrap(value))
    for value in rejected:
        with pytest.raises(ERRORS[cls]) as caught:
            build(cls, name, wrap(value))
        message = str(caught.value)
        assert name in message or (rule["noun"] or name) in message, message


@pytest.mark.parametrize(
    "cls,name", DECLARED, ids=[f"{cls.__name__}.{name}" for cls, name in DECLARED]
)
def test_each_bound_is_accepted_and_one_step_outside_is_named(cls, name):
    check_boundaries(cls, name)


def check_unknown_key(cls) -> None:
    document = {**_EXAMPLES[cls].to_dict(), "no_such_key": 1}
    loader = WorkloadSource.from_dict if issubclass(cls, WorkloadSource) else cls.from_dict
    with pytest.raises(ERRORS[cls], match="no_such_key"):
        loader(document)


@pytest.mark.parametrize("cls", SERIALIZED, ids=lambda cls: cls.__name__)
def test_an_unknown_key_is_named_not_ignored(cls):
    check_unknown_key(cls)


def test_every_config_field_is_declared_or_structural():
    """A field added without ``spec(...)`` must be listed as structure here —
    the count of settable fields is part of the contract."""
    undeclared = {
        (cls, f.name) for cls in ERRORS for f in fields(cls)
        if f.init and schema.rule_of(cls, f.name) is None
    }
    assert undeclared == set(STRUCTURE) - {
        (TraceReplaySource, "trace"), (ClusterSpec, "workload")}
    assert {cls.__name__: len([f for f in fields(cls) if f.init]) for cls in ERRORS} == {
        "ClusterSpec": 21, "HoudiniConfig": 18, "SimulatorConfig": 8, "CostModel": 11,
        "PartitionerConfig": 11, "SelfTuneConfig": 9, "ExperimentScale": 9,
        "TenancyConfig": 6, "TenantPolicy": 4, "AdmissionLimits": 4,
        "ClosedLoopSource": 2, "OpenLoopSource": 5, "TraceReplaySource": 5,
        "PhasedSource": 1, "TenantSource": 1, "ClientCohortSource": 3, "Cohort": 6,
    }


# ----------------------------------------------------------------------
# Seeded mutations the properties must catch
# ----------------------------------------------------------------------
def _dropping_the_last_key(to_dict):
    def mutated(obj):
        document = to_dict(obj)
        document.pop(next(reversed(document)))
        return document
    return mutated


class TestMutationsAreCaught:
    def test_a_derived_dict_that_drops_a_key(self, monkeypatch):
        """Class-body ``to_dict = schema.to_dict`` and the methods built on
        ``schema.to_dict(self)`` alike: a field missing from the dict form
        comes back as its default, so the rebuilt object differs."""
        check_round_trip(HoudiniConfig, 50)
        check_round_trip(ClusterSpec, 25)
        monkeypatch.setattr(
            HoudiniConfig, "to_dict", _dropping_the_last_key(schema.to_dict))
        with pytest.raises(AssertionError, match="did not survive"):
            check_round_trip(HoudiniConfig, 200)
        monkeypatch.setattr(
            ClusterSpec, "to_dict", _dropping_the_last_key(ClusterSpec.to_dict))
        with pytest.raises(AssertionError, match="did not survive"):
            check_round_trip(ClusterSpec, 200)

    def test_a_closed_bound_checked_as_an_open_one(self, monkeypatch):
        """``ge`` compared with ``>``: the bound itself is refused."""
        check_boundaries(AdmissionLimits, "max_deferrals")
        monkeypatch.setattr(schema, "_BOUNDS", tuple(
            (key, operator.gt if key == "ge" else test, sign)
            for key, test, sign in schema._BOUNDS
        ))
        with pytest.raises(SimulationError, match="max_deferrals"):
            check_boundaries(AdmissionLimits, "max_deferrals")

    def test_an_open_bound_checked_as_a_closed_one(self, monkeypatch):
        """``lt`` compared with ``<=``: one step outside is let through."""
        check_boundaries(ClusterSpec, "warmup_fraction")
        monkeypatch.setattr(schema, "_BOUNDS", tuple(
            (key, operator.le if key == "lt" else test, sign)
            for key, test, sign in schema._BOUNDS
        ))
        with pytest.raises(pytest.fail.Exception, match="DID NOT RAISE"):
            check_boundaries(ClusterSpec, "warmup_fraction")

    def test_a_from_dict_that_ignores_unknown_keys(self, monkeypatch):
        """What every source ``from_dict`` did before the table."""
        check_unknown_key(OpenLoopSource)

        def lenient(cls, data, error_cls, label=None):
            known = {f.name for f in fields(cls) if f.init}
            return cls(**{key: value for key, value in data.items() if key in known})

        monkeypatch.setattr(schema, "from_dict", lenient)
        with pytest.raises(pytest.fail.Exception, match="DID NOT RAISE"):
            check_unknown_key(OpenLoopSource)
