"""A spec diff changes a running session the same way through either door.

Draw a base spec and a target that differs from it in one to three live
fields (values from ``strategy_for``'s field table).  Both share drawn
non-live fields too: ``learning`` and every ``houdini`` field not marked
live (``estimate_cache_max_entries`` down to 1, the maintenance
thresholds, ...), and maintenance checks every 10 attempts, so live changes
meet plan-memo sweeps after recomputes under LRU pressure.  One session
applies
``base.diff(target)`` through ``apply_schedule``, its twin through
``reconfigure(**diff)``, at the same simulated time; then both apply the
way back, ``target.diff(base)``.  After each step every ``SHOWN`` accessor
of both sessions reads the spec's value, and a further run gives equal
result bytes.  The way back is what shows a change compared against the
spec the session was opened from instead of the live configuration.

Seeded mutations the property must catch (``TestMutationsAreCaught``):
only the first key of a multi-key diff is applied; the ``houdini`` applier
compares against the spec instead of the live config.  Tier-1 runs a
fixed-seed slice of the default budget; CI runs ``--hypothesis-profile=long``.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, Phase, assume, given, settings
from hypothesis import strategies as st

from repro import schema
from repro.houdini import HoudiniConfig
from repro.session import Cluster, ClusterSession, ClusterSpec
from repro.sim import CostModel
from repro.workload import ClosedLoopSource, OpenLoopSource
from repro.workload.sources import ARRIVAL_PROCESSES
from tests.conftest import trained
from tests.property.test_property_schema import _declared, strategy_for
from tests.session.test_live_fields import BASE, SHOWN

LIVE = schema.live_fields(ClusterSpec)
LIVE_HOUDINI = schema.live_fields(HoudiniConfig)

#: ``houdini``'s fields not marked live, drawn once per example (a diff may
#: not change them); ``None`` keeps their defaults and lets ``houdini`` be
#: ``None`` too.  Maintenance judges a vertex after at most 40 observations
#: (the declared range reaches 10**6) against an accuracy threshold of at
#: least the paper's 75%, so short runs do recompute.
FIXED_HOUDINI = st.none() | st.builds(
    lambda drawn, observations, threshold: {
        **{name: value for name, value in drawn.to_dict().items() if name not in LIVE_HOUDINI},
        "maintenance_min_observations": observations,
        "maintenance_accuracy_threshold": threshold,
    },
    strategy_for(HoudiniConfig), st.integers(0, 40), st.sampled_from([0.75, 0.95, 1.0]),
)


def live_values(fixed: dict | None):
    """Every live field drawn from its declared range, ``houdini``'s live
    fields over the ``fixed`` rest; every other field is ``BASE``'s.  The
    workload is narrowed to what a short run can serve: the open-time client
    population, and open-loop rates that keep arrivals inside a few simulated
    seconds.  The cost model is never ``None``, which a running session
    cannot go back to."""
    houdini = strategy_for(HoudiniConfig).map(lambda drawn: HoudiniConfig.from_dict({
        **(fixed or {}), **{name: getattr(drawn, name) for name in LIVE_HOUDINI}}))
    return st.fixed_dictionaries({
        **{name: _declared(schema.rule_of(ClusterSpec, name))
           for name in LIVE if name not in ("houdini", "workload", "cost_model")},
        "houdini": houdini if fixed is not None else st.none() | houdini,
        "workload": st.none()
        | strategy_for(ClosedLoopSource).map(
            lambda source: replace(source, clients_per_partition=BASE.clients_per_partition))
        | st.builds(OpenLoopSource, st.floats(50.0, 5000.0), st.sampled_from(ARRIVAL_PROCESSES),
                    seed=st.integers(0, 9), burst_size=st.integers(1, 64)),
        "cost_model": strategy_for(CostModel),
    })


@st.composite
def base_and_target(draw):
    """``(base, target)``: the target changes one to three live fields."""
    learning = draw(st.booleans())
    values = live_values(draw(FIXED_HOUDINI))
    if not learning:  # self-tuning consumes what learning observes
        values = values.map(lambda drawn: {**drawn, "selftune": None})
    base = replace(BASE, learning=learning, **draw(values))
    drawn = draw(values)
    changed = draw(st.sets(st.sampled_from(LIVE), min_size=1, max_size=3))
    target = replace(base, **{name: drawn[name] for name in changed})
    assume(base.diff(target))
    return base, target


def _plain(value):
    return value.to_dict() if hasattr(value, "to_dict") else value


def assert_shows(session: ClusterSession, spec: ClusterSpec) -> None:
    for name in LIVE:
        expected = getattr(spec, name)
        if name == "houdini":
            expected = expected or HoudiniConfig()
        assert _plain(SHOWN[name](session)) == _plain(expected), name


def check_both_doors(base: ClusterSpec, target: ClusterSpec) -> None:
    scheduled, twin = (
        Cluster.open(base, artifacts=trained("tatp", 2, 100, 0)) for _ in range(2)
    )
    for session in (scheduled, twin):
        # Maintenance checks every 10 learning attempts instead of 200, so
        # the short runs below recompute and sweep the plan memo.
        session.houdini._maintenance_interval = 10
        session.run_for(txns=20)
    for diff, spec in ((base.diff(target), target), (target.diff(base), base)):
        assert scheduled.now_ms == twin.now_ms
        scheduled.apply_schedule([(scheduled.now_ms, diff)])
        twin.reconfigure(**diff)
        results = []
        for session in (scheduled, twin):
            assert_shows(session, spec)
            results.append(json.dumps(session.run_for(txns=20).to_dict(), sort_keys=True))
        assert results[0] == results[1]
    for session in (scheduled, twin):
        session.close()


def check_live_diffs(examples: int | None = None) -> None:
    """A fixed-seed slice of the profile's budget; an explicit budget stops
    at the first failure without shrinking it (the mutation checks)."""
    budget = {"max_examples": max(20, settings.default.max_examples // 5)}
    if examples is not None:
        budget = {"max_examples": examples, "database": None, "phases": (Phase.generate,)}

    @settings(deadline=None, derandomize=True,
              suppress_health_check=list(HealthCheck), **budget)
    @given(base_and_target())
    def run(pair):
        check_both_doors(*pair)

    run()


def test_a_diff_applies_alike_through_apply_schedule_and_reconfigure():
    check_live_diffs()


class TestMutationsAreCaught:
    def test_only_the_first_key_of_a_diff_applied(self, monkeypatch):
        check_live_diffs(20)
        reconfigure = ClusterSession.reconfigure

        def first_key_only(self, **changes):
            return reconfigure(self, **dict(list(changes.items())[:1]))

        monkeypatch.setattr(ClusterSession, "reconfigure", first_key_only)
        with pytest.raises(AssertionError):
            check_live_diffs(20)

    def test_the_houdini_applier_compares_against_the_spec(self, monkeypatch):
        check_live_diffs(20)

        def against_the_spec(self, value):
            opened = (self.spec.houdini or HoudiniConfig()).to_dict()
            self.houdini.reconfigure(**{
                name: new for name, new in (value or HoudiniConfig().to_dict()).items()
                if opened[name] != new and name in schema.live_fields(HoudiniConfig)
            })

        monkeypatch.setattr(ClusterSession, "_apply_houdini", against_the_spec)
        with pytest.raises(AssertionError):
            check_live_diffs(20)
