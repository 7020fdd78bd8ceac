"""Drain invariants of the partition-indexed ready set, over random footprints.

The real event loop and the real schedulers run scripted transactions: each
carries the partitions it *predicts* (what the gate sees: none, one,
several, all, ids beyond the cluster) and the partitions and time it
*actually* takes (which may differ from the prediction).  Two oracles:

* after every event, every parked transaction waits on a partition that is
  still busy, a release wake-up for that partition is in the event heap at
  or before its release, and ready + parked is exactly what was submitted
  and neither dispatched nor rejected — so no wake-up is ever lost and the
  run always drains;
* the dispatch sequence (who, when) equals that of a naive reference that
  pops *everything* on every drain, re-tests each transaction against the
  partition gate and pushes the blocked ones back.

Parked waiters are grouped by predicted partition set, so one suite draws
mostly full-cluster and mixed-width sets from a small pool across two
tenants: many waiters share a set, and whole groups move between wait lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappush
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scheduling.policies import SchedulingPolicy
from repro.scheduling.scheduler import blocking_partition
from repro.session import build_benchmark
from repro.sim.events import PARTITION_RELEASE, TXN_COMPLETE
from repro.sim.simulator import ClusterSimulator, SimulatorConfig
from repro.strategies.baselines import AssumeSinglePartitionStrategy
from repro.tenancy import TenancyConfig, TenantPolicy
from repro.types import ProcedureRequest

PARTITIONS = 4
BEYOND = 9  # a partition id the cluster does not have


@dataclass(frozen=True)
class Script:
    """One scripted transaction."""

    at_ms: float
    predicted: tuple[int, ...]
    actual: tuple[int, ...]
    duration_ms: float
    #: Partitions other than the first are released half-way (early prepare).
    early_release: bool
    priority: int
    tenant: str | None


class PriorityPolicy(SchedulingPolicy):
    """Scripted priorities; predictive, so the flat scheduler is gated."""

    name = "scripted-priority"
    uses_predictions = True

    def key(self, pending):
        return (pending.request.parameters[0].priority, pending.arrival_index)


class ScriptedSimulator(ClusterSimulator):
    """The real loop and schedulers; scripted footprints instead of execution."""

    def __init__(self, instance, config):
        super().__init__(
            instance.catalog, instance.database, instance.generator,
            AssumeSinglePartitionStrategy(instance.catalog), config=config,
        )
        self.dispatch_log: list[tuple[int, float]] = []
        #: client id -> arrival index of everything submitted, not dispatched.
        self.waiting: dict[int, int] = {}
        #: Dispatches that started while an older arrival was still waiting.
        self.jumps = 0

    def _submit_pending(self, request, now, need_estimates, external=False, tenant=None):
        script = request.parameters[0]
        pending = self.scheduler.submit(request, None, tenant=tenant)
        pending.predicted_partitions = script.predicted
        pending.predicted_single_partition = len(script.predicted) <= 1
        pending.predicted_cost_ms = script.duration_ms
        pending.submit_time_ms = now
        pending.external = external
        self.waiting[request.client_id] = pending.arrival_index
        return pending

    def _scripted_execute(self, request):
        self.dispatch_log.append((request.client_id, self._txn_clock))
        arrival = self.waiting.pop(request.client_id)
        self.jumps += any(other < arrival for other in self.waiting.values())
        return SimpleNamespace(committed=True, restarts=0, script=request.parameters[0])

    def begin(self):
        super().begin()
        self._execute = self._scripted_execute

    def _replay_timing(self, record, submit_time, partition_free, breakdown_acc):
        script = record.script
        start = submit_time
        for partition_id in script.actual:
            start = max(start, partition_free[partition_id])
        end = start + script.duration_ms
        for index, partition_id in enumerate(script.actual):
            early = script.early_release and index > 0
            partition_free[partition_id] = start + script.duration_ms * (0.5 if early else 1.0)
        return end

    @staticmethod
    def _account_record(record, counters):
        counters["committed"] += 1
        return True


class NaiveSimulator(ScriptedSimulator):
    """Reference: every drain pops everything, in order, and pushes the
    partition-blocked back."""

    def begin(self):
        super().begin()
        # Nothing is ever parked here; claim partition 0 (the tiebreak of the
        # wake-ups below) has waiters so the loop drains on every wake-up.
        self.scheduler.parked_partitions = lambda: (0,)

    def _drain(self, now, gate_on_partitions):
        scheduler = self.scheduler
        partition_free = self._partition_free
        blocked = []
        wake_at = None
        while scheduler.has_ready:
            pending = scheduler.pop()
            wait_on = -1
            if gate_on_partitions:
                wait_on = blocking_partition(pending.predicted_partitions, partition_free, now)
            if wait_on >= 0:
                blocked.append(pending)
                free_at = partition_free[wait_on]
                wake_at = free_at if wake_at is None else min(wake_at, free_at)
                continue
            scheduler.note_dispatched(pending)
            self._txn_clock = now
            record = self._execute(pending.request)
            end = self._replay_timing(record, now, partition_free, None)
            self._complete_seq += 1
            self._general_events += 1
            heappush(self._events, (
                end, TXN_COMPLETE, self._complete_seq,
                (pending.request.client_id, True, pending, record),
            ))
        for pending in blocked:
            scheduler.requeue(pending)
        if wake_at is not None:
            self._general_events += 1
            heappush(self._events, (wake_at, PARTITION_RELEASE, 0, None))


@pytest.fixture(scope="module")
def instance():
    return build_benchmark("tatp", PARTITIONS)


#: The wide suite's predicted sets: mostly the whole cluster, some mixed
#: widths, few singles — drawn from a pool so that sets repeat.
WIDE_SETS = (tuple(range(PARTITIONS)),) * 4 + ((0, 1), (1, 2, 3), (0, 2), (2, 3), (3,))


def _footprints(wide: bool):
    in_range = st.integers(min_value=0, max_value=PARTITIONS - 1)
    several = st.lists(in_range, min_size=2, max_size=3, unique=True).map(tuple)
    if wide:
        predicted = st.sampled_from(WIDE_SETS)
    else:
        predicted = st.one_of(
            st.just(()),                               # estimate-free: ungated
            in_range.map(lambda p: (p,)),              # single
            several,                                   # multi
            st.just(tuple(range(PARTITIONS))),         # broadcast
            st.just((BEYOND,)),                        # only out of range: ungated
            in_range.map(lambda p: (BEYOND, p)),       # out-of-range id mixed in
        )
    actual = st.one_of(in_range.map(lambda p: (p,)), several,
                       st.just(tuple(range(PARTITIONS))))
    return predicted, actual


@st.composite
def scripts(draw, wide=False):
    predicted_choices, actual_choices = _footprints(wide)
    tenants = ("a", "b") if wide else (None, "a", "b")
    count = draw(st.integers(min_value=1, max_value=40))
    out = []
    for _ in range(count):
        predicted = draw(predicted_choices)
        in_range = tuple(p for p in predicted if p < PARTITIONS)
        # Mostly as predicted; sometimes the transaction goes elsewhere.
        mispredicts = draw(st.integers(min_value=0, max_value=3)) == 0
        actual = draw(actual_choices) if mispredicts or not in_range else in_range
        out.append(Script(
            # A coarse grid, so arrivals, completions and releases collide.
            at_ms=0.5 * draw(st.integers(min_value=0, max_value=12)),
            predicted=predicted,
            actual=actual,
            duration_ms=0.5 * draw(st.integers(min_value=1, max_value=6)),
            early_release=draw(st.booleans()),
            priority=draw(st.integers(min_value=0, max_value=2)),
            tenant=draw(st.sampled_from(tenants)),
        ))
    return out


def _config(mode: str) -> SimulatorConfig:
    if mode == "policy":
        return SimulatorConfig(open_loop=True, policy=PriorityPolicy())
    tenancy = TenancyConfig(tenants={"a": TenantPolicy(weight=3.0)})
    policy = PriorityPolicy() if mode == "tenancy+policy" else None
    return SimulatorConfig(open_loop=True, tenancy=tenancy, policy=policy)


def _load(simulator, batch):
    for index, script in enumerate(batch):
        request = ProcedureRequest("scripted", (script,), client_id=index)
        simulator.submit_request(request, at_ms=script.at_ms, tenant=script.tenant)


def _check_invariants(simulator):
    scheduler = simulator.scheduler
    now = simulator.now_ms
    partition_free = simulator._partition_free
    releases = {}
    for when, kind, partition_id, _ in simulator._events:
        if kind == PARTITION_RELEASE:
            releases[partition_id] = min(when, releases.get(partition_id, when))
    for partition_id in scheduler.parked_partitions():
        assert partition_free[partition_id] > now, "parked on a free partition"
        assert partition_id in releases, "no wake-up for a partition with waiters"
        assert releases[partition_id] <= partition_free[partition_id]
        for groups in scheduler._wait_lists[partition_id].values():
            for predicted, heap in groups.items():
                assert heap, "an empty group was left behind"
                for _key, _seq, pending in heap:
                    assert pending.parked_on == partition_id
                    assert pending.predicted_partitions == predicted
    queued = scheduler.pending_transactions()
    stats = scheduler.stats
    assert len(queued) == len(scheduler) == stats.pending
    assert {p.request.client_id for p in queued} == set(simulator.waiting)


def _check_against_naive(instance, batch, mode):
    real = ScriptedSimulator(instance, _config(mode))
    _load(real, batch)
    steps = 0
    while real.step():
        steps += 1
        assert steps <= 60 * len(batch) + 60, "the run does not drain"
        _check_invariants(real)
    assert len(real.scheduler) == 0 and not real.scheduler.parked_partitions()
    assert sorted(txn for txn, _ in real.dispatch_log) == list(range(len(batch)))

    naive = NaiveSimulator(instance, _config(mode))
    _load(naive, batch)
    naive.run_until()
    assert real.dispatch_log == naive.dispatch_log
    assert real._partition_free == naive._partition_free
    assert real.scheduler.stats.requeued <= naive.scheduler.stats.requeued
    if mode != "tenancy":  # FCFS within a tenant: jumps are not tracked
        assert real.scheduler.stats.reordered == real.jumps


@settings(max_examples=120, deadline=None)
@given(batch=scripts(), mode=st.sampled_from(("policy", "tenancy", "tenancy+policy")))
def test_drain_invariants_and_naive_equivalence(instance, batch, mode):
    _check_against_naive(instance, batch, mode)


@settings(max_examples=50, deadline=None)
@given(batch=scripts(wide=True), mode=st.sampled_from(("tenancy", "tenancy+policy")))
def test_wide_sets_across_two_tenants_match_naive(instance, batch, mode):
    _check_against_naive(instance, batch, mode)
