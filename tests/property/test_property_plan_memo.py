"""Property: the plan memo never changes what Houdini decides (cached ≡ fresh).

Random interleavings of everything that can touch a memoized walk — planning
a request, completing attempts (which, with learning on, count transitions
and now and then discover a new state), transitions learned at an arbitrary
state of the model (on a memoized path or off it, with or without a
recompute behind the memo's back), a maintenance pass, a hot model swap, a
live ``confidence_threshold`` change — are fed in lockstep to a memo-on and
a memo-off ``Houdini`` over identical, separately owned models of TATP,
SmallBank **and TPC-C**.  At every planning step the two must agree on the
decision, the charged estimation cost, the plan and the estimate; a memo-on
hit on a memoized decision must serve the entry's one plan, equal to a plan
freshly built from that decision and the entry's eligibility.  Then both
plans' run-time monitors see the same queries — the estimated path for ``k``
queries, then, drawn, nothing more, a query off the path, or one on a
partition the monitor already released — and after every query they must
agree on what OP3 and OP4 did (when undo logging went off, which partitions
were released and in what order), on whether the attempt left the estimate
and on whether the query was refused as an OP4 misprediction.  An ``attempt``
completes its monitors, so a non-learning memo-on monitor records the
entry's OP3/OP4 schedule and later ones replay it.

The memo's validity rule is *what the walk read is still in place*
(``repro.houdini.cache``), so the sharpest case is an entry served under a
moved model version: whenever that happens, a fresh walk of the same request
on the *same* model is taken on the spot and must equal what was served —
and each workload's run must contain both outcomes (an entry that survived a
version change, and one evicted by it), or it proves nothing.

The property is proven by seeded mutations of the memo it must catch (the
``TestMutationsAreCaught`` cases below: re-stamp without checking, at a
lookup or at a maintenance sweep; skip the view check; skip the table check;
memoize a support-limited decision while learning; keep a schedule recorded
by an attempt that left the estimate; replay a schedule past a deviation; let
learning monitors record and replay; keep the plan of the call that derived
the decision as the hit plan).

Tier-1 runs a fixed-seed quarter of the default budget (every example
copies the models twice; seconds, not tens of seconds); CI's
``planning-smoke`` job runs ``--hypothesis-profile=long`` (registered in
``tests/conftest.py``).
"""

from __future__ import annotations

import functools
import pickle
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.engine import AttemptOutcome, AttemptResult
from repro.errors import MispredictionAbort
from repro.houdini import EstimateCache, GlobalModelProvider, Houdini, HoudiniConfig
from repro.houdini.runtime import HoudiniRuntime
from repro.markov import MarkovModel
from repro.markov.vertex import ABORT_KEY, COMMIT_KEY, VertexKey
from repro.session import ClusterSpec, train
from repro.types import PartitionSet, QueryInvocation

BENCHMARKS = ("tatp", "smallbank", "tpcc")
PARTITIONS = 4
POOL = 12


@functools.cache
def world(benchmark: str):
    """Trained artifacts, a request pool and the pickled pristine models."""
    artifacts = train(ClusterSpec(
        benchmark=benchmark, num_partitions=PARTITIONS, trace_transactions=300, seed=11
    ))
    requests = artifacts.benchmark.generator.generate(POOL)
    return artifacts, requests, pickle.dumps(artifacts.models)


def make_pair(benchmark: str, learning: bool) -> list[Houdini]:
    """A memo-on and a memo-off Houdini over separate copies of the models."""
    artifacts, _, pristine = world(benchmark)
    pair = []
    for caching in (True, False):
        houdini = Houdini(
            artifacts.benchmark.catalog,
            GlobalModelProvider(pickle.loads(pristine)),
            artifacts.mappings,
            HoudiniConfig(enable_estimate_caching=caching),
            learning=learning,
        )
        houdini._maintenance_interval = 25  # the in-band invalidation path
        pair.append(houdini)
    return pair


def walked(decision, estimate) -> tuple:
    """Every field of a decision and of the estimate it was derived from."""
    return (
        decision.base_partition, decision.locked_partitions,
        decision.predicted_single_partition, decision.disable_undo,
        sorted(decision.finish_after_query.items()), decision.abort_probability,
        decision.confidence, decision.op1_selected, decision.op2_selected,
        decision.support_limited,
        tuple(estimate.vertices), tuple(estimate.edge_probabilities),
        estimate.work_units, estimate.abort_probability, estimate.predicted_abort,
        estimate.degenerate,
        sorted(
            (p.partition_id, p.access_confidence, p.last_access_index, p.written,
             p.access_count)
            for p in estimate.partitions.values()
        ),
    )


def observable(houdini_plan) -> tuple:
    """Everything a plan hands the rest of the system, minus ``source``
    (which says who served it) and wall-clock time."""
    plan = houdini_plan.plan
    return walked(houdini_plan.decision, houdini_plan.estimate) + (
        plan.estimation_ms, plan.base_partition, plan.locked_partitions,
        plan.undo_logging, sorted(plan.finish_after_query.items()),
        plan.predicted_single_partition, plan.predicted_abort_probability,
    )


def memo_entry(houdini, request):
    """The memo entry a request's key names (without counting a lookup)."""
    _, signature = houdini.estimator.footprint_and_signature(request)
    key = houdini._memo_key(request, houdini.provider.model_for(request), signature)
    return None if key is None else houdini.estimate_cache._entries.get(key)


def check_hit_plan(houdini, request, decided, houdini_plan) -> None:
    """A hit on an entry whose decision was memoized before the call
    (``decided``) serves the entry's plan: built from that decision and
    ``eligible``.  Any other call builds a ``houdini`` plan."""
    entry = memo_entry(houdini, request)
    plan = houdini_plan.plan
    if decided is None or entry is not decided:
        assert plan.source == "houdini", f"a derived plan of {request.procedure} says {plan.source}"
        return
    fresh = entry.decision.as_plan(
        houdini._charged_ms(entry.estimate, entry.eligible),
        source="houdini:cached" if entry.eligible else "houdini",
    )
    assert plan == fresh, f"the hit plan of {request.procedure} is not the entry's"


class Context:
    """What a run-time monitor reads from and does to its attempt."""

    def __init__(self, plan) -> None:
        self.base_partition = plan.base_partition
        self.locked_partitions = plan.locked_partitions
        self.actions: list = []

    def disable_undo_logging(self) -> None:
        self.actions.append("undo off")

    def mark_partition_finished(self, partition_id) -> None:
        self.actions.append(partition_id)


def monitored(runtime, context, raised) -> tuple:
    stats = runtime.stats
    return (
        stats.undo_disabled_at_query, sorted(stats.finished_partitions),
        tuple(context.actions), stats.deviated_from_estimate, raised,
    )


def drive(plans, request, follow, tail) -> bool:
    """Feed both monitors the estimated path's first ``follow`` queries, then
    ``tail``: ``None`` (nothing more), ``"deviate"`` (a state the model has
    never seen, on partition ``follow % PARTITIONS``), ``"leave"`` (that,
    when the path is longer than ``follow``) or ``"retouch"`` (a query on a
    partition the memo-off monitor has released, when it has).  Compare
    after every query; return whether a query was refused."""
    runtimes = [houdini_plan.runtime for houdini_plan in plans]
    contexts = [Context(houdini_plan.plan) for houdini_plan in plans]
    path = plans[1].estimate.query_vertices
    if tail == "leave":
        tail = "deviate" if follow < len(path) else None

    def feed(invocation) -> bool:
        seen = []
        for runtime, context in zip(runtimes, contexts):
            try:
                runtime(context, invocation)
                refused = False
            except MispredictionAbort:
                refused = True
            seen.append(monitored(runtime, context, refused))
        assert seen[0] == seen[1], (
            f"memo-on and memo-off monitors disagree on {request.procedure}"
            f"{request.parameters} at query {runtimes[1].stats.queries_observed}: {seen}"
        )
        return seen[1][-1]

    for key in path[:follow]:
        if feed(QueryInvocation(key.name, (), key.partitions, key.counter)):
            return True
    if tail is None or not path:
        return False
    partition = follow % PARTITIONS
    released = runtimes[1].stats.finished_partitions
    if tail == "retouch" and released:
        partition = min(released)
    return feed(QueryInvocation(path[0].name, (), PartitionSet.of([partition]), 7))


def plan_both(pair, request, tally, follow=None, tail=None, draws=None):
    """Plan ``request`` on both, compare, and drive both monitors: ``follow``
    queries and ``tail`` (see :func:`drive`), drawn from ``draws`` when given,
    else the whole estimated path unless told otherwise."""
    memo_on = pair[0]
    stats = memo_on.estimate_cache.stats
    revalidated, evicted = stats.revalidated, stats.invalidations
    decided = memo_entry(memo_on, request)
    if decided is not None and decided.decision is None:
        decided = None
    plans = [houdini.plan(request) for houdini in pair]
    assert observable(plans[0]) == observable(plans[1]), (
        f"memo-on and memo-off disagree on {request.procedure}{request.parameters}"
    )
    check_hit_plan(memo_on, request, decided, plans[0])
    if plans[0].runtime._schedule is not None:
        tally["replayed"] += 1
    length = len(plans[1].estimate.query_vertices)
    if draws is not None:
        follow = draws.randint(0, length)
        tail = draws.choice([None, "deviate", "retouch"])
    refused = drive(plans, request, length if follow is None else follow, tail)
    tally["evicted"] += stats.invalidations - evicted
    if stats.revalidated > revalidated:
        # Served under a moved version: walk the same model afresh, now.
        tally["revalidated"] += 1
        model = memo_on.provider.model_for(request)
        fresh = memo_on.estimator.estimate(request, model)
        served = plans[0]
        assert walked(served.decision, served.estimate) == walked(
            memo_on.selector.decide(request, fresh, model), fresh
        ), f"a revalidated entry differs from a fresh walk of {request.procedure}"
    return plans, refused


def complete(houdini, request, houdini_plan, committed) -> None:
    """Finish an attempt whose monitor :func:`drive` fed."""
    base = houdini_plan.decision.base_partition
    houdini.after_attempt(request, houdini_plan, AttemptResult(
        outcome=AttemptOutcome.COMMITTED if committed else AttemptOutcome.USER_ABORT,
        procedure=request.procedure,
        parameters=request.parameters,
        base_partition=base,
        touched_partitions=PartitionSet.of([base]),
    ))


def learn(houdini, request, choice, discover, times, recompute) -> None:
    """Record a transition out of an arbitrary query state of the request's
    model — on a memoized path or off it — straight into the model, as a
    concurrent learner would: to a state nobody has seen (``discover``) or to
    ``abort``.  ``recompute`` then re-derives probabilities and tables
    without telling the memo, which must notice by itself."""
    model = houdini.provider.model_for(request)
    states = [vertex.key for vertex in model.vertices() if vertex.key.is_query]
    if not states:
        return
    source = states[choice % len(states)]
    target = ABORT_KEY
    if discover:
        target = VertexKey.query(
            source.name, 9, PartitionSet.of([choice % PARTITIONS]),
            source.accessed_partitions(),
        )
    model.log_transitions([(source, target)] * times)
    if recompute:
        houdini.maintenance.for_model(model).recompute()


def maintain(houdini) -> None:
    """The maintenance pass of ``Houdini.after_attempt``: drift checks, then
    the memo sweep of what the recomputes replaced."""
    recomputed = houdini.maintenance.check_all()
    if recomputed and houdini.estimate_cache is not None:
        houdini.estimate_cache.evict_replaced(recomputed)


def check(benchmark: str, learning: bool, script, tally=None, warm=False, drawn=False) -> None:
    _, requests, pristine = world(benchmark)
    pair = make_pair(benchmark, learning)
    tally = Counter() if tally is None else tally
    # How far a planned (not completed) attempt's monitors follow the
    # estimate, and what they see next: drawn per step, seeded by the script
    # (hand-written scripts follow the whole path).
    draws = random.Random(repr((benchmark, learning, script))) if drawn else None
    if warm:  # every request memoized before the script starts writing
        for request in requests:
            plan_both(pair, request, tally)
    # Completed attempts and maintenance passes evict only by the sweep.
    stats = pair[0].estimate_cache.stats
    for operation, argument in script:
        if operation == "plan":
            plan_both(pair, requests[argument], tally, draws=draws)
        elif operation == "attempt":
            # Follows the estimate for ``cut`` queries and, when the path is
            # longer, then leaves it for a state the model has never seen.
            index, cut, committed, repeat = argument
            for _ in range(repeat):
                plans, refused = plan_both(pair, requests[index], tally, cut, "leave")
                swept = stats.invalidations
                for houdini, houdini_plan in zip(pair, plans):
                    complete(houdini, requests[index], houdini_plan, committed and not refused)
                tally["swept"] += stats.invalidations - swept
        elif operation == "learn":
            index, *how = argument
            for houdini in pair:
                learn(houdini, requests[index], *how)
        elif operation == "maintenance":
            swept = stats.invalidations
            for houdini in pair:
                maintain(houdini)
            tally["swept"] += stats.invalidations - swept
        elif operation == "swap":
            procedure = requests[argument].procedure
            for houdini in pair:
                houdini.swap_model(procedure, pickle.loads(pristine)[procedure])
        elif operation == "threshold":
            for houdini in pair:
                houdini.reconfigure(confidence_threshold=argument)
    for request in requests:
        plan_both(pair, request, tally)


indexes = st.integers(min_value=0, max_value=POOL - 1)
operations = st.one_of(
    st.tuples(st.just("plan"), indexes),
    st.tuples(st.just("attempt"), st.tuples(
        indexes,
        st.integers(min_value=0, max_value=40),  # queries followed before leaving
        st.booleans(),  # committed?
        st.sampled_from([1, 1, 1, 3, 12, 120]),  # enough to outgrow thin support
    )),
    st.tuples(st.just("learn"), st.tuples(
        indexes,
        st.integers(min_value=-4, max_value=40),  # which state (negative: newest)
        st.booleans(),  # discover a new state, or drift towards abort?
        st.sampled_from([1, 1, 50, 5000]),
        st.booleans(),  # recompute behind the memo's back?
    )),
    st.tuples(st.just("maintenance"), st.none()),
    st.tuples(st.just("swap"), indexes),
    st.tuples(st.just("threshold"), st.sampled_from([0.0, 0.3, 0.5, 0.9, 1.0])),
)


@pytest.mark.parametrize("workload", BENCHMARKS)
def test_memo_on_equals_memo_off_at_every_step(workload):
    tally = Counter()

    @given(learning=st.booleans(), warm=st.booleans(),
           script=st.lists(operations, min_size=1, max_size=12))
    @settings(deadline=None, derandomize=True,
              max_examples=max(25, settings.default.max_examples // 4))
    def run(learning, warm, script):
        check(workload, learning, script, tally, warm, drawn=True)

    run()
    # Not vacuous: entries did survive a version change (each checked against
    # a fresh walk on the spot), entries were evicted by one at a lookup and
    # by a maintenance sweep, and monitors replayed a recorded schedule.
    assert all(
        tally[count] > 0 for count in ("revalidated", "evicted", "swept", "replayed")
    ), tally


# ----------------------------------------------------------------------
# The property must catch a broken memo.
# ----------------------------------------------------------------------
def _lookup_restamping_without_a_check(self, key, model):
    entry = self._entries.get(key)
    if entry is not None:
        entry.version = model.version
    return _real_lookup(self, key, model)


_real_lookup = EstimateCache.lookup
_real_still_publishes = MarkovModel.still_publishes


def _sweep_restamping_without_a_check(self, recomputed):
    for entry in self._entries.values():
        if entry.model in recomputed:
            entry.version = entry.model.version
    return 0


def _still_publishes_ignoring_views(self, keys, views, tables):
    return _real_still_publishes(self, keys, (), tables)


def _still_publishes_ignoring_tables(self, keys, views, tables):
    return _real_still_publishes(self, keys, views, ())


def _decide_and_always_memoize(self, request, estimate, model, footprint, entry):
    decision = self.selector.decide(request, estimate, model)
    if entry is not None:
        entry.decision = decision
        entry.eligible = self.estimate_cache.eligible(estimate, decision, footprint)
    return decision


_real_finish = HoudiniRuntime.finish
_real_issue_updates = HoudiniRuntime._issue_updates
_real_init = HoudiniRuntime.__init__
_real_plan = Houdini.plan


def _finish_recording_any_commit(self, committed):
    """Keeps the schedule of a committed attempt as long as the path, even
    one that left the estimate."""
    recording = self._recording
    if (
        recording is not None and committed
        and len(recording) + 2 == len(self._expected) and self._expected[-1] == COMMIT_KEY
    ):
        self._entry.schedule = tuple(recording)
    self._recording = None
    _real_finish(self, committed)


def _issue_updates_from_the_schedule(self, context, observed, vertex):
    """Off the path, keeps applying the recorded step of the same index."""
    schedule = self._schedule
    if schedule is not None and observed < len(schedule):
        if schedule[observed] is not None:
            self._replay(context, observed, schedule[observed])
        return
    _real_issue_updates(self, context, observed, vertex)


def _init_with_an_entry_while_learning(self, *args, learn=True, **kwargs):
    """Hands a learning monitor its entry's schedule as if it were not."""
    _real_init(self, *args, learn=False, **kwargs)
    self.learn = learn


def _plan_keeping_the_deriving_plan(self, request):
    """Keeps the plan of the call that derived the decision as the hit plan."""
    if self.estimate_cache is None:
        return _real_plan(self, request)
    entry = memo_entry(self, request)
    derives = entry is None or entry.decision is None
    houdini_plan = _real_plan(self, request)
    entry = memo_entry(self, request)
    if derives and entry is not None and entry.decision is houdini_plan.decision:
        entry.plan = houdini_plan.plan
    return houdini_plan


def _support_limited_index(benchmark: str) -> int:
    """A pool request whose decision is support-limited on the pristine models."""
    _, requests, _ = world(benchmark)
    houdini = make_pair(benchmark, learning=True)[1]
    for index, request in enumerate(requests):
        if houdini.plan(request).decision.support_limited:
            return index
    pytest.fail("no support-limited decision in the pool")


class TestMutationsAreCaught:
    def test_restamping_without_checking(self, monkeypatch):
        """A walk memoized before the model learned a new state (and was
        recomputed) must not be served afterwards."""
        script = [("plan", 0), ("attempt", (0, 0, True, 12)), ("maintenance", None)]
        check("tpcc", True, script)
        monkeypatch.setattr(EstimateCache, "lookup", _lookup_restamping_without_a_check)
        with pytest.raises(AssertionError, match="disagree"):
            check("tpcc", True, script)

    def test_a_sweep_restamping_without_checking(self, monkeypatch):
        """After an attempt starts maintenance on the model, its first
        query state drifts towards abort; the maintenance pass recomputes,
        and its sweep stamps the entry current instead of judging it: the
        next plan is served the walk that predicted no abort."""
        script = [
            ("attempt", (0, 40, True, 1)),
            ("learn", (0, 0, False, 5000, False)),
            ("maintenance", None),
        ]
        tally = Counter()
        check("tpcc", True, script, tally)
        assert tally["swept"] > 0
        monkeypatch.setattr(EstimateCache, "evict_replaced", _sweep_restamping_without_a_check)
        with pytest.raises(AssertionError, match="disagree"):
            check("tpcc", True, script)

    def test_skipping_the_view_check(self, monkeypatch):
        """A state discovered *on* a memoized path adds an edge at a visited
        vertex: no table has moved yet, but a fresh walk already weighs one
        more candidate there (``work_units``, hence the charged cost)."""
        script = [("plan", 0), ("attempt", (0, 1, True, 1)), ("plan", 0)]
        tally = Counter()
        check("tpcc", True, script, tally)
        assert tally["evicted"] > 0
        monkeypatch.setattr(MarkovModel, "still_publishes", _still_publishes_ignoring_views)
        with pytest.raises(AssertionError, match="disagree|differs from a fresh walk"):
            check("tpcc", True, script)

    def test_skipping_the_table_check(self, monkeypatch):
        """Counts drift at a state *below* a memoized path and a recompute
        follows: every view the walk read is still in place (no visited
        vertex was dirtied), but its ancestors' tables — the walk's abort
        probability — were replaced."""
        script = [
            ("attempt", (0, 1, True, 1)),  # discovers a state below the path...
            ("learn", (0, -1, False, 50, True)),  # ...that mostly aborts
            ("plan", 0),
            ("learn", (0, -1, False, 5000, True)),  # counts only, then recompute
            ("plan", 0),
        ]
        tally = Counter()
        check("tpcc", True, script, tally)
        assert tally["evicted"] > 0
        monkeypatch.setattr(MarkovModel, "still_publishes", _still_publishes_ignoring_tables)
        with pytest.raises(AssertionError, match="disagree|differs from a fresh walk"):
            check("tpcc", True, script)

    def test_memoizing_a_support_limited_decision_while_learning(self, monkeypatch):
        """Observation counts grow without the version moving; a decision
        withheld only for thin support flips once they are large enough."""
        index = _support_limited_index("tatp")
        script = [("attempt", (index, 40, True, 120))]
        check("tatp", True, script)
        monkeypatch.setattr(Houdini, "_decide", _decide_and_always_memoize)
        with pytest.raises(AssertionError, match="disagree"):
            check("tatp", True, script)

    def test_keeping_a_schedule_recorded_by_an_attempt_that_left_the_estimate(
        self, monkeypatch
    ):
        """TATP ``UpdateLocation`` releases three partitions at its second
        (last) query.  An attempt that leaves the estimate there has as many
        queries as the path; had it recorded, the next one to follow the
        path would replay a schedule that releases nothing."""
        script = [("attempt", (1, 1, True, 1)), ("attempt", (1, 40, True, 1))]
        check("tatp", False, script)
        monkeypatch.setattr(HoudiniRuntime, "finish", _finish_recording_any_commit)
        with pytest.raises(AssertionError, match="monitors disagree"):
            check("tatp", False, script)

    def test_replaying_past_a_deviation(self, monkeypatch):
        """After the path is recorded, an attempt leaves it at the query
        where the schedule releases partitions: the state it reached is
        unknown, so the rules release nothing there."""
        script = [("attempt", (1, 40, True, 1)), ("attempt", (1, 1, True, 1))]
        check("tatp", False, script)
        monkeypatch.setattr(HoudiniRuntime, "_issue_updates", _issue_updates_from_the_schedule)
        with pytest.raises(AssertionError, match="monitors disagree"):
            check("tatp", False, script)

    def test_recording_and_replaying_while_learning(self, monkeypatch):
        """Under learning a path vertex's hit count grows while the entry
        stays valid.  TATP ``GetNewDestination`` (pool request 7) walks two
        states observed 6 and 5 times, under ``op3_min_observations`` (10):
        the OP3 gate holds undo logging on when the schedule is recorded
        and lets it go a few attempts later."""
        script = [("attempt", (7, 40, True, 12))]
        check("tatp", True, script)
        monkeypatch.setattr(HoudiniRuntime, "__init__", _init_with_an_entry_while_learning)
        with pytest.raises(AssertionError, match="monitors disagree"):
            check("tatp", True, script)

    def test_keeping_the_plan_of_the_call_that_derived_the_decision(self, monkeypatch):
        """That plan was built before ``eligible`` existed: an eligible
        entry's later hits would be labelled ``houdini`` (and, under
        simulated savings, charged the walk)."""
        script = [("plan", 0), ("plan", 0)]
        check("tatp", False, script)
        monkeypatch.setattr(Houdini, "plan", _plan_keeping_the_deriving_plan)
        with pytest.raises(AssertionError, match="is not the entry's"):
            check("tatp", False, script)
