"""Property: the plan memo never changes what Houdini decides (cached ≡ fresh).

Random interleavings of everything that can touch a memoized walk — planning
a request, completing attempts (which, with learning on, count transitions
and now and then discover a new state), transitions learned at an arbitrary
state of the model (on a memoized path or off it, with or without a
recompute behind the memo's back), a maintenance pass, a hot model swap, a
live ``confidence_threshold`` change — are fed in lockstep to a memo-on and
a memo-off ``Houdini`` over identical, separately owned models of TATP,
SmallBank **and TPC-C**.  At every planning step the two must agree on the
decision, the charged estimation cost, the plan and the estimate.

The memo's validity rule is *what the walk read is still in place*
(``repro.houdini.cache``), so the sharpest case is an entry served under a
moved model version: whenever that happens, a fresh walk of the same request
on the *same* model is taken on the spot and must equal what was served —
and each workload's run must contain both outcomes (an entry that survived a
version change, and one evicted by it), or it proves nothing.

The property is proven by seeded mutations of the memo it must catch (the
``TestMutationsAreCaught`` cases below: re-stamp without checking; skip the
view check; skip the table check; memoize a support-limited decision while
learning).

Tier-1 runs a fixed-seed quarter of the default budget (every example
copies the models twice; seconds, not tens of seconds); CI's
``planning-smoke`` job runs ``--hypothesis-profile=long`` (registered in
``tests/conftest.py``).
"""

from __future__ import annotations

import functools
import pickle
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.engine import AttemptOutcome, AttemptResult
from repro.houdini import EstimateCache, GlobalModelProvider, Houdini, HoudiniConfig
from repro.markov import MarkovModel
from repro.markov.vertex import ABORT_KEY, VertexKey
from repro.selftune import ModelSwapController
from repro.session import ClusterSpec, train
from repro.types import EMPTY_PARTITION_SET, PartitionSet

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


def plan_both(pair, request, tally):
    memo_on = pair[0]
    stats = memo_on.estimate_cache.stats
    revalidated, evicted = stats.revalidated, stats.invalidations
    plans = [houdini.plan(request) for houdini in pair]
    assert observable(plans[0]) == observable(plans[1]), (
        f"memo-on and memo-off disagree on {request.procedure}{request.parameters}"
    )
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
    return plans


def complete(houdini, request, houdini_plan, cut, committed) -> None:
    """Finish an attempt that followed the estimated path for ``cut`` queries
    and then (when the path is longer) left it for a state the model has
    never seen — what the run-time monitor would have recorded."""
    runtime = houdini_plan.runtime
    if runtime.model is not None:
        path = [houdini_plan.estimate.vertices[0]]
        path += houdini_plan.estimate.query_vertices
        followed = path[: cut + 1]
        if len(followed) < len(path):
            accumulated = EMPTY_PARTITION_SET
            for key in followed[1:]:
                accumulated = accumulated.union(key.partitions)
            followed.append(VertexKey.query(
                path[1].name, 7, PartitionSet.of([cut % PARTITIONS]), accumulated
            ))
        runtime.stats.transitions = list(zip(followed, followed[1:]))
        runtime._current = followed[-1]
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
    states = [vertex.key for vertex in model.query_vertices()]
    if not states:
        return
    source = states[choice % len(states)]
    target = ABORT_KEY
    if discover:
        target = VertexKey.query(
            source.name, 9, PartitionSet.of([choice % PARTITIONS]),
            source.accessed_partitions(),
        )
    model.record_transition(source, target, times)
    if recompute:
        houdini.maintenance.for_model(model).recompute()


def check(benchmark: str, learning: bool, script, tally=None, warm=False) -> None:
    _, requests, pristine = world(benchmark)
    pair = make_pair(benchmark, learning)
    tally = Counter() if tally is None else tally
    if warm:  # every request memoized before the script starts writing
        for request in requests:
            plan_both(pair, request, tally)
    for operation, argument in script:
        if operation == "plan":
            plan_both(pair, requests[argument], tally)
        elif operation == "attempt":
            index, cut, committed, repeat = argument
            for _ in range(repeat):
                plans = plan_both(pair, requests[index], tally)
                for houdini, houdini_plan in zip(pair, plans):
                    complete(houdini, requests[index], houdini_plan, cut, committed)
        elif operation == "learn":
            index, *how = argument
            for houdini in pair:
                learn(houdini, requests[index], *how)
        elif operation == "maintenance":
            for houdini in pair:
                houdini.maintenance.check_all()
        elif operation == "swap":
            procedure = requests[argument].procedure
            for houdini in pair:
                ModelSwapController(houdini).swap(
                    procedure, pickle.loads(pristine)[procedure]
                )
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
        check(workload, learning, script, tally, warm)

    run()
    # Not vacuous: entries did survive a version change (each checked against
    # a fresh walk on the spot), and entries were evicted by one.
    assert tally["revalidated"] > 0 and tally["evicted"] > 0, tally


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
