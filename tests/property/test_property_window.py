"""The warm-up window carried between snapshots equals the whole-log pass.

:class:`repro.sim.sketch.CompletionLog` keeps its verified-ordered prefix
length, the commits in that prefix and a warm-up cursor from one
:meth:`~repro.sim.sketch.CompletionLog.window` call to the next, so a
snapshot reads only the completions appended since the previous one.  The
oracle is the whole-log pass it replaced (``tests/sim/reference_window.py``):
for generated completion streams, snapshotted after every ``k`` appends,
the triple ``(duration_ms, window_duration_ms, window_committed)`` must be
the reference's, bit for bit (compared through ``repr``).  The streams
cover ties on end time (also exactly at the warm-up boundary), all-aborted
runs, a single completion and degenerate windows, warm-up fractions of 0
and near 1, a fraction that changes between snapshots, and one
out-of-order entry injected at a random position — the shape a fast-path
completion folded at ``end + think`` leaves when the general loop records
an earlier one first.

A simulator-level check drives real episodes (fast path, a live policy
swap with think time) and compares every snapshot with the reference over
the simulator's own log.

The properties are proven by seeded mutations they must catch
(``TestMutationsAreCaught``): a tie at the warm-up time counted inside the
window (``>=`` for ``>`` at the cursor); and a recount after the in-place
sort that leaves the cursor standing.
"""

from __future__ import annotations

from bisect import bisect_left

import pytest
from hypothesis import HealthCheck, Phase, example, given, settings
from hypothesis import strategies as st

from repro.session import build_strategy
from repro.sim import ClusterSimulator, SimulatorConfig
from repro.sim import sketch
from repro.sim.sketch import CompletionLog
from tests.conftest import trained
from tests.sim.reference_window import reference_window

#: Increments between consecutive end times: zeros make ties.
_STEPS = st.sampled_from([0.0, 0.0, 0.0, 0.5, 1.0, 2.25])
_FRACTIONS = st.one_of(
    st.sampled_from([0.0, 0.1, 0.5, 0.9, 0.999]),
    st.floats(min_value=0.0, max_value=0.999),
)


@st.composite
def scenarios(draw):
    """``(completions, every, fractions)``: the stream, the snapshot period
    and the warm-up fractions the snapshots cycle through."""
    end = draw(st.sampled_from([0.0, 1.0, 7.5]))
    completions = []
    for step, committed in draw(
        st.lists(st.tuples(_STEPS, st.booleans()), min_size=1, max_size=120)
    ):
        end += step
        completions.append((end, committed))
    if draw(st.booleans()):
        position = draw(st.integers(min_value=1, max_value=len(completions)))
        back = draw(st.sampled_from([0.25, 1.0, 2.25, 6.0]))
        earlier = max(0.0, completions[position - 1][0] - back)
        completions.insert(position, (earlier, draw(st.booleans())))
    every = draw(st.integers(min_value=1, max_value=12))
    fractions = draw(st.lists(_FRACTIONS, min_size=1, max_size=3))
    return completions, every, fractions


def check(completions, every, fractions) -> None:
    """Append ``completions`` one by one; after every ``every``-th append
    (and the last) the log's window equals the reference over the stream as
    recorded so far."""
    log = CompletionLog()
    snapshots = 0
    for index, entry in enumerate(completions, 1):
        log.append(entry)
        if index % every and index < len(completions):
            continue
        fraction = fractions[snapshots % len(fractions)]
        snapshots += 1
        expected = reference_window(completions[:index], fraction)
        got = log.window(fraction)
        assert repr(got) == repr(expected), (
            f"window after {index} completions (fraction {fraction}) differs: "
            f"{got} != reference {expected}"
        )
        assert log.ordered == index
    # A repeated snapshot with nothing new reads the same.
    assert repr(log.window(fractions[0])) == repr(reference_window(completions, fractions[0]))


#: Four completions tie at 2.0 around the warm-up index (n=8, f=0.4 -> 3):
#: the committed ones among them are warm-up, not window.
TIE_AT_BOUNDARY = (
    [(1.0, True), (2.0, True), (2.0, True), (2.0, True), (2.0, True),
     (3.0, True), (4.0, False), (4.0, True)],
    3, [0.4],
)
#: The out-of-order entry (1.0) sorts in below the cursor the first
#: snapshot left after 4.0; only a cursor reset counts its commit there.
LATE_BEFORE_CURSOR = (
    [(1.0, False), (2.0, False), (3.0, True), (4.0, False), (5.0, False),
     (6.0, False), (1.0, True), (7.0, False)],
    6, [0.5],
)


def window_property(**budget):
    """The property, with the listed corners pinned as explicit examples."""

    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow], **budget)
    @given(scenarios())
    @example(TIE_AT_BOUNDARY)
    @example(LATE_BEFORE_CURSOR)
    @example(([(1.0, False), (2.0, False), (3.0, False)], 1, [0.5]))  # all aborted
    @example(([(0.0, True)], 1, [0.5]))  # single completion: window <= 0
    @example(([(4.0, True), (4.0, False)], 1, [0.5]))  # window == 0 at n=2
    @example(([(1.0, True), (2.0, True), (3.0, False)], 1, [0.0]))
    @example(([(float(i // 3), i % 2 == 0) for i in range(30)], 4, [0.999]))
    @example(([(float(i), True) for i in range(20)], 5, [0.5, 0.1, 0.9]))
    def run(scenario):
        check(*scenario)

    return run


class TestWindowEqualsReference:
    def test_every_snapshot_equals_the_whole_log_pass(self):
        window_property()()

    def test_empty_log_reads_the_result_defaults(self):
        assert CompletionLog().window(0.1) == reference_window([], 0.1) == (0.0, 0.0, 0)


# ----------------------------------------------------------------------
# The simulator's own log, across a mode switch
# ----------------------------------------------------------------------
WARMUP_FRACTION = 0.25


def drive_episodes(episodes: int = 2) -> tuple[int, int]:
    """Episodes of a TATP core with think time, each a fresh core over the
    evolving database: part of the budget on the fast path (folded
    completions left in the heap), then a live swap to a predictive policy;
    every few steps a snapshot must equal the reference over the simulator's
    log.  Returns the snapshots compared and how many of them found the log
    out of end-time order."""
    artifacts = trained("tatp", 4, 200, 3)
    strategy = build_strategy("houdini", artifacts)
    compared = disordered = 0
    for _ in range(episodes):
        simulator = ClusterSimulator(
            artifacts.benchmark.catalog, artifacts.benchmark.database,
            artifacts.benchmark.generator, strategy,
            config=SimulatorConfig(client_think_time_ms=1.5, warmup_fraction=WARMUP_FRACTION),
            benchmark_name="tatp",
        )
        simulator.extend_budget(60)
        for _ in range(40):
            simulator.step()
        simulator.set_policy("shortest-predicted")
        steps = 0
        while simulator.step():
            steps += 1
            if steps % 7:
                continue
            recorded = list(simulator._completions)
            disordered += recorded != sorted(recorded, key=lambda entry: entry[0])
            expected = reference_window(recorded, WARMUP_FRACTION)
            result = simulator.snapshot()
            got = (result.simulated_duration_ms, result.window_duration_ms,
                   result.window_committed)
            assert repr(got) == repr(expected), (
                f"snapshot window {got} != reference {expected}")
            compared += 1
    return compared, disordered


class TestSimulatorWindow:
    def test_snapshots_across_a_mode_switch(self):
        compared, disordered = drive_episodes()
        assert compared > 10 and disordered > 0


# ----------------------------------------------------------------------
# Seeded mutations the properties must catch
# ----------------------------------------------------------------------
_real_recount = CompletionLog._recount


def _recount_keeping_the_cursor(self):
    """The recount after the in-place sort, leaving the cursor standing."""
    cursor = getattr(self, "_cursor", 0), getattr(self, "_cursor_committed", 0)
    _real_recount(self)
    self._cursor, self._cursor_committed = cursor


def _generated_only():
    """The property's generated examples only (the pinned ones would catch
    each mutation by construction): a fixed seed, no shrinking."""
    return window_property(
        max_examples=300, derandomize=True, database=None, phases=(Phase.generate,)
    )


class TestMutationsAreCaught:
    def test_a_tie_at_the_warmup_time_counted_in_the_window(self, monkeypatch):
        """``>=`` for ``>``: completions ending exactly at the warm-up time
        are warm-up, not window."""
        check(*TIE_AT_BOUNDARY)
        monkeypatch.setattr(sketch, "bisect_right", bisect_left)
        with pytest.raises(AssertionError, match="differs"):
            check(*TIE_AT_BOUNDARY)
        with pytest.raises(AssertionError, match="differs"):
            _generated_only()()

    def test_a_resort_that_keeps_the_cursor(self, monkeypatch):
        check(*LATE_BEFORE_CURSOR)
        monkeypatch.setattr(CompletionLog, "_recount", _recount_keeping_the_cursor)
        with pytest.raises(AssertionError, match="differs"):
            check(*LATE_BEFORE_CURSOR)
        with pytest.raises(AssertionError, match="differs"):
            _generated_only()()
