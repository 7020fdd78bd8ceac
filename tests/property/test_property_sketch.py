"""Property-based tests for the O(1)-memory streaming-metrics sketches.

The scale-mode contract (``metrics_mode="streaming"``) rests on
:class:`repro.sim.sketch.LatencySketch` and
:class:`repro.sim.sketch.CompletionWindow`: counts, totals and extrema are
exact; the tracked quantiles (p50/p95/p99) stay within
``QUANTILE_RTOL`` relative error of the exact nearest-rank values; and the
serialized summary round-trips losslessly for the preserved statistics.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.sketch import (
    QUANTILE_RTOL,
    RESERVOIR_SIZE,
    TRACKED_QUANTILES,
    CompletionWindow,
    LatencySketch,
    _P2Quantile,
)
from tests.sim.reference_sketch import LoopP2Quantile

latency_lists = st.lists(
    st.floats(min_value=0.001, max_value=1e4, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=400,
)


def exact_quantile(values, q):
    ordered = sorted(values)
    rank = max(0, math.ceil(len(ordered) * q) - 1)
    return ordered[rank]


class TestLatencySketchExactStatistics:
    @given(latency_lists)
    def test_count_total_and_extrema_are_exact(self, values):
        sketch = LatencySketch()
        for value in values:
            sketch.observe(value)
        assert sketch.count == len(values)
        assert sketch.total == pytest.approx(sum(values), rel=1e-12)
        assert sketch.min == min(values)
        assert sketch.max == max(values)
        assert sketch.mean == pytest.approx(sum(values) / len(values), rel=1e-12)

    @given(latency_lists)
    def test_quantiles_exact_below_reservoir_capacity(self, values):
        # Everything fits in the reservoir, so any quantile is exact.
        assert len(values) <= RESERVOIR_SIZE
        sketch = LatencySketch()
        for value in values:
            sketch.observe(value)
        for q in (0.1, 0.5, 0.75, 0.95, 0.99):
            assert sketch.quantile(q) == exact_quantile(values, q)

    @given(latency_lists)
    def test_append_is_observe(self, values):
        a, b = LatencySketch(), LatencySketch()
        for value in values:
            a.observe(value)
            b.append(value)
        assert a.count == b.count and a.total == b.total
        assert a.quantile(0.95) == b.quantile(0.95)


DISTRIBUTIONS = {
    "exponential": lambda rng: rng.expovariate(1 / 8.0),
    "lognormal": lambda rng: rng.lognormvariate(1.0, 0.6),
    "bimodal": lambda rng: (
        rng.gauss(5.0, 0.5) if rng.random() < 0.9 else rng.gauss(60.0, 5.0)
    ),
    "uniform": lambda rng: rng.uniform(1.0, 100.0),
}


class TestLatencySketchAccuracyBound:
    @pytest.mark.parametrize("name", sorted(DISTRIBUTIONS))
    @pytest.mark.parametrize("seed", [0, 17])
    def test_tracked_quantiles_within_documented_bound(self, name, seed):
        """p50/p95/p99 stay within QUANTILE_RTOL of exact at 50k samples."""
        rng = random.Random(seed)
        draw = DISTRIBUTIONS[name]
        values = [abs(draw(rng)) + 1e-6 for _ in range(50_000)]
        sketch = LatencySketch()
        for value in values:
            sketch.observe(value)
        for q in TRACKED_QUANTILES:
            exact = exact_quantile(values, q)
            approx = sketch.quantile(q)
            assert abs(approx - exact) <= QUANTILE_RTOL * exact, (
                name, seed, q, exact, approx,
            )

    def test_untracked_quantile_uses_reservoir(self):
        rng = random.Random(3)
        values = [rng.expovariate(1 / 10.0) for _ in range(20_000)]
        sketch = LatencySketch()
        for value in values:
            sketch.observe(value)
        exact = exact_quantile(values, 0.75)
        # Reservoir sampling carries a looser (statistical) bound.
        assert abs(sketch.quantile(0.75) - exact) <= 0.25 * exact


# ----------------------------------------------------------------------
# Straight-line P² == loop-form P², bit for bit
# ----------------------------------------------------------------------
_value = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
_step = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False)
_short = st.integers(min_value=1, max_value=40)

#: One stream segment: ``(kind, *arguments)``; see ``_segment_values``.
_segments = st.one_of(
    st.tuples(st.just("values"), st.lists(_value, min_size=1, max_size=60)),
    st.tuples(st.just("constant"), _value, _short),
    st.tuples(st.just("increasing"), _value, _step, _short),
    st.tuples(st.just("decreasing"), _value, _step, _short),
    st.tuples(st.just("bimodal"), st.integers(min_value=0, max_value=2**16), _short),
    st.tuples(st.just("burst"), _value),
    # Relative to the estimator's markers at that point of the stream.
    st.tuples(st.just("marker"), st.integers(min_value=0, max_value=4), _short),
    st.tuples(st.just("below"), _step, _short),
    st.tuples(st.just("above"), st.one_of(st.just(0.0), _step), _short),
)


def _segment_values(segment, reference):
    """The observations of one segment, drawn lazily: marker-relative
    segments read the reference estimator's heights as they stand."""
    kind, *arguments = segment
    if kind == "values":
        yield from arguments[0]
    elif kind == "constant":
        yield from [arguments[0]] * arguments[1]
    elif kind in ("increasing", "decreasing"):
        start, step, count = arguments
        sign = 1.0 if kind == "increasing" else -1.0
        yield from (start + sign * step * index for index in range(count))
    elif kind == "bimodal":
        rng = random.Random(arguments[0])
        for _ in range(arguments[1]):
            yield rng.gauss(5.0, 0.5) if rng.random() < 0.9 else rng.gauss(60.0, 5.0)
    elif kind == "burst":
        yield from [arguments[0]] * 512
    else:
        for _ in range(arguments[-1]):
            heights = reference.heights
            if len(heights) < 5:
                yield 1.0
            elif kind == "marker":
                yield heights[arguments[0]]
            elif kind == "below":
                yield heights[0] - arguments[0]
            else:
                yield heights[4] + arguments[0]


class TestStraightLineP2EqualsLoopForm:
    @pytest.mark.parametrize("q", TRACKED_QUANTILES)
    @given(st.lists(_segments, min_size=1, max_size=8))
    def test_markers_equal_after_every_observation(self, q, segments):
        straight, loop = _P2Quantile(q), LoopP2Quantile(q)
        for segment in segments:
            for x in _segment_values(segment, loop):
                straight.add(x)
                loop.add(x)
                assert straight.heights == loop.heights, (segment, x)
                assert straight.positions == loop.positions, (segment, x)
                assert straight.desired == loop.desired, (segment, x)
        assert straight.count == loop.count
        assert straight.increments == loop.increments
        assert straight.value() == loop.value()

    def test_latency_sketch_bytes_past_the_reservoir(self):
        """10,000 observations: the P² markers, the reservoir's ``randrange``
        draws and the summary are what the loop form produced (the dict was
        recorded at the parent commit)."""
        rng = random.Random(20231)
        sketch, reference = LatencySketch(), LatencySketch()
        reference._p2 = tuple(LoopP2Quantile(q) for q in TRACKED_QUANTILES)
        for _ in range(10_000):
            value = rng.gauss(5.0, 0.5) if rng.random() < 0.9 else rng.gauss(60.0, 5.0)
            sketch.observe(value)
            reference.observe(value)
        assert sketch.count > RESERVOIR_SIZE
        assert sketch.to_dict() == reference.to_dict() == {
            "count": 10000, "total_ms": 105344.36338472678,
            "min_ms": 3.2173635162422345, "max_ms": 79.6195502712748,
            "quantiles": {"p50": 5.0724287216206765, "p95": 59.73592084446501,
                          "p99": 66.23395302611085},
        }
        # Untracked quantiles read the reservoir: its draws have not moved.
        assert (sketch.quantile(0.25), sketch.quantile(0.75)) == (
            4.719268178720901, 5.48403857522506)
        assert sketch._reservoir == reference._reservoir
        assert sketch.copy().to_dict() == sketch.to_dict()


class TestLatencySketchSerialization:
    def test_round_trip_preserves_summary(self):
        rng = random.Random(5)
        sketch = LatencySketch()
        for _ in range(10_000):
            sketch.observe(rng.expovariate(1 / 4.0))
        data = sketch.to_dict()
        restored = LatencySketch.from_dict(data)
        assert restored.count == sketch.count
        assert restored.total == pytest.approx(sketch.total)
        assert restored.min == sketch.min and restored.max == sketch.max
        for q in TRACKED_QUANTILES:
            assert restored.quantile(q) == pytest.approx(sketch.quantile(q))
        # Restored sketches are frozen summaries: no further observations.
        with pytest.raises(SimulationError):
            restored.observe(1.0)

    def test_copy_is_independent(self):
        sketch = LatencySketch()
        for value in (1.0, 2.0, 3.0):
            sketch.observe(value)
        clone = sketch.copy()
        sketch.observe(1000.0)
        assert clone.count == 3 and clone.max == 3.0
        assert sketch.count == 4 and sketch.max == 1000.0

    def test_empty_sketch(self):
        sketch = LatencySketch()
        assert not sketch and len(sketch) == 0
        assert sketch.mean == 0.0 and sketch.quantile(0.95) == 0.0


class TestCompletionWindow:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1e6,
                          allow_nan=False, allow_infinity=False),
                st.booleans(),
            ),
            min_size=1,
            max_size=300,
        ),
        st.floats(min_value=0.0, max_value=0.9),
    )
    @settings(max_examples=60)
    def test_counts_exact_and_window_bounded(self, completions, warmup):
        completions = sorted(completions)
        window = CompletionWindow()
        exact = []
        for end, committed in completions:
            window.append((end, committed))
            exact.append((end, committed))
        assert window.count == len(exact)
        assert window.committed == sum(1 for _, c in exact if c)
        duration, measured, committed = window.window(warmup)
        last = exact[-1][0]
        assert duration == last
        assert 0.0 <= measured <= duration + 1e-9
        assert committed <= window.committed

    def test_window_close_to_exact_computation(self):
        rng = random.Random(9)
        clock = 0.0
        window = CompletionWindow()
        ends = []
        for _ in range(50_000):
            clock += rng.expovariate(1 / 2.0)
            committed = rng.random() < 0.95
            window.append((clock, committed))
            ends.append((clock, committed))
        duration, measured, committed = window.window(0.1)
        # Exact reference: completions after the warm-up boundary.
        warmup_index = int(len(ends) * 0.1)
        exact_measured = ends[-1][0] - (
            ends[warmup_index - 1][0] if warmup_index else 0.0
        )
        exact_committed = sum(1 for _, c in ends[warmup_index:] if c)
        assert duration == ends[-1][0]
        assert measured == pytest.approx(exact_measured, rel=2e-3)
        assert committed == pytest.approx(exact_committed, rel=2e-3)

    def test_bucket_doubling_handles_large_time_ranges(self):
        window = CompletionWindow(initial_width_ms=1.0)
        for end in (0.5, 10.0, 1e7):  # forces repeated doubling
            window.append((end, True))
        assert window.count == 3 and window.committed == 3
        duration, measured, committed = window.window(0.0)
        assert duration == 1e7 and committed == 3
