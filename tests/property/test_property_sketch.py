"""Property-based tests for the bounded-memory streaming-metrics sketches.

The scale-mode contract (``metrics_mode="streaming"``) rests on
:class:`repro.sim.sketch.LatencySketch` and
:class:`repro.sim.sketch.CompletionWindow`: counts, totals and extrema are
exact; every quantile is within ``RELATIVE_ACCURACY`` (α) of the exact
nearest-rank value, whatever the stream's shape; and the dict form
round-trips to an equal sketch that keeps accepting observations.

``TestMutationsAreCaught`` rebuilds the sketch class with one planted bug
(``floor`` for ``ceil`` in the bucket index; the bucket's lower edge read
instead of its midpoint) and shows the bound property fails on each.
"""

import inspect
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim import sketch as sketch_module
from repro.sim.sketch import RELATIVE_ACCURACY, CompletionWindow, LatencySketch

#: Quantiles every bound check reads, the three the simulator reports and
#: the extremes included.
QUANTILES = (0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1.0)

latency_lists = st.lists(
    st.floats(min_value=0.001, max_value=1e4, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=400,
)


def exact_quantile(values, q):
    ordered = sorted(values)
    rank = max(0, math.ceil(len(ordered) * q) - 1)
    return ordered[min(rank, len(ordered) - 1)]


def fill(values, cls=LatencySketch):
    sketch = cls()
    for value in values:
        sketch.observe(value)
    return sketch


def assert_within_bound(sketch, values, quantiles=QUANTILES):
    """Every quantile within α of exact nearest-rank (a hair of float slack:
    a value on a bucket edge sits exactly α from the midpoint)."""
    for q in quantiles:
        exact = exact_quantile(values, q)
        estimate = sketch.quantile(q)
        assert abs(estimate - exact) <= RELATIVE_ACCURACY * abs(exact) * (1 + 1e-9), (
            q, exact, estimate)


# ----------------------------------------------------------------------
# Adversarial streams
# ----------------------------------------------------------------------
_short = st.integers(min_value=1, max_value=300)
_seed = st.integers(min_value=0, max_value=2**16)

#: One stream segment: ``(kind, *arguments)``; see ``_segment_values``.
_segments = st.one_of(
    st.tuples(st.just("values"), st.lists(
        st.floats(min_value=0.0, max_value=1e9, allow_nan=False), min_size=1, max_size=60)),
    st.tuples(st.just("bimodal"), _seed, _short),
    st.tuples(st.just("burst"), _seed, st.integers(min_value=1, max_value=600)),
    st.tuples(st.just("heavy_tail"), _seed, _short,
              st.floats(min_value=0.3, max_value=3.0)),
    st.tuples(st.just("duplicates"), st.floats(min_value=1e-6, max_value=1e6), _short),
    st.tuples(st.just("near_zero"), _seed, _short),
    st.tuples(st.just("zeros"), _short),
)


def _segment_values(segment):
    kind, *arguments = segment
    if kind == "values":
        return list(arguments[0])
    if kind == "zeros":
        return [0.0] * arguments[0]
    if kind == "duplicates":
        return [arguments[0]] * arguments[1]
    rng = random.Random(arguments[0])
    count = arguments[1]
    if kind == "bimodal":
        return [abs(rng.gauss(5.0, 0.5)) if rng.random() < 0.9 else abs(rng.gauss(60.0, 5.0))
                for _ in range(count)]
    if kind == "burst":  # a queue drains: latencies climb in lockstep, then reset
        base = rng.uniform(0.5, 50.0)
        return [base + 0.25 * (index % 64) for index in range(count)]
    if kind == "heavy_tail":
        return [rng.paretovariate(arguments[2]) for _ in range(count)]
    return [rng.uniform(0.0, 1e-6) * 10.0 ** -rng.randrange(300) for _ in range(count)]


_streams = st.lists(_segments, min_size=1, max_size=6).map(
    lambda segments: [value for segment in segments for value in _segment_values(segment)])


class TestBoundOverAdversarialStreams:
    @given(_streams, st.floats(min_value=0.0, max_value=1.0))
    def test_every_quantile_within_alpha_of_exact(self, values, q):
        assert_within_bound(fill(values), values, QUANTILES + (q,))

    @given(st.floats(min_value=1e-300, max_value=1e300))
    def test_a_single_value_reads_back_exactly(self, value):
        sketch = fill([value])
        assert all(sketch.quantile(q) == value for q in QUANTILES)

    @given(_streams, _streams)
    def test_dict_form_restores_an_equal_live_sketch(self, values, more):
        sketch = fill(values)
        restored = LatencySketch.from_dict(json.loads(json.dumps(sketch.to_dict())))
        assert restored.to_dict() == sketch.to_dict()
        for value in more:
            sketch.observe(value)
            restored.observe(value)
        assert restored.to_dict() == sketch.to_dict()
        assert_within_bound(restored, values + more)

    @given(_streams, _streams)
    def test_copy_is_independent(self, values, more):
        sketch = fill(values)
        clone = sketch.copy()
        before = sketch.to_dict()
        for value in more:
            clone.observe(value)
        assert sketch.to_dict() == before
        assert_within_bound(clone, values + more)

    @given(_streams, _streams)
    def test_bucket_counts_merge_by_addition(self, left, right):
        merged = {}
        for part in (fill(left), fill(right)):
            for key, count in part.to_dict()["buckets"]:
                merged[key] = merged.get(key, 0) + count
        whole = fill(left + right).to_dict()
        assert [[key, merged[key]] for key in sorted(merged)] == whole["buckets"]


class TestLatencySketchExactStatistics:
    @given(latency_lists)
    def test_count_total_and_extrema_are_exact(self, values):
        sketch = fill(values)
        assert sketch.count == len(values)
        assert sketch.total == pytest.approx(sum(values), rel=1e-12)
        assert sketch.min == min(values)
        assert sketch.max == max(values)
        assert sketch.mean == pytest.approx(sum(values) / len(values), rel=1e-12)

    @given(latency_lists)
    def test_append_is_observe(self, values):
        a, b = LatencySketch(), LatencySketch()
        for value in values:
            a.observe(value)
            b.append(value)
        assert a.to_dict() == b.to_dict()

    def test_empty_sketch(self):
        sketch = LatencySketch()
        assert not sketch and len(sketch) == 0
        assert sketch.mean == 0.0 and sketch.quantile(0.95) == 0.0
        assert LatencySketch.from_dict(sketch.to_dict()).to_dict() == sketch.to_dict()

    def test_quantile_outside_the_unit_interval_is_refused(self):
        with pytest.raises(SimulationError, match="quantile"):
            fill([1.0]).quantile(1.5)

    def test_a_summary_of_another_accuracy_is_refused(self):
        document = fill([1.0, 2.0]).to_dict()
        document["relative_accuracy"] = 0.01
        with pytest.raises(SimulationError, match="malformed latency summary"):
            LatencySketch.from_dict(document)


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
    def test_quantiles_within_alpha_at_50k_samples(self, name, seed):
        rng = random.Random(seed)
        draw = DISTRIBUTIONS[name]
        values = [abs(draw(rng)) + 1e-6 for _ in range(50_000)]
        assert_within_bound(fill(values), values)


# ----------------------------------------------------------------------
# Seeded mutations the bound property must catch
# ----------------------------------------------------------------------
def mutant(old: str, new: str) -> type:
    """``LatencySketch`` rebuilt from its source with one edit applied."""
    source = inspect.getsource(LatencySketch)
    assert source.count(old) == 1, old
    namespace = dict(vars(sketch_module))
    exec(compile(source.replace(old, new), sketch_module.__file__, "exec"), namespace)
    return namespace["LatencySketch"]


#: A smooth latency population whose quantiles fall inside buckets.
_RNG = random.Random(4)
_LOGNORMAL = [_RNG.lognormvariate(4.0, 0.3) for _ in range(2000)]


class TestMutationsAreCaught:
    @pytest.mark.parametrize("old,new", [
        ("ceil(log(value_ms)", "math.floor(log(value_ms)"),
        ("_GAMMA ** key * _MIDPOINT", "_GAMMA ** (key - 1)"),
    ], ids=["floor-bucket-index", "lower-edge-not-midpoint"])
    def test_the_bound_fails_on_each(self, old, new):
        assert_within_bound(fill(_LOGNORMAL, mutant(old, old)), _LOGNORMAL)
        with pytest.raises(AssertionError):
            assert_within_bound(fill(_LOGNORMAL, mutant(old, new)), _LOGNORMAL)


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
