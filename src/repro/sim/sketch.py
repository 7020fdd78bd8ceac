"""Bounded-memory metric accumulators for the million-user scale mode.

Exact mode stores every completed latency in a Python list — perfect for
thousands of transactions, fatal for overload studies where a single probe
completes millions.  ``metrics_mode="streaming"`` swaps those lists for the
two accumulators here, both O(1) in memory no matter how many observations
arrive:

* :class:`LatencySketch` — count / sum / min / max exactly, plus quantile
  estimates from a P² (piecewise-parabolic) estimator per tracked quantile
  (p50/p95/p99) backed by a deterministic reservoir sample for every other
  quantile.  While the population still fits in the reservoir the sketch is
  *exact*; past that, the documented accuracy contract is
  :data:`QUANTILE_RTOL` (relative error on TATP/TPC-C-shaped latency
  populations, held by ``tests/property/test_property_sketch.py``).
* :class:`CompletionWindow` — a doubling-width histogram of completion
  times (committed and total counts per bucket) that reproduces the
  simulator's post-warm-up measurement window to within one bucket
  (≤ 1/:data:`WINDOW_BUCKETS` of the run) without storing per-completion
  tuples.

Both deliberately answer to ``append(...)`` so the simulator's hot loops
feed a list or a sketch through the same call site.  Exact mode's completion
list is a :class:`CompletionLog`: every tuple kept, and the window extended
by what arrived since the last snapshot instead of recomputed from the log.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right, insort
from itertools import chain
from operator import itemgetter, le
from typing import Iterable, Mapping

from ..errors import SimulationError

#: Quantiles maintained by dedicated P² estimators.
TRACKED_QUANTILES = (0.5, 0.95, 0.99)

#: Documented relative-error bound for streaming quantiles once the
#: population has outgrown the exact reservoir (see module docstring).
QUANTILE_RTOL = 0.10

#: Reservoir capacity: below this many observations quantiles are exact.
RESERVOIR_SIZE = 2048

#: Bucket count of the completion-time histogram.
WINDOW_BUCKETS = 4096

#: Fixed seed for the deterministic reservoir (results must be replayable).
_RESERVOIR_SEED = 0x5EED


class _P2Quantile:
    """Jain & Chlamtac's P² streaming quantile estimator (one quantile).

    Five markers track the running quantile without storing observations;
    marker heights are adjusted with a piecewise-parabolic fit as counts
    grow.  Exact until five observations have arrived.
    """

    __slots__ = ("q", "heights", "positions", "desired", "increments", "count")

    def __init__(self, q: float) -> None:
        self.q = q
        self.heights: list[float] = []
        self.positions = [1.0, 2.0, 3.0, 4.0, 5.0]
        self.desired = [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0]
        self.increments = [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0]
        self.count = 0

    def add(self, x: float) -> None:
        """One P² update, written out over the five markers.

        The same float operations in the same order as the textbook loops
        (kept as the oracle in ``tests/sim/reference_sketch.py``): locate the
        cell of ``x`` and clamp the extreme markers, shift the positions
        above the cell, advance the desired positions, then move markers 1,
        2, 3 — in that order, each seeing its neighbour's new height — by a
        parabolic step, or a linear one when the parabola would leave the
        bracket.  Marker 0's desired position never moves (its increment is
        0.0).
        """
        count = self.count + 1
        self.count = count
        heights = self.heights
        if count <= 5:
            insort(heights, x)
            return
        positions = self.positions
        desired = self.desired
        h0, h1, h2, h3, h4 = heights
        n0, n1, n2, n3, n4 = positions
        if x < h0:
            heights[0] = h0 = x
            n1 += 1.0
            n2 += 1.0
            n3 += 1.0
        elif x >= h4:
            heights[4] = h4 = x
        elif x < h1:
            n1 += 1.0
            n2 += 1.0
            n3 += 1.0
        elif x < h2:
            n2 += 1.0
            n3 += 1.0
        elif x < h3:
            n3 += 1.0
        n4 += 1.0
        _, i1, i2, i3, i4 = self.increments
        desired[4] += i4

        desired[1] = d = desired[1] + i1
        delta = d - n1
        if (delta >= 1.0 and n2 - n1 > 1.0) or (delta <= -1.0 and n0 - n1 < -1.0):
            step = 1.0 if delta >= 1.0 else -1.0
            candidate = h1 + step / (n2 - n0) * (
                (n1 - n0 + step) * (h2 - h1) / (n2 - n1)
                + (n2 - n1 - step) * (h1 - h0) / (n1 - n0)
            )
            if h0 < candidate < h2:
                h1 = candidate
            elif step > 0.0:
                h1 = h1 + step * (h2 - h1) / (n2 - n1)
            else:
                h1 = h1 + step * (h0 - h1) / (n0 - n1)
            heights[1] = h1
            n1 += step

        desired[2] = d = desired[2] + i2
        delta = d - n2
        if (delta >= 1.0 and n3 - n2 > 1.0) or (delta <= -1.0 and n1 - n2 < -1.0):
            step = 1.0 if delta >= 1.0 else -1.0
            candidate = h2 + step / (n3 - n1) * (
                (n2 - n1 + step) * (h3 - h2) / (n3 - n2)
                + (n3 - n2 - step) * (h2 - h1) / (n2 - n1)
            )
            if h1 < candidate < h3:
                h2 = candidate
            elif step > 0.0:
                h2 = h2 + step * (h3 - h2) / (n3 - n2)
            else:
                h2 = h2 + step * (h1 - h2) / (n1 - n2)
            heights[2] = h2
            n2 += step

        desired[3] = d = desired[3] + i3
        delta = d - n3
        if (delta >= 1.0 and n4 - n3 > 1.0) or (delta <= -1.0 and n2 - n3 < -1.0):
            step = 1.0 if delta >= 1.0 else -1.0
            candidate = h3 + step / (n4 - n2) * (
                (n3 - n2 + step) * (h4 - h3) / (n4 - n3)
                + (n4 - n3 - step) * (h3 - h2) / (n3 - n2)
            )
            if h2 < candidate < h4:
                h3 = candidate
            elif step > 0.0:
                h3 = h3 + step * (h4 - h3) / (n4 - n3)
            else:
                h3 = h3 + step * (h2 - h3) / (n2 - n3)
            heights[3] = h3
            n3 += step

        positions[1] = n1
        positions[2] = n2
        positions[3] = n3
        positions[4] = n4

    def copy(self) -> "_P2Quantile":
        clone = _P2Quantile(self.q)
        clone.heights = list(self.heights)
        clone.positions = list(self.positions)
        clone.desired = list(self.desired)
        clone.increments = list(self.increments)
        clone.count = self.count
        return clone

    def value(self) -> float:
        heights = self.heights
        if not heights:
            return 0.0
        if self.count <= 5:
            rank = max(0, -(-self.count * int(self.q * 100) // 100) - 1)
            return heights[min(rank, len(heights) - 1)]
        return heights[2]


class LatencySketch:
    """O(1)-memory latency summary: exact moments, estimated quantiles.

    ``count``/``total``/``min``/``max`` are exact.  Quantiles are exact
    while ``count <= RESERVOIR_SIZE``; beyond that, tracked quantiles
    (p50/p95/p99) come from P² estimators and arbitrary quantiles from a
    deterministic reservoir sample, within :data:`QUANTILE_RTOL` relative
    error on the latency shapes this simulator produces.

    ``append`` aliases ``observe`` so list-shaped accumulator call sites
    work unchanged.  A sketch restored by :meth:`from_dict` is a frozen
    summary (count, total, min, max, and the tracked quantiles survive the
    round-trip; raw samples do not) and refuses further observations.
    """

    __slots__ = ("count", "total", "_min", "_max", "_p2", "_reservoir", "_rng", "_frozen")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self._min = 0.0
        self._max = 0.0
        self._p2 = tuple(_P2Quantile(q) for q in TRACKED_QUANTILES)
        self._reservoir: list[float] = []
        self._rng = random.Random(_RESERVOIR_SEED)
        self._frozen: dict[float, float] | None = None

    # ------------------------------------------------------------------
    def observe(self, value_ms: float) -> None:
        if self._frozen is not None:
            raise SimulationError(
                "cannot observe into a LatencySketch restored from a summary "
                "dict (it carries no sample state); build a fresh sketch"
            )
        if self.count == 0:
            self._min = self._max = value_ms
        elif value_ms < self._min:
            self._min = value_ms
        elif value_ms > self._max:
            self._max = value_ms
        self.count += 1
        self.total += value_ms
        for estimator in self._p2:
            estimator.add(value_ms)
        reservoir = self._reservoir
        if len(reservoir) < RESERVOIR_SIZE:
            reservoir.append(value_ms)
        else:
            slot = self._rng.randrange(self.count)
            if slot < RESERVOIR_SIZE:
                reservoir[slot] = value_ms

    #: List-compatible alias: the simulator's hot loops call ``.append``.
    append = observe

    # ------------------------------------------------------------------
    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def min(self) -> float:
        return self._min

    @property
    def max(self) -> float:
        return self._max

    def __len__(self) -> int:
        return self.count

    def __bool__(self) -> bool:
        return self.count > 0

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile estimate for ``q`` in ``[0, 1]``."""
        if not 0.0 <= q <= 1.0:
            raise SimulationError(f"quantile must be in [0, 1], got {q!r}")
        if self.count == 0:
            return 0.0
        if self._frozen is not None:
            # Restored summary: snap to the nearest preserved quantile.
            nearest = min(self._frozen, key=lambda tracked: abs(tracked - q))
            return self._frozen[nearest]
        if self.count <= len(self._reservoir):
            return self._rank_of(sorted(self._reservoir), q)  # still exact
        for estimator in self._p2:
            if abs(q - estimator.q) < 1e-9:
                return estimator.value()
        return self._rank_of(sorted(self._reservoir), q)

    @staticmethod
    def _rank_of(ordered: list[float], q: float) -> float:
        rank = max(0, math.ceil(len(ordered) * q) - 1)
        return ordered[min(rank, len(ordered) - 1)]

    # ------------------------------------------------------------------
    def copy(self) -> "LatencySketch":
        """An independent snapshot (the live sketch keeps accumulating)."""
        twin = LatencySketch.__new__(LatencySketch)
        twin.count = self.count
        twin.total = self.total
        twin._min = self._min
        twin._max = self._max
        twin._frozen = dict(self._frozen) if self._frozen is not None else None
        twin._reservoir = list(self._reservoir)
        twin._rng = random.Random(_RESERVOIR_SEED)
        twin._rng.setstate(self._rng.getstate())
        twin._p2 = tuple(estimator.copy() for estimator in self._p2)
        return twin

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Compact summary (constant size regardless of observation count).

        Round-trip contract: :meth:`from_dict` restores ``count``,
        ``total_ms``, ``min_ms``, ``max_ms`` and the tracked quantiles
        exactly; sample state (reservoir, P² markers) is *not* serialized,
        so a restored sketch is frozen — it answers summary queries but
        cannot absorb new observations.
        """
        return {
            "count": self.count,
            "total_ms": self.total,
            "min_ms": self._min,
            "max_ms": self._max,
            "quantiles": {
                f"p{round(q * 100)}": self.quantile(q) for q in TRACKED_QUANTILES
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "LatencySketch":
        sketch = cls()
        try:
            sketch.count = int(data["count"])
            sketch.total = float(data["total_ms"])
            sketch._min = float(data["min_ms"])
            sketch._max = float(data["max_ms"])
            quantiles = data["quantiles"]
            sketch._frozen = {
                q: float(quantiles[f"p{round(q * 100)}"]) for q in TRACKED_QUANTILES
            }
        except (KeyError, TypeError, ValueError) as error:
            raise SimulationError(f"malformed latency summary: {data!r}") from error
        return sketch

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<LatencySketch n={self.count} mean={self.mean:.3f}ms "
            f"p95={self.quantile(0.95):.3f}ms>"
        )


class CompletionWindow:
    """Bounded histogram of completion times for warm-up windowing.

    Replaces the exact-mode :class:`CompletionLog`: the simulator appends
    every completion, and :meth:`window` reproduces the log's post-warm-up
    measurement window from bucket counts.  The bucket width doubles
    (adjacent buckets merging) whenever a completion lands past the current
    range, so memory stays at
    :data:`WINDOW_BUCKETS` buckets while resolution tracks the run length —
    the warm-up boundary is located to within one bucket, i.e. a relative
    window error of at most ``1/WINDOW_BUCKETS`` of the simulated duration.
    """

    __slots__ = ("_counts", "_committed", "_width", "count", "committed", "last_end_ms")

    def __init__(self, initial_width_ms: float = 1.0) -> None:
        self._counts = [0] * WINDOW_BUCKETS
        self._committed = [0] * WINDOW_BUCKETS
        self._width = float(initial_width_ms)
        self.count = 0
        self.committed = 0
        self.last_end_ms = 0.0

    # ------------------------------------------------------------------
    def append(self, completion: tuple[float, bool]) -> None:
        end_ms, committed = completion
        if end_ms > self.last_end_ms:
            self.last_end_ms = end_ms
        while end_ms >= self._width * WINDOW_BUCKETS:
            self._double()
        bucket = int(end_ms / self._width)
        self._counts[bucket] += 1
        self.count += 1
        if committed:
            self._committed[bucket] += 1
            self.committed += 1

    def extend(self, completions: Iterable[tuple[float, bool]]) -> None:
        for completion in completions:
            self.append(completion)

    def _double(self) -> None:
        counts, committed = self._counts, self._committed
        half = WINDOW_BUCKETS // 2
        for index in range(half):
            double = 2 * index
            counts[index] = counts[double] + counts[double + 1]
            committed[index] = committed[double] + committed[double + 1]
        for index in range(half, WINDOW_BUCKETS):
            counts[index] = 0
            committed[index] = 0
        self._width *= 2.0

    def __len__(self) -> int:
        return self.count

    def __bool__(self) -> bool:
        return self.count > 0

    # ------------------------------------------------------------------
    def window(self, warmup_fraction: float) -> tuple[float, float, int]:
        """(duration_ms, window_duration_ms, window_committed).

        Mirrors the exact path: the first ``warmup_fraction`` of
        completions (by end time) are warm-up; the window spans from the
        warm-up completion's end time to the last completion, and counts
        the committed transactions inside it.  The boundary is interpolated
        inside its bucket, so the result converges to the exact window as
        bucket width shrinks relative to the run.
        """
        if self.count == 0:
            return 0.0, 0.0, 0
        duration = self.last_end_ms
        warmup_index = min(int(self.count * warmup_fraction), self.count - 1)
        if warmup_index <= 0:
            return duration, duration, self.committed
        counts, committed = self._counts, self._committed
        cumulative = 0
        for bucket in range(WINDOW_BUCKETS):
            in_bucket = counts[bucket]
            if cumulative + in_bucket > warmup_index:
                within = (warmup_index + 1 - cumulative) / in_bucket
                warmup_time = (bucket + within) * self._width
                window = duration - warmup_time
                if window <= 0:
                    return duration, duration, self.committed
                tail_committed = sum(committed[bucket + 1:])
                # Pro-rate the boundary bucket's commits past the boundary.
                tail_committed += round(committed[bucket] * (1.0 - within))
                return duration, window, tail_committed
            cumulative += in_bucket
        return duration, duration, self.committed  # pragma: no cover - unreachable

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<CompletionWindow n={self.count} committed={self.committed} "
            f"width={self._width}ms last={self.last_end_ms:.1f}ms>"
        )


_END = itemgetter(0)
_COMMITTED = itemgetter(1)


class CompletionLog(list):
    """Exact-mode completion list, ``(end_ms, committed: bool)`` per entry,
    that carries the warm-up window's counts between :meth:`window` calls.

    A ``list``, so the hot loops' ``append`` stays the inherited C call; a
    window reads only the entries appended since the previous one.  They are
    in end-time order except when a fast-path completion folded into its
    client's next ready event (recorded at ``end + think``) interleaves with
    a general-loop one after a mode switch: the scan that meets one sorts the
    log in place once (stable, on end time) and recounts — the window a
    stable sort of a fresh copy gives, since sorting ``sorted(old) + new``
    equals sorting ``old + new``.
    """

    __slots__ = ("ordered", "_last_end", "_committed", "_cursor", "_cursor_committed")

    def __init__(self) -> None:
        super().__init__()
        self._recount()

    def _recount(self) -> None:
        #: Length of the prefix verified to be in end-time order.
        self.ordered = 0
        self._last_end = -math.inf
        self._committed = 0  # commits in the ordered prefix
        #: Entries at or before the last warm-up time, and their commits.
        #: Moved only by :meth:`window` and reset here after its in-place
        #: re-sort; a new episode builds a fresh log instead of clearing one.
        #: A re-sort that keeps the cursor fails
        #: ``tests/property/test_property_window.py::TestMutationsAreCaught``.
        self._cursor = 0
        self._cursor_committed = 0

    def window(self, warmup_fraction: float) -> tuple[float, float, int]:
        """(duration_ms, window_duration_ms, window_committed): the first
        ``warmup_fraction`` of completions by end time are warm-up, the
        window runs from the warm-up completion's end to the last one and
        counts the commits strictly after the former; a non-positive window
        (a single completion) falls back to the whole run.  Any fraction may
        follow any other: a smaller one recounts the cursor from the start."""
        count = len(self)
        if not count:
            return 0.0, 0.0, 0
        tail = self[self.ordered:]
        if tail:
            ends = list(map(_END, tail))
            if not all(map(le, chain((self._last_end,), ends), ends)):
                self.sort(key=_END)
                self._recount()
                return self.window(warmup_fraction)
            self.ordered = count
            self._last_end = ends[-1]
            self._committed += sum(map(_COMMITTED, tail))
        last_end, committed = self._last_end, self._committed
        warmup_index = min(int(count * warmup_fraction), count - 1)
        warmup_time = self[warmup_index][0] if warmup_index > 0 else 0.0
        window = last_end - warmup_time
        if window <= 0:
            return last_end, last_end, committed
        cursor = bisect_right(self, warmup_time, key=_END)
        start, before = self._cursor, self._cursor_committed
        if cursor < start:  # a smaller fraction than the last call's
            start = before = 0
        before += sum(map(_COMMITTED, self[start:cursor]))
        self._cursor, self._cursor_committed = cursor, before
        return last_end, window, committed - before


__all__ = [
    "TRACKED_QUANTILES",
    "QUANTILE_RTOL",
    "RESERVOIR_SIZE",
    "WINDOW_BUCKETS",
    "LatencySketch",
    "CompletionWindow",
    "CompletionLog",
]
