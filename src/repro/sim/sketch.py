"""Bounded-memory metric accumulators for the million-user scale mode.

Exact mode stores every completed latency in a Python list — perfect for
thousands of transactions, fatal for overload studies where a single probe
completes millions.  ``metrics_mode="streaming"`` swaps those lists for the
two accumulators here, whose memory grows at most with the logarithm of the
observed range, never with the number of observations:

* :class:`LatencySketch` — count / sum / min / max exactly, plus a
  DDSketch-style relative-error histogram: each positive value adds one to
  the bucket ``ceil(log(x) / log(γ))`` with ``γ = (1+α)/(1−α)``.  Every
  quantile is the nearest-rank bucket's midpoint, so it is within
  :data:`RELATIVE_ACCURACY` (α) of the exact nearest-rank value by
  construction, whatever the stream's shape.  Two sketches merge by adding
  bucket counts, and the dict form carries the buckets, so a round trip
  restores an equal, live sketch.
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
from bisect import bisect_right
from itertools import chain
from math import ceil, log
from operator import itemgetter, le
from typing import Iterable, Mapping

from ..errors import SimulationError

#: Relative accuracy α of every streaming quantile: the estimate lies within
#: ``α × exact`` of the exact nearest-rank value.
RELATIVE_ACCURACY = 0.005

_GAMMA = (1.0 + RELATIVE_ACCURACY) / (1.0 - RELATIVE_ACCURACY)
_LOG_GAMMA = log(_GAMMA)
#: Bucket ``i`` holds ``(γ^(i-1), γ^i]``; its midpoint is ``γ^i × _MIDPOINT``.
_MIDPOINT = 2.0 / (_GAMMA + 1.0)

#: Rank grid over which the e2e harness (``benchmarks/e2e/run.py``) searches
#: a sketch's quantiles for the share of completions under a latency limit.
RESERVOIR_SIZE = 2048

#: Bucket count of the completion-time histogram.
WINDOW_BUCKETS = 4096


class LatencySketch:
    """Latency summary with exact moments and α-accurate quantiles.

    ``count``/``total``/``min``/``max`` are exact.  Positive values are
    counted in log-spaced buckets (values ≤ 0 in one zero bucket, read as
    0), and :meth:`quantile` returns the nearest-rank bucket's midpoint
    clamped to ``[min, max]`` — within :data:`RELATIVE_ACCURACY` of exact.

    ``append`` aliases ``observe`` so list-shaped accumulator call sites
    work unchanged.
    """

    __slots__ = ("count", "total", "_min", "_max", "_zeros", "_buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self._min = 0.0
        self._max = 0.0
        self._zeros = 0
        self._buckets: dict[int, int] = {}

    # ------------------------------------------------------------------
    def observe(self, value_ms: float) -> None:
        if self.count == 0:
            self._min = self._max = value_ms
        elif value_ms < self._min:
            self._min = value_ms
        elif value_ms > self._max:
            self._max = value_ms
        self.count += 1
        self.total += value_ms
        if value_ms > 0.0:
            key = ceil(log(value_ms) / _LOG_GAMMA)
            buckets = self._buckets
            buckets[key] = buckets.get(key, 0) + 1
        else:
            self._zeros += 1

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
        rank = max(0, ceil(self.count * q) - 1)
        seen = self._zeros
        estimate = 0.0
        if rank >= seen:
            for key in sorted(self._buckets):
                seen += self._buckets[key]
                if rank < seen:
                    estimate = _GAMMA ** key * _MIDPOINT
                    break
        return min(max(estimate, self._min), self._max)

    # ------------------------------------------------------------------
    def copy(self) -> "LatencySketch":
        """An independent snapshot (the live sketch keeps accumulating)."""
        twin = LatencySketch.__new__(LatencySketch)
        twin.count = self.count
        twin.total = self.total
        twin._min = self._min
        twin._max = self._max
        twin._zeros = self._zeros
        twin._buckets = dict(self._buckets)
        return twin

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Exact dict form: the moments, the zero bucket, and every bucket
        as ``[index, count]`` in index order.  :meth:`from_dict` restores an
        equal sketch that keeps accepting observations."""
        return {
            "count": self.count,
            "total_ms": self.total,
            "min_ms": self._min,
            "max_ms": self._max,
            "relative_accuracy": RELATIVE_ACCURACY,
            "zeros": self._zeros,
            "buckets": [[key, self._buckets[key]] for key in sorted(self._buckets)],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "LatencySketch":
        sketch = cls()
        try:
            if float(data["relative_accuracy"]) != RELATIVE_ACCURACY:
                raise ValueError("recorded at another relative accuracy")
            sketch.count = int(data["count"])
            sketch.total = float(data["total_ms"])
            sketch._min = float(data["min_ms"])
            sketch._max = float(data["max_ms"])
            sketch._zeros = int(data["zeros"])
            sketch._buckets = {int(key): int(n) for key, n in data["buckets"]}
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
    "RELATIVE_ACCURACY",
    "RESERVOIR_SIZE",
    "WINDOW_BUCKETS",
    "LatencySketch",
    "CompletionWindow",
    "CompletionLog",
]
