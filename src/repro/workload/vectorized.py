"""Vectorized arrival-time generation: the million-user scale mode's hot path.

Drawing one inter-arrival gap per event in Python is fine for hundreds of
clients and hopeless for production rates, where a single overload probe
wants millions of arrivals.  This module generates the arrival streams in
numpy batches, equal to the one-gap-at-a-time scalar streams:

* :func:`exponential_gap_batch` draws a block of Poisson-process gaps by
  transplanting the Mersenne-Twister state of the stream's
  :class:`random.Random` into a :class:`numpy.random.RandomState` (both are
  MT19937 with the identical 53-bit double output path, so the uniform draws
  are bit-for-bit the ones the scalar path would make), applying the
  exponential inverse-CDF as one vector operation, and writing the advanced
  generator state back so scalar and vectorized consumption interleave
  freely on one stream.
* :func:`arrival_time_chunks` turns any of the three processes (poisson /
  uniform / bursty) into batches of *absolute* arrival timestamps.  The
  batch prepends the running clock before ``cumsum``, which makes the
  prefix-sum bitwise identical to the scalar ``clock += gap`` accumulation
  (both reduce left to right in float64) across chunk boundaries.
* :func:`vectorized_arrival_times` is the one-shot convenience used by the
  micro-benchmarks and the trace recorder.

Stream-equivalence contract
---------------------------
numpy is a declared dependency, and the vectorized kernel is the *canonical*
gap stream: ``arrival_gaps`` batches through it internally, so
iterator-driven and chunk-driven consumers observe byte-identical arrivals
for the same seed (held by ``tests/workload/test_vectorized.py`` across all
three processes).  The pure-Python Poisson loop kept as a reference in
``tests/workload/reference.py`` consumes the identical uniform sequence and
differs from the kernel only in the last ulp of ``log`` for a ~0.3%
minority of gaps (``math.log`` vs numpy's vectorized log).
"""

from __future__ import annotations

import random
from typing import Iterator

import numpy as _np

from ..errors import WorkloadError

#: Default arrivals per generated batch.  Large enough to amortize the
#: state-transplant and vector-op overhead (~10 µs per batch), small enough
#: that lazily compiled sources never run far ahead of what a session pulls.
DEFAULT_CHUNK = 4096


# ----------------------------------------------------------------------
# Mersenne-Twister state transplanting
# ----------------------------------------------------------------------
def _transplant(rng: random.Random) -> "_np.random.RandomState":
    """A ``RandomState`` positioned exactly where ``rng``'s MT19937 is.

    CPython's :class:`random.Random` and numpy's legacy
    :class:`~numpy.random.RandomState` share the MT19937 core *and* the
    53-bit double construction (``(a << 26 | b) / 2**53``), so a state copy
    makes ``random_sample`` reproduce ``rng.random()`` bit for bit.
    """
    version, internal, _gauss = rng.getstate()
    if version != 3:  # pragma: no cover - CPython has used version 3 since 2.4
        raise WorkloadError(f"unsupported random.Random state version {version}")
    state = _np.random.RandomState()
    state.set_state(("MT19937", _np.array(internal[:-1], dtype=_np.uint32), internal[-1]))
    return state


def _read_back(rng: random.Random, state: "_np.random.RandomState") -> None:
    """Advance ``rng`` to where the transplanted ``state`` has moved."""
    _, keys, pos, _, _ = state.get_state(legacy=True)
    rng.setstate((3, tuple(int(key) for key in keys) + (int(pos),), None))


# ----------------------------------------------------------------------
# Gap batches
# ----------------------------------------------------------------------
def exponential_gap_batch(
    rng: random.Random, mean_ms: float, count: int
) -> "_np.ndarray":
    """``count`` Poisson-process gaps drawn from ``rng``'s own stream.

    Consumes exactly ``count`` uniforms from ``rng`` (its state advances as
    if ``rng.random()`` had been called ``count`` times) and applies the
    inverse CDF as the scalar reference: ``-mean_ms * log(1 - u)``.
    """
    if count < 0:
        raise WorkloadError("count must be non-negative")
    state = _transplant(rng)
    uniforms = state.random_sample(count)
    _read_back(rng, state)
    return -mean_ms * _np.log(1.0 - uniforms)


def _bursty_gap_batch(
    index: int, count: int, intra: float, pause: float, burst_size: int
) -> "_np.ndarray":
    """Gaps ``index .. index+count`` of the bursty cycle (no RNG involved).

    The scalar pattern is ``intra`` at index 0 (the stream opens mid-burst)
    and ``pause`` at every later index divisible by ``burst_size``.
    """
    gaps = _np.full(count, intra)
    first_cycle = -(-index // burst_size) * burst_size  # first multiple >= index
    if first_cycle == index and index == 0:
        first_cycle = burst_size
    gaps[first_cycle - index::burst_size] = pause
    return gaps


def arrival_time_chunks(
    process: str,
    rate_per_sec: float,
    *,
    seed: int = 0,
    burst_size: int = 8,
    chunk_size: int = DEFAULT_CHUNK,
    limit: int | None = None,
    start_clock_ms: float = 0.0,
) -> Iterator[list[float]]:
    """Batches of absolute arrival times (ms) for one arrival process.

    Yields lists of ``chunk_size`` monotonically increasing timestamps
    (the final batch may be shorter when ``limit`` bounds the stream;
    without a limit the iterator is infinite).  Timestamps are bitwise
    identical to accumulating :func:`repro.workload.sources.arrival_gaps`
    one gap at a time: each batch seeds its prefix sum with the running
    clock so the float64 additions happen in the exact scalar order.
    """
    if rate_per_sec <= 0:
        raise WorkloadError(f"rate_per_sec must be positive, got {rate_per_sec!r}")
    if chunk_size < 1:
        raise WorkloadError(f"chunk_size must be >= 1, got {chunk_size!r}")
    if limit is not None and limit < 0:
        raise WorkloadError(f"limit must be non-negative or None, got {limit!r}")
    mean_ms = 1000.0 / rate_per_sec
    if process == "poisson":
        rng = random.Random(seed)
        make_gaps = lambda index, count: exponential_gap_batch(rng, mean_ms, count)
    elif process == "uniform":
        make_gaps = lambda index, count: _np.full(count, mean_ms)
    elif process == "bursty":
        if burst_size < 1:
            raise WorkloadError(f"burst_size must be >= 1, got {burst_size!r}")
        intra = mean_ms / 4.0
        pause = burst_size * mean_ms - (burst_size - 1) * intra
        make_gaps = lambda index, count: _bursty_gap_batch(
            index, count, intra, pause, burst_size
        )
    else:
        raise WorkloadError(
            f"unknown arrival process {process!r}; available: poisson, uniform, bursty"
        )

    def stream() -> Iterator[list[float]]:
        clock = start_clock_ms
        emitted = 0
        scratch = _np.empty(chunk_size + 1)
        while limit is None or emitted < limit:
            count = chunk_size if limit is None else min(chunk_size, limit - emitted)
            buffer = scratch if count == chunk_size else _np.empty(count + 1)
            # Seeding the prefix sum with the clock keeps every addition in
            # the scalar `clock += gap` order, so chunk boundaries never
            # perturb a single bit of the emitted timestamps.
            buffer[0] = clock
            buffer[1:] = make_gaps(emitted, count)
            times = _np.cumsum(buffer)
            clock = float(times[-1])
            emitted += count
            yield times[1:].tolist()

    return stream()


def vectorized_arrival_times(
    process: str,
    rate_per_sec: float,
    count: int,
    *,
    seed: int = 0,
    burst_size: int = 8,
) -> list[float]:
    """The first ``count`` absolute arrival times (ms), in one batch.

    The vectorized equivalent of :func:`repro.workload.sources.arrival_times`
    (byte-identical output); used by the 1M-arrival micro-benchmark and by
    trace recording at production rates.
    """
    if count < 0:
        raise WorkloadError("count must be non-negative")
    if count == 0:
        return []
    for chunk in arrival_time_chunks(
        process, rate_per_sec, seed=seed, burst_size=burst_size,
        chunk_size=count, limit=count,
    ):
        return chunk
    return []  # pragma: no cover - limit=count always yields one chunk


__all__ = [
    "DEFAULT_CHUNK",
    "exponential_gap_batch",
    "arrival_time_chunks",
    "vectorized_arrival_times",
]
