"""Batched arrival-time generation: the million-user scale mode's hot path.

Drawing one inter-arrival gap per event through a generator is fine for
hundreds of clients and hopeless for production rates, where a single
overload probe wants millions of arrivals.  This module generates the
arrival streams in batches, equal to the one-gap-at-a-time scalar streams:

* :func:`uniform_batch` draws a block of uniforms with one ``getrandbits``
  call on the stream's own :class:`random.Random`, equal in values and end
  state to as many ``rng.random()`` calls, so scalar and batched
  consumption interleave freely on one stream.
* :func:`exponential_gap_batch` turns those uniforms into Poisson-process
  gaps with the exponential inverse-CDF, one numpy ``log`` over the block.
* :func:`arrival_time_chunks` turns any of the three processes (poisson /
  uniform / bursty) into batches of *absolute* arrival timestamps.  Uniform
  and bursty gaps are constants laid out as Python lists; every batch
  accumulates its gaps from the running clock (``itertools.accumulate``),
  the scalar ``clock += gap`` order, so the timestamps are bitwise
  identical to the scalar accumulation across chunk boundaries.
* :func:`vectorized_arrival_times` is the one-shot convenience used by the
  micro-benchmarks and the trace recorder.

Stream-equivalence contract
---------------------------
The batched kernel is the *canonical* gap stream: iterator-driven and
chunk-driven consumers observe byte-identical arrivals for the same seed
(held by ``tests/workload/test_vectorized.py`` across all three
processes).  The pure-Python Poisson loop kept as a reference in
``tests/workload/reference.py`` consumes the identical uniform sequence and
differs from the kernel only in the last ulp of ``log`` for a ~0.3%
minority of gaps (``math.log`` vs numpy's vectorized log).

Only the Poisson process uses numpy (its ``log`` and the word decode
around it), and nothing here imports ``numpy.random``.  numpy loads in
:func:`arrival_time_chunks`' Poisson branch, which ``OpenLoopSource.compile``
reaches at ``Cluster.open``.  The import must not move into the generator
that :func:`arrival_time_chunks` returns: there it would run at the first
``run_for``, inside a benchmark's measured phase.
"""

from __future__ import annotations

import random
from itertools import accumulate
from typing import TYPE_CHECKING, Iterator

from ..errors import WorkloadError

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy

#: Default arrivals per generated batch.  Large enough to amortize the
#: per-batch ``getrandbits`` call and array set-up, small enough that lazily
#: compiled sources never run far ahead of what a session pulls.
DEFAULT_CHUNK = 4096

#: ``random()``'s scale: a 53-bit integer times 2**-53 lands in [0, 1).
_TWO_POW_MINUS_53 = 1.0 / 9007199254740992.0


# ----------------------------------------------------------------------
# Gap batches
# ----------------------------------------------------------------------
def uniform_batch(rng: random.Random, count: int) -> "numpy.ndarray":
    """``count`` uniforms in [0, 1), equal to ``count`` calls of ``rng.random()``.

    CPython's ``random()`` takes two 32-bit Mersenne-Twister words ``a, b``
    and returns ``((a >> 5) * 2**26 + (b >> 6)) * 2**-53``.
    ``getrandbits(64 * count)`` draws the same ``2 * count`` words from the
    same state and packs them least-significant first, so reading its
    little-endian bytes as ``<u4`` gives ``a, b, a, b, ...`` in draw order.
    Every step below is exact in float64, and ``rng`` ends where ``count``
    ``random()`` calls would leave it.
    """
    import numpy as np

    words = np.frombuffer(
        rng.getrandbits(64 * count).to_bytes(8 * count, "little"), dtype="<u4"
    )
    return ((words[0::2] >> 5) * 67108864.0 + (words[1::2] >> 6)) * _TWO_POW_MINUS_53


def exponential_gap_batch(
    rng: random.Random, mean_ms: float, count: int
) -> "numpy.ndarray":
    """``count`` Poisson-process gaps drawn from ``rng``'s own stream.

    Consumes exactly ``count`` uniforms from ``rng`` (its state advances as
    if ``rng.random()`` had been called ``count`` times) and applies the
    inverse CDF as the scalar reference: ``-mean_ms * log(1 - u)``.
    """
    if count < 0:
        raise WorkloadError("count must be non-negative")
    import numpy as np

    return -mean_ms * np.log(1.0 - uniform_batch(rng, count))


def _bursty_gap_batch(
    index: int, count: int, intra: float, pause: float, burst_size: int
) -> list[float]:
    """Gaps ``index .. index+count`` of the bursty cycle (no RNG involved).

    The scalar pattern is ``intra`` at index 0 (the stream opens mid-burst)
    and ``pause`` at every later index divisible by ``burst_size``.
    """
    gaps = [intra] * count
    # The first multiple of burst_size that is >= index and > 0.
    start = max(-(-index // burst_size), 1) * burst_size - index
    gaps[start::burst_size] = [pause] * len(range(start, count, burst_size))
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
    identical to accumulating the gap stream one gap at a time: each batch
    starts its prefix sum at the running clock so the float64 additions
    happen in the exact scalar order.
    """
    if rate_per_sec <= 0:
        raise WorkloadError(f"rate_per_sec must be positive, got {rate_per_sec!r}")
    if chunk_size < 1:
        raise WorkloadError(f"chunk_size must be >= 1, got {chunk_size!r}")
    if limit is not None and limit < 0:
        raise WorkloadError(f"limit must be non-negative or None, got {limit!r}")
    mean_ms = 1000.0 / rate_per_sec
    if process == "poisson":
        # numpy loads here, when the source compiles at Cluster.open, and
        # not at the stream's first batch: that runs in a measured run_for.
        import numpy  # noqa: F401

        rng = random.Random(seed)
        make_gaps = lambda index, count: exponential_gap_batch(rng, mean_ms, count).tolist()
    elif process == "uniform":
        make_gaps = lambda index, count: [mean_ms] * count
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
        while limit is None or emitted < limit:
            count = chunk_size if limit is None else min(chunk_size, limit - emitted)
            # Accumulating from the clock keeps every addition in the scalar
            # `clock += gap` order, so chunk boundaries never perturb a bit
            # of the emitted timestamps.
            times = list(accumulate(make_gaps(emitted, count), initial=clock))
            clock = times[-1]
            emitted += count
            del times[0]
            yield times

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
    "uniform_batch",
    "exponential_gap_batch",
    "arrival_time_chunks",
    "vectorized_arrival_times",
]
