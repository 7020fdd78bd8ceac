"""The pure-Python arrival streams: the reference the vectorized kernel meets.

``arrival_gaps`` is the iterator form of the three arrival processes (its
Poisson gaps batch through the vectorized kernel).  ``scalar_gaps`` is one
gap at a time, nothing batched: a Poisson gap is ``-mean * log(1 - u)``
with ``math.log`` over the stream's own uniform draws, and the arrival times
accumulate the gaps with ``clock += gap``.  The kernel
(:mod:`repro.workload.vectorized`) consumes the identical uniforms and
differs only in the last ulp of ``log`` for a small minority of Poisson gaps;
uniform and bursty gaps are exact constants, so their times are bitwise
equal.  Compared by ``tests/workload/test_vectorized.py`` (gaps to one ulp)
and timed against the kernel by
``benchmarks/bench_simulator.py::test_arrival_generation_micro``.
"""

from __future__ import annotations

import math
import random
from typing import Iterator

from repro.errors import WorkloadError
from repro.workload import vectorized as _vectorized
from repro.workload.rng import WorkloadRandom
from repro.workload.sources import ARRIVAL_PROCESSES

#: Gaps drawn per batch when ``arrival_gaps`` routes Poisson gaps through
#: the vectorized kernel.
_GAP_BATCH = _vectorized.DEFAULT_CHUNK


def arrival_gaps(
    process: str,
    rate_per_sec: float,
    *,
    seed: int = 0,
    burst_size: int = 8,
) -> Iterator[float]:
    """Infinite inter-arrival gaps (ms) for one arrival process.

    All three processes preserve the long-run rate ``rate_per_sec`` and are
    fully determined by ``seed``.  Poisson gaps are drawn in batches through
    the vectorized kernel (the canonical stream), so this iterator form and
    the chunked consumers observe byte-identical gaps.
    """
    if rate_per_sec <= 0:
        raise WorkloadError(f"rate_per_sec must be positive, got {rate_per_sec!r}")
    mean_ms = 1000.0 / rate_per_sec
    if process == "uniform":
        def uniform() -> Iterator[float]:
            while True:
                yield mean_ms
        return uniform()
    if process == "poisson":
        core = random.Random(seed)
        def poisson() -> Iterator[float]:
            while True:
                yield from _vectorized.exponential_gap_batch(
                    core, mean_ms, _GAP_BATCH
                ).tolist()
        return poisson()
    if process == "bursty":
        # burst_size arrivals packed at 4x the rate, then an idle gap that
        # restores the long-run rate: one cycle spans burst_size * mean_ms.
        intra = mean_ms / 4.0
        pause = burst_size * mean_ms - (burst_size - 1) * intra
        def bursty() -> Iterator[float]:
            first = True
            while True:
                yield pause if not first else intra
                first = False
                for _ in range(burst_size - 1):
                    yield intra
        return bursty()
    raise WorkloadError(
        f"unknown arrival process {process!r}; available: {', '.join(ARRIVAL_PROCESSES)}"
    )


def scalar_gaps(process: str, rate_per_sec: float, *, seed: int = 0,
                burst_size: int = 8) -> Iterator[float]:
    """Inter-arrival gaps (ms); Poisson ones drawn one at a time."""
    if process != "poisson":
        return arrival_gaps(process, rate_per_sec, seed=seed, burst_size=burst_size)
    mean_ms = 1000.0 / rate_per_sec
    rng = WorkloadRandom(seed)

    def poisson() -> Iterator[float]:
        while True:
            # floating() draws from [0, 1); log(1-u) is always finite.
            yield -mean_ms * math.log(1.0 - rng.floating(0.0, 1.0))

    return poisson()


def scalar_arrival_times(process: str, rate_per_sec: float, count: int, *,
                         seed: int = 0, burst_size: int = 8) -> list[float]:
    """The first ``count`` absolute arrival times (ms), ``clock += gap``."""
    times: list[float] = []
    clock = 0.0
    gaps = scalar_gaps(process, rate_per_sec, seed=seed, burst_size=burst_size)
    for _ in range(count):
        clock += next(gaps)
        times.append(clock)
    return times
