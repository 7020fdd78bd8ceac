"""The pure-Python arrival streams: the reference the vectorized kernel meets.

One gap at a time, nothing batched: a Poisson gap is ``-mean * log(1 - u)``
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
from typing import Iterator

from repro.workload import arrival_gaps
from repro.workload.rng import WorkloadRandom


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
