"""Reference kernel and the windowed host-time estimator.

Host speed on a shared runner drifts by tens of percent between and within
processes, so a raw wall-clock rate measures the neighbour as much as the
program.  The benchmark therefore interleaves a fixed pure-builtins kernel
with the measured work and reports host time in *reference-seconds*: wall
time divided by how slow the kernel ran beside it, scaled by the kernel's
pinned cost (``calib_ref_s`` in ``protocol.json``) so the numbers read as
seconds on the class of host the benchmark was defined on.
"""

from __future__ import annotations

import statistics
import time

#: Iterations of the reference kernel.  Part of the metric definitions:
#: changing it redefines every ``*_ref_s`` number.
KERNEL_ITERATIONS = 20_000


def kernel(iterations: int = KERNEL_ITERATIONS) -> int:
    """Dict store + dict lookup + int add, the interpreter work the
    simulator's hot loops are made of."""
    table: dict[int, int] = {}
    total = 0
    for i in range(iterations):
        table[i & 1023] = i
        total += table[i & 511 if i > 511 else 0]
    return total


def kernel_wall(samples: int = 1) -> float:
    """Wall seconds of one kernel run; the median of ``samples`` back-to-back
    runs, so a single preemption inside the short kernel cannot pose as a
    slow host."""
    clock = time.perf_counter
    walls = []
    for _ in range(samples):
        started = clock()
        kernel()
        walls.append(clock() - started)
    return statistics.median(walls)


def reference_seconds(
    segment_walls: list[float],
    kernel_walls: list[float],
    *,
    window: int,
    calib_ref_s: float,
) -> float:
    """Kernel-normalised cost of ``segment_walls``.

    ``kernel_walls`` holds one sample taken before the first segment and one
    after every segment.  Each window of ``window`` consecutive segments is
    charged ``sum(segment walls) / mean(the window's kernel walls)``, the
    mean spanning the sample before the window's first segment through the
    one after its last.  Ratio-of-sums per window is deliberate: a
    per-segment ratio is biased whenever a preemption lands in the long
    segment and misses the short kernel beside it.
    """
    if len(kernel_walls) != len(segment_walls) + 1:
        raise ValueError(
            f"need one kernel wall per segment plus one, got {len(kernel_walls)} "
            f"for {len(segment_walls)} segments"
        )
    if window < 1:
        raise ValueError(f"window must be at least 1, got {window!r}")
    cost = 0.0
    for first in range(0, len(segment_walls), window):
        segments = segment_walls[first:first + window]
        kernels = kernel_walls[first:first + len(segments) + 1]
        cost += sum(segments) / statistics.fmean(kernels)
    return cost * calib_ref_s


def p90_over_p10(kernel_walls: list[float]) -> float:
    """Spread of the kernel samples: how unsteady the host was."""
    ordered = sorted(kernel_walls)
    last = len(ordered) - 1
    return ordered[round(0.9 * last)] / ordered[round(0.1 * last)]
