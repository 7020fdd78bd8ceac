"""Whole-log warm-up window: the oracle for ``repro.sim.sketch.CompletionLog``.

``reference_window`` is ``ClusterSimulator._finalize_window``'s exact-mode
body as it stood before the window was carried between snapshots: one order
scan over every completion, a stable sorted copy if the scan finds an entry
out of order, then whole-log sums.  ``CompletionLog.window`` must return the
same triple, bit for bit, after any sequence of appends and snapshots
(``tests/property/test_property_window.py``).  The empty case returns the
``SimulationResult`` defaults the old body left in place.
"""

from __future__ import annotations


def reference_window(
    completions: list[tuple[float, bool]], warmup_fraction: float
) -> tuple[float, float, int]:
    """(duration_ms, window_duration_ms, window_committed) of ``completions``."""
    if not completions:
        return 0.0, 0.0, 0
    previous = 0.0
    for entry in completions:
        end = entry[0]
        if end < previous:
            completions = sorted(completions, key=lambda c: c[0])
            break
        previous = end
    last_end = completions[-1][0]
    warmup_index = min(int(len(completions) * warmup_fraction), len(completions) - 1)
    warmup_time = completions[warmup_index][0] if warmup_index > 0 else 0.0
    window = last_end - warmup_time
    if window <= 0:
        # Degenerate (single transaction): fall back to the full run.
        return last_end, last_end, sum(1 for _, committed in completions if committed)
    return last_end, window, sum(
        1 for end, committed in completions if committed and end > warmup_time
    )
