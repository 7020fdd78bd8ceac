"""Loop-form P² estimator: the oracle for ``repro.sim.sketch._P2Quantile``.

``add`` / ``_parabolic`` / ``_linear`` are the estimator's update exactly as
the sketch module carried it before the update was written out as
straight-line code over the five markers.  The production class must stay
bit-for-bit equal to this one after every observation
(``tests/property/test_property_sketch.py``), and a ``LatencySketch`` built
over this class must serialize to the same bytes.
"""

from __future__ import annotations

from bisect import insort


class LoopP2Quantile:
    """Jain & Chlamtac's P² streaming quantile estimator (one quantile)."""

    __slots__ = ("q", "heights", "positions", "desired", "increments", "count")

    def __init__(self, q: float) -> None:
        self.q = q
        self.heights: list[float] = []
        self.positions = [1.0, 2.0, 3.0, 4.0, 5.0]
        self.desired = [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0]
        self.increments = [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0]
        self.count = 0

    def add(self, x: float) -> None:
        self.count += 1
        heights = self.heights
        if self.count <= 5:
            insort(heights, x)
            return
        positions = self.positions
        # Locate the cell containing x and clamp the extreme markers.
        if x < heights[0]:
            heights[0] = x
            cell = 0
        elif x >= heights[4]:
            heights[4] = x
            cell = 3
        else:
            cell = 0
            while cell < 3 and x >= heights[cell + 1]:
                cell += 1
        for index in range(cell + 1, 5):
            positions[index] += 1.0
        desired = self.desired
        increments = self.increments
        for index in range(5):
            desired[index] += increments[index]
        # Adjust the three interior markers toward their desired positions.
        for index in range(1, 4):
            delta = desired[index] - positions[index]
            if (delta >= 1.0 and positions[index + 1] - positions[index] > 1.0) or (
                delta <= -1.0 and positions[index - 1] - positions[index] < -1.0
            ):
                step = 1.0 if delta >= 1.0 else -1.0
                candidate = self._parabolic(index, step)
                if heights[index - 1] < candidate < heights[index + 1]:
                    heights[index] = candidate
                else:
                    heights[index] = self._linear(index, step)
                positions[index] += step

    def _parabolic(self, i: int, step: float) -> float:
        h, n = self.heights, self.positions
        return h[i] + step / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + step) * (h[i + 1] - h[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - step) * (h[i] - h[i - 1]) / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, step: float) -> float:
        h, n = self.heights, self.positions
        j = i + int(step)
        return h[i] + step * (h[j] - h[i]) / (n[j] - n[i])

    def value(self) -> float:
        heights = self.heights
        if not heights:
            return 0.0
        if self.count <= 5:
            rank = max(0, -(-self.count * int(self.q * 100) // 100) - 1)
            return heights[min(rank, len(heights) - 1)]
        return heights[2]
