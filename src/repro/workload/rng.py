"""Deterministic random-number helpers for workload generation.

All benchmark generators draw from a :class:`WorkloadRandom`, a thin wrapper
around :class:`random.Random` that adds the distributions OLTP benchmarks
need (TPC-C's NURand, weighted choices) while guaranteeing that
the same seed always produces the same workload — a requirement for
reproducible traces and experiments.

The uniform draws call ``getrandbits`` directly instead of going through
``randrange`` / ``choice``: an integer in a range of ``n`` values takes
``k = n.bit_length()`` bits and is redrawn while it is ``>= n``, a string
character is such a draw over its alphabet, so every value and the
generator's end state are what CPython's ``randint`` / ``choice`` give on
their ``getrandbits`` path (``tests/workload/test_rng.py::TestSameStream``
pins it).  Only the frames between the caller and the generator are gone.
"""

from __future__ import annotations

import random
import string
from typing import Sequence, TypeVar

from ..errors import WorkloadError

T = TypeVar("T")

_ALPHANUMERIC = string.ascii_uppercase + string.digits


class WorkloadRandom:
    """Seeded random source with OLTP-benchmark distributions."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._random = random.Random(seed)
        self._getrandbits = self._random.getrandbits
        # TPC-C's NURand constant; fixed so runs are reproducible.
        self._c_value = 123
        #: The mix tuple :meth:`weighted_choice` last summed, and its total.
        self._mix: tuple | None = None
        self._mix_total = 0.0

    # ------------------------------------------------------------------
    # Uniform draws
    # ------------------------------------------------------------------
    def integer(self, low: int, high: int) -> int:
        """Uniform integer in ``[low, high]`` inclusive."""
        if low > high:
            raise WorkloadError(f"invalid range [{low}, {high}]")
        # randint's draws: n == 1 still takes one bit, as randrange does.
        n = high - low + 1
        k = n.bit_length()
        r = self._getrandbits(k)
        while r >= n:
            r = self._getrandbits(k)
        return low + r

    def floating(self, low: float, high: float) -> float:
        return self._random.uniform(low, high)

    def probability(self, p: float) -> bool:
        """Return True with probability ``p``."""
        if not 0.0 <= p <= 1.0:
            raise WorkloadError(f"probability {p} outside [0, 1]")
        return self._random.random() < p

    def choice(self, items: Sequence[T]) -> T:
        if not items:
            raise WorkloadError("cannot choose from an empty sequence")
        # random.choice draws _randbelow(len(items)): the same bits.
        return items[self.integer(0, len(items) - 1)]

    def sample(self, items: Sequence[T], count: int) -> list[T]:
        return self._random.sample(list(items), count)

    # ------------------------------------------------------------------
    # Distributions
    # ------------------------------------------------------------------
    def weighted_choice(self, weighted_items: Sequence[tuple[T, float]]) -> T:
        """Choose an item with probability proportional to its weight."""
        if weighted_items is self._mix:
            total = self._mix_total
        else:
            if not weighted_items:
                raise WorkloadError("cannot choose from an empty weighted sequence")
            total = sum(weight for _, weight in weighted_items)
            if total <= 0:
                raise WorkloadError("weights must sum to a positive value")
            # A generator draws from one mix for its whole life; only a
            # tuple is remembered (a list could change under the same id).
            if type(weighted_items) is tuple:
                self._mix, self._mix_total = weighted_items, total
        threshold = self._random.random() * total
        accumulated = 0.0
        for item, weight in weighted_items:
            accumulated += weight
            if threshold <= accumulated:
                return item
        return weighted_items[-1][0]

    def nurand(self, a: int, low: int, high: int) -> int:
        """TPC-C non-uniform random distribution NURand(A, x, y)."""
        value = (
            (self.integer(0, a) | self.integer(low, high)) + self._c_value
        ) % (high - low + 1) + low
        return value

    # ------------------------------------------------------------------
    # Strings
    # ------------------------------------------------------------------
    def alphanumeric(self, low: int, high: int | None = None) -> str:
        """Random alphanumeric string with length in ``[low, high]``."""
        length = low if high is None else self.integer(low, high)
        return self._string(_ALPHANUMERIC, length)

    def numeric_string(self, length: int) -> str:
        return self._string(string.digits, length)

    def _string(self, alphabet: str, length: int) -> str:
        """``length`` characters, each drawn as ``choice(alphabet)`` draws it."""
        getrandbits = self._getrandbits
        n = len(alphabet)
        k = n.bit_length()
        chars = []
        for _ in range(length):
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            chars.append(alphabet[r])
        return "".join(chars)
