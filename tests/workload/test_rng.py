"""Tests for the deterministic workload RNG."""

import random
import string

import pytest

from repro.errors import WorkloadError
from repro.workload import WorkloadRandom


class TestDeterminism:
    def test_same_seed_same_sequence(self):
        a = WorkloadRandom(42)
        b = WorkloadRandom(42)
        assert [a.integer(0, 100) for _ in range(20)] == [b.integer(0, 100) for _ in range(20)]

    def test_different_seeds_differ(self):
        a = WorkloadRandom(1)
        b = WorkloadRandom(2)
        assert [a.integer(0, 1000) for _ in range(10)] != [b.integer(0, 1000) for _ in range(10)]


class TestDistributions:
    def test_integer_bounds(self):
        rng = WorkloadRandom(0)
        values = [rng.integer(3, 7) for _ in range(200)]
        assert min(values) >= 3 and max(values) <= 7
        with pytest.raises(WorkloadError):
            rng.integer(5, 1)

    def test_probability_validation(self):
        rng = WorkloadRandom(0)
        assert not rng.probability(0.0)
        assert rng.probability(1.0)
        with pytest.raises(WorkloadError):
            rng.probability(1.5)

    def test_weighted_choice_respects_weights(self):
        rng = WorkloadRandom(5)
        counts = {"a": 0, "b": 0}
        for _ in range(2000):
            counts[rng.weighted_choice((("a", 0.9), ("b", 0.1)))] += 1
        assert counts["a"] > counts["b"] * 3
        with pytest.raises(WorkloadError):
            rng.weighted_choice(())

    def test_nurand_in_range(self):
        rng = WorkloadRandom(1)
        values = [rng.nurand(255, 0, 99) for _ in range(500)]
        assert min(values) >= 0 and max(values) <= 99

    def test_string_helpers(self):
        rng = WorkloadRandom(3)
        assert len(rng.numeric_string(15)) == 15
        assert rng.numeric_string(5).isdigit()
        value = rng.alphanumeric(3, 6)
        assert 3 <= len(value) <= 6


class TestSameStream:
    """The cached sums and the direct ``getrandbits`` draws draw what the
    stdlib calls drew: the reference is the stdlib generator driven the old
    way, and both generators must end in the same state."""

    def test_integer_draws_what_randint_draws(self):
        rng, reference = WorkloadRandom(11), random.Random(11)
        for low, high in [(0, 0), (1, 4), (0, 99_999), (-5, 5), (0, 2**40)] * 50:
            assert rng.integer(low, high) == reference.randint(low, high)
        assert rng._random.getstate() == reference.getstate()

    @pytest.mark.parametrize("seed", [0, 1, 7, 12345])
    def test_strings_draw_what_choice_draws(self, seed):
        alphanumeric = string.ascii_uppercase + string.digits
        rng, reference = WorkloadRandom(seed), random.Random(seed)
        for length in [0, 1, 3, 5, 15] * 20:
            assert rng.alphanumeric(length) == "".join(
                reference.choice(alphanumeric) for _ in range(length)
            )
            assert rng.numeric_string(length) == "".join(
                reference.choice(string.digits) for _ in range(length)
            )
        for low, high in [(0, 0), (3, 5), (1, 15)] * 20:
            length = reference.randint(low, high)
            assert rng.alphanumeric(low, high) == "".join(
                reference.choice(alphanumeric) for _ in range(length)
            )
        assert rng._random.getstate() == reference.getstate()

    def test_choice_draws_what_choice_draws(self):
        rng, reference = WorkloadRandom(5), random.Random(5)
        for items in [[0, 8, 16], "a", (1, 2), list(range(37))] * 50:
            assert rng.choice(items) == reference.choice(items)
        assert rng._random.getstate() == reference.getstate()
        with pytest.raises(WorkloadError):
            rng.choice([])

    def test_weighted_choice_draws_the_same_with_the_total_remembered(self):
        mix = (("a", 0.35), ("b", 0.35), ("c", 0.1), ("d", 0.2))
        rng, reference = WorkloadRandom(7), random.Random(7)
        total = sum(weight for _, weight in mix)
        for _ in range(500):
            threshold, accumulated = reference.random() * total, 0.0
            for item, weight in mix:
                accumulated += weight
                if threshold <= accumulated:
                    break
            assert rng.weighted_choice(mix) == item
        # Another mix, then the first again; a list is summed on every draw.
        other = [("x", 1.0), ("y", 3.0)]
        assert rng.weighted_choice(other) in ("x", "y")
        other[1] = ("y", 0.0)
        assert {rng.weighted_choice(other) for _ in range(50)} == {"x"}
        assert rng.weighted_choice(mix) in "abcd"
        with pytest.raises(WorkloadError):
            rng.weighted_choice((("a", 0.0),))
