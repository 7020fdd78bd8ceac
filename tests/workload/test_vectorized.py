"""Scale-mode workload tests: vectorized arrivals, chunked streams, cohorts.

Holds the contracts the million-user scale mode leans on:

* **stream equivalence** — the vectorized arrival kernel, the chunked
  iterator and the one-gap-at-a-time accumulation of ``arrival_gaps``
  produce byte-identical timestamps for every arrival process and seed (the
  kernel *is* the canonical Poisson stream);
* the pure-Python reference (``tests/workload/reference.py``) consumes the
  identical uniform draws and matches the kernel to within one ulp of the
  log (bitwise for the deterministic uniform/bursty processes);
* :class:`~repro.workload.sources.CompiledSource` batch consumption
  (``take`` / ``take_until`` over chunked streams) agrees with per-element
  ``peek`` / ``pop``;
* :class:`~repro.workload.sources.Cohort` /
  :class:`~repro.workload.sources.ClientCohortSource` validation,
  serialization and compilation (one merged stream per population,
  O(#cohorts) state).
"""

from __future__ import annotations

import math

import pytest

from repro.errors import WorkloadError
from repro.types import ProcedureRequest
from repro.workload import (
    ClientCohortSource,
    Cohort,
    OpenLoopSource,
    WorkloadSource,
    arrival_gaps,
    arrival_times,
)
from repro.workload import vectorized as vz
from repro.workload.sources import CompileContext, CompiledSource, Arrival
from tests.workload.reference import scalar_arrival_times, scalar_gaps

PROCESSES = ("poisson", "uniform", "bursty")
SEEDS = (0, 7, 12345)


# Stub benchmark: sources draw requests without a database (same pattern as
# test_sources.py).
class _StubGenerator:
    benchmark = "stub"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._count = 0

    def next_request(self) -> ProcedureRequest:
        self._count += 1
        return ProcedureRequest("proc", (self.seed, self._count))


class _StubBundle:
    @staticmethod
    def make_generator(catalog, config, rng) -> _StubGenerator:
        return _StubGenerator(rng.seed)


class _StubBenchmark:
    bundle = _StubBundle()
    catalog = None
    config = None


CTX = CompileContext(_StubBenchmark(), seed=0)


# ----------------------------------------------------------------------
# Stream equivalence: kernel == chunked == scalar accumulation
# ----------------------------------------------------------------------
class TestStreamEquivalence:
    @pytest.mark.parametrize("process", PROCESSES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_one_shot_equals_gap_accumulation(self, process, seed):
        """vectorized_arrival_times == accumulating arrival_gaps, bitwise."""
        count = 5000
        gaps = arrival_gaps(process, 800.0, seed=seed)
        clock, expected = 0.0, []
        for _ in range(count):
            clock += next(gaps)
            expected.append(clock)
        got = vz.vectorized_arrival_times(process, 800.0, count, seed=seed)
        assert got == expected  # bitwise: same floats in the same order

    @pytest.mark.parametrize("process", PROCESSES)
    @pytest.mark.parametrize("chunk_size", (1, 97, 777, 4096))
    def test_chunk_size_never_changes_the_stream(self, process, chunk_size):
        one_shot = vz.vectorized_arrival_times(process, 500.0, 3000, seed=3)
        chunked = []
        for chunk in vz.arrival_time_chunks(
            process, 500.0, seed=3, chunk_size=chunk_size, limit=3000
        ):
            chunked.extend(chunk)
        assert chunked == one_shot

    def test_limit_bounds_the_stream(self):
        chunks = list(vz.arrival_time_chunks(
            "uniform", 1000.0, chunk_size=64, limit=100
        ))
        assert sum(len(c) for c in chunks) == 100
        assert len(chunks[-1]) == 100 % 64

    def test_arrival_times_default_uses_kernel(self):
        # Public arrival_times and the kernel agree bitwise.
        assert arrival_times("poisson", 900.0, 2000, seed=5) == \
            vz.vectorized_arrival_times("poisson", 900.0, 2000, seed=5)

    def test_zero_count(self):
        assert vz.vectorized_arrival_times("poisson", 100.0, 0) == []
        assert arrival_times("poisson", 100.0, 0) == []
        assert scalar_arrival_times("poisson", 100.0, 0) == []


# ----------------------------------------------------------------------
# The scalar reference: same uniforms, gaps within one ulp
# ----------------------------------------------------------------------
class TestScalarFallback:
    @pytest.mark.parametrize("process", ("uniform", "bursty"))
    def test_deterministic_processes_bitwise_identical(self, process):
        kernel = arrival_times(process, 700.0, 2000, seed=2)
        scalar = scalar_arrival_times(process, 700.0, 2000, seed=2)
        assert kernel == scalar

    @pytest.mark.parametrize("seed", SEEDS)
    def test_poisson_fallback_within_one_ulp_per_gap(self, seed):
        import numpy

        kernel = arrival_gaps("poisson", 1000.0, seed=seed)
        scalar = scalar_gaps("poisson", 1000.0, seed=seed)
        a = numpy.array([next(kernel) for _ in range(20_000)])
        b = numpy.array([next(scalar) for _ in range(20_000)])
        # Same underlying uniform draws; np.log vs math.log may differ by
        # one ulp on a small fraction of inputs.
        assert numpy.allclose(a, b, rtol=1e-12, atol=0.0)

    def test_long_run_rate_preserved(self):
        for process in PROCESSES:
            times = arrival_times(process, 1000.0, 8000, seed=1)
            rate = 8000 / (times[-1] / 1000.0)
            assert rate == pytest.approx(1000.0, rel=0.05)


# ----------------------------------------------------------------------
# CompiledSource batch consumption over chunked streams
# ----------------------------------------------------------------------
class TestChunkedCompiledSource:
    def _chunked(self, times, chunk=3) -> CompiledSource:
        arrivals = [
            Arrival(t, ProcedureRequest("proc", (i,)), None)
            for i, t in enumerate(times)
        ]
        chunks = (arrivals[i:i + chunk] for i in range(0, len(arrivals), chunk))
        return CompiledSource(chunks=chunks)

    def test_take_matches_pop(self):
        times = [float(i) for i in range(1, 26)]
        batched, scalar = self._chunked(times), self._chunked(times)
        via_take = batched.take(11) + batched.take(50)
        via_pop = []
        while (arrival := scalar.pop()) is not None:
            via_pop.append(arrival)
        assert via_take == via_pop
        assert batched.emitted == scalar.emitted == 25

    def test_take_until_matches_peek_pop_loop(self):
        times = [0.5 * i for i in range(40)]
        batched, scalar = self._chunked(times, chunk=7), self._chunked(times, chunk=7)
        for deadline in (3.2, 3.25, 9.0, 100.0):
            got = batched.take_until(deadline)
            expected = []
            while (nxt := scalar.peek()) is not None and nxt.at_ms <= deadline:
                expected.append(scalar.pop())
            assert got == expected, deadline
        assert batched.peek() is None

    def test_exactly_one_of_arrivals_or_chunks(self):
        with pytest.raises(WorkloadError):
            CompiledSource()
        with pytest.raises(WorkloadError):
            CompiledSource([], chunks=iter([]))

    def test_open_loop_compile_is_deterministic_and_matches_arrival_times(self):
        source = OpenLoopSource(800.0, "poisson", seed=4, limit=500)
        a = source.compile(CTX).take(1000)
        b = source.compile(CTX).take(1000)
        assert a == b and len(a) == 500
        # gap_seed = ctx.seed * 31 + source.seed
        expected = arrival_times("poisson", 800.0, 500, seed=CTX.seed * 31 + 4)
        assert [arrival.at_ms for arrival in a] == expected


# ----------------------------------------------------------------------
# Cohorts
# ----------------------------------------------------------------------
class TestCohort:
    def test_validation(self):
        with pytest.raises(WorkloadError, match="exactly one"):
            Cohort("c", 10)
        with pytest.raises(WorkloadError, match="exactly one"):
            Cohort("c", 10, think_time_ms=5.0, rate_per_user_per_sec=1.0)
        with pytest.raises(WorkloadError, match="users"):
            Cohort("c", 0, think_time_ms=5.0)
        with pytest.raises(WorkloadError, match="think_time_ms"):
            Cohort("c", 10, think_time_ms=-1.0)
        with pytest.raises(WorkloadError, match="arrival"):
            Cohort("c", 10, rate_per_user_per_sec=1.0, arrival="weird")
        with pytest.raises(WorkloadError, match="name"):
            Cohort("", 10, think_time_ms=5.0)

    def test_aggregate_rate_superposition(self):
        open_loop = Cohort("browsers", 1_000_000, rate_per_user_per_sec=0.2)
        assert open_loop.aggregate_rate_per_sec == pytest.approx(200_000.0)
        closed = Cohort("clerks", 5000, think_time_ms=250.0)
        assert closed.aggregate_rate_per_sec == pytest.approx(20_000.0)

    def test_dict_round_trip(self):
        cohort = Cohort("power", 100, rate_per_user_per_sec=2.0, arrival="bursty",
                        burst_size=4)
        assert Cohort.from_dict(cohort.to_dict()) == cohort


class TestClientCohortSource:
    def _population(self) -> ClientCohortSource:
        return ClientCohortSource(
            [
                Cohort("casual", 900, rate_per_user_per_sec=0.1),
                Cohort("power", 100, rate_per_user_per_sec=1.0),
            ],
            seed=3,
        )

    def test_validation(self):
        with pytest.raises(WorkloadError, match="at least one"):
            ClientCohortSource([])
        with pytest.raises(WorkloadError, match="duplicate"):
            ClientCohortSource([
                Cohort("same", 1, think_time_ms=1.0),
                Cohort("same", 2, think_time_ms=1.0),
            ])

    def test_total_users(self):
        assert self._population().total_users() == 1000

    def test_dict_round_trip_via_registry(self):
        source = self._population()
        restored = WorkloadSource.from_dict(source.to_dict())
        assert isinstance(restored, ClientCohortSource)
        assert restored.to_dict() == source.to_dict()

    def test_compile_merges_and_labels(self):
        compiled = self._population().compile(CTX)
        batch = compiled.take_until(2000.0)
        assert batch, "population must produce arrivals"
        assert [a.at_ms for a in batch] == sorted(a.at_ms for a in batch)
        tenants = {a.tenant for a in batch}
        assert tenants == {"casual", "power"}
        # Aggregated rate ~ 190 txn/s over a 2s window.
        assert len(batch) == pytest.approx(380, rel=0.25)

    def test_compile_is_deterministic(self):
        source = self._population()
        a = [(x.at_ms, x.tenant) for x in source.compile(CTX).take(500)]
        b = [(x.at_ms, x.tenant) for x in source.compile(CTX).take(500)]
        assert a == b

    def test_single_cohort_unlabeled(self):
        source = ClientCohortSource(
            [Cohort("only", 50, rate_per_user_per_sec=1.0)], label_tenants=False
        )
        batch = source.compile(CTX).take(20)
        assert len(batch) == 20
        assert {a.tenant for a in batch} == {None}

    def test_million_user_population_is_cheap_state(self):
        source = ClientCohortSource(
            [
                Cohort("browsers", 950_000, rate_per_user_per_sec=0.001),
                Cohort("buyers", 50_000, rate_per_user_per_sec=0.01),
            ]
        )
        assert source.total_users() == 1_000_000
        compiled = source.compile(CTX)
        batch = compiled.take(100)  # arrivals stream lazily; no per-user state
        assert len(batch) == 100
