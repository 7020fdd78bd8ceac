"""Tests for the benchmark registry and bundle building."""

import pytest

from repro.benchmarks import available_benchmarks, get_benchmark
from repro.errors import WorkloadError


class TestRegistry:
    def test_all_benchmarks_registered(self):
        assert set(available_benchmarks()) == {"tatp", "tpcc", "auctionmark", "smallbank"}

    def test_unknown_benchmark_raises(self):
        with pytest.raises(WorkloadError):
            get_benchmark("nope")

    @pytest.mark.parametrize("name,procedures", [
        ("tatp", 7),
        ("tpcc", 5),
        ("auctionmark", 10),
    ])
    def test_procedure_counts_match_paper(self, name, procedures):
        bundle = get_benchmark(name)
        catalog = bundle.make_catalog(num_partitions=2)
        assert len(list(catalog.procedures())) == procedures

    def test_build_populates_database(self):
        instance = get_benchmark("tpcc").build(2, seed=1)
        assert instance.database.total_rows() > 0
        assert instance.catalog.num_partitions == 2
        request = instance.generator.next_request()
        assert instance.catalog.has_procedure(request.procedure)

    def test_houdini_disabled_procedures(self):
        assert "CheckWinningBids" in get_benchmark("auctionmark").houdini_disabled_procedures
        assert not get_benchmark("tpcc").houdini_disabled_procedures
