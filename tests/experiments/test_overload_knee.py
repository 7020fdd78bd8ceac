"""Smoke test for the overload knee finder at toy scale.

The full >= 1M-user study runs under ``benchmarks/``; here we only verify
the search machinery: baseline -> doubling -> bisection converges, probes
are recorded in order, the knee lands between the baseline and the last
probed rate, and the harness is registered with the CLI.
"""

import pytest

from repro.experiments import ExperimentScale
from repro.experiments.overload_knee import default_users
from tests.experiments.outputs import RUNS, expected, normalized


class TestOverloadKnee:
    @pytest.fixture(scope="class")
    def result(self):
        return RUNS["overload_knee"]()

    def test_search_converges(self, result):
        assert result.service_rate > 0
        assert result.base_p95_ms > 0
        assert result.knee_rate >= result.base_rate
        assert result.p95_at_knee_ms >= result.base_p95_ms * 0.5

    def test_probe_log_is_complete(self, result):
        phases = [probe["phase"] for probe in result.probes]
        assert phases[0] == "baseline"
        assert "doubling" in phases
        for probe in result.probes:
            assert probe["throughput"] <= probe["rate"] * 1.3
            assert probe["p95_ms"] > 0

    def test_knee_is_the_last_stable_rate(self, result):
        stable = [p["rate"] for p in result.probes if p["stable"]]
        unstable = [p["rate"] for p in result.probes if not p["stable"]]
        assert result.knee_rate == pytest.approx(max(stable))
        if unstable:  # bisection bracketed the knee from above
            assert result.knee_rate < min(u for u in unstable)

    def test_population_and_memory_recorded(self, result):
        assert result.users == 50_000
        assert result.peak_rss_mib > 0

    def test_format_is_readable(self, result):
        text = result.format()
        assert "knee" in text and "50,000" in text
        assert "offered txn/s" in text

    def test_output_matches_parent(self, result):
        assert normalized("overload_knee", result) == expected("overload_knee")

    def test_default_users_scale_mapping(self):
        assert default_users(ExperimentScale.small()) == 100_000
        assert default_users(ExperimentScale.medium()) == 1_000_000
        assert default_users(ExperimentScale.paper()) == 1_000_000

    def test_registered_with_cli(self):
        from repro.cli import EXPERIMENTS, build_parser

        assert "knee" in EXPERIMENTS
        parser = build_parser()
        args = parser.parse_args(["knee", "tatp", "--users", "1000"])
        assert args.command == "knee" and args.users == 1000
