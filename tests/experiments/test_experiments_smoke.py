"""Smoke tests for the experiment harness at a tiny scale.

Each experiment's full-size configuration is exercised by the pytest
benchmarks under ``benchmarks/``; here we verify that every harness runs
end to end, produces structurally complete results, and that the headline
qualitative relationships hold even at toy scale.  The formatted outputs are
pinned by the ``golden_outputs`` golden of :mod:`tests.oracles`.
"""

import pytest

from repro.experiments import ExperimentScale
from tests.experiments.outputs import run


class TestScalePresets:
    def test_presets_available(self):
        assert ExperimentScale.small().trace_transactions < ExperimentScale.paper().trace_transactions
        assert ExperimentScale.medium().partition_counts[-1] >= 16

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "medium")
        assert ExperimentScale.from_env().name == "medium"
        monkeypatch.delenv("REPRO_SCALE")
        assert ExperimentScale.from_env().name == "small"

    def test_from_env_rejects_unknown_values(self, monkeypatch):
        from repro.errors import SessionError

        monkeypatch.setenv("REPRO_SCALE", "unknown")
        with pytest.raises(SessionError, match="REPRO_SCALE.*valid presets"):
            ExperimentScale.from_env()

    def test_out_of_range_values_rejected(self):
        from repro.errors import SessionError

        with pytest.raises(SessionError, match="trace_transactions"):
            ExperimentScale(trace_transactions=0)
        with pytest.raises(SessionError, match="partition_counts"):
            ExperimentScale(partition_counts=())
        with pytest.raises(SessionError, match="thresholds"):
            ExperimentScale(thresholds=(0.2, 1.5))

    def test_override(self):
        scale = ExperimentScale.small().override(seed=99)
        assert scale.seed == 99


class TestFigure3:
    def test_motivating_experiment_shape(self):
        result = run("figure03")
        rows = result.throughput[4]
        assert set(rows) == {"oracle", "assume-single-partition", "assume-distributed"}
        # Proper selection must beat assuming everything is distributed.
        assert rows["oracle"] > rows["assume-distributed"]
        assert "Figure 3" in result.format()
        assert result.series("oracle")[0][0] == 4


class TestTable3:
    def test_accuracy_table_structure(self):
        result = run("table03")
        assert set(result.reports) == {"tatp", "tpcc", "auctionmark"}
        for benchmark in result.reports:
            for configuration in ("global", "partitioned"):
                report = result.reports[benchmark][configuration]
                assert 0.0 <= report.total <= 100.0
                # The abort optimization is never mispredicted.
                assert report.op3 > 95.0
        assert "Table 3" in result.format()


class TestTable4AndModelFigures:
    def test_table4_reports_every_executed_procedure(self):
        result = run("table04")
        assert "tpcc" in result.procedures
        stats = result.procedures["tpcc"]
        assert stats  # at least one procedure executed
        assert "Table 4" in result.format()

    def test_model_figures_artifacts(self):
        result = run("model_figures")
        assert result.neworder_model is not None
        assert result.neworder_dot.startswith("digraph")
        assert result.getwarehouse_table
        table = result.getwarehouse_table
        home = max(table["partitions"], key=lambda p: table["partitions"][p]["read"])
        assert table["partitions"][home]["read"] == pytest.approx(1.0)
        assert set(result.benchmark_models) == {"tatp", "tpcc", "auctionmark"}

