"""Tests for the off-line accuracy evaluator (Table 3 machinery)."""

import pytest

from repro.evaluation import AccuracyEvaluator
from repro.houdini import GlobalModelProvider, Houdini, HoudiniConfig
from repro.evaluation.accuracy import PENALTY_ABORT, TransactionAccuracy
from repro.session import record_trace


class TestTransactionAccuracy:
    def test_all_correct_and_penalty(self):
        verdict = TransactionAccuracy("p", True, True, True, True, False)
        assert verdict.all_correct
        assert verdict.penalty == 0.0

    def test_abort_misprediction_is_catastrophic(self):
        verdict = TransactionAccuracy("p", True, True, False, True, True)
        assert verdict.penalty >= PENALTY_ABORT

    def test_partial_penalties_accumulate(self):
        verdict = TransactionAccuracy("p", False, False, True, False, False)
        assert verdict.penalty == pytest.approx(1.0 + 2.0 + 2.0)


class TestAccuracyEvaluator:
    def test_requires_non_learning_houdini(self, tpcc_artifacts):
        houdini = Houdini(
            tpcc_artifacts.benchmark.catalog,
            GlobalModelProvider(tpcc_artifacts.models),
            tpcc_artifacts.mappings,
            HoudiniConfig(),
            learning=True,
        )
        with pytest.raises(ValueError):
            AccuracyEvaluator(houdini)

    def test_report_on_training_trace_is_strong(self, tpcc_houdini, tpcc_artifacts):
        evaluator = AccuracyEvaluator(tpcc_houdini, label="train")
        report = evaluator.evaluate(tpcc_artifacts.trace)
        assert report.transactions == len(tpcc_artifacts.trace)
        # On the data the models were trained from, accuracy must be high.
        assert report.op1 > 80.0
        assert report.op3 == 100.0
        assert 0.0 <= report.total <= 100.0
        row = report.as_row()
        assert set(row) == {"OP1", "OP2", "OP3", "OP4", "Total"}

    def test_per_procedure_breakdown(self, tpcc_houdini, tpcc_artifacts):
        evaluator = AccuracyEvaluator(tpcc_houdini)
        report = evaluator.evaluate(tpcc_artifacts.trace)
        assert "neworder" in report.procedures
        neworder = report.procedures["neworder"]
        assert neworder.transactions > 0
        assert 0.0 <= neworder.rate("op2_correct") <= 100.0

    def test_held_out_accuracy_reasonable(self, tpcc_houdini, tpcc_artifacts):
        held_out = record_trace(tpcc_artifacts.benchmark, 150)
        report = AccuracyEvaluator(tpcc_houdini).evaluate(held_out)
        # The paper reports ~91-95% total accuracy; the scaled-down
        # reproduction should stay in the same neighbourhood.
        assert report.total > 60.0
        assert report.op3 > 95.0
