"""Tests for prediction-driven admission control."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.scheduling import (
    AdmissionController,
    AdmissionDecision,
    AdmissionLimits,
    PendingTransaction,
)
from repro.types import ProcedureRequest


def _pending(arrival: int, cost_ms: float = 1.0, single: bool = True) -> PendingTransaction:
    return PendingTransaction(
        request=ProcedureRequest.of("Proc", (arrival,)),
        arrival_index=arrival,
        predicted_cost_ms=cost_ms,
        predicted_single_partition=single,
    )


class TestLimitsValidation:
    def test_zero_in_flight_rejected(self):
        with pytest.raises(SimulationError):
            AdmissionLimits(max_in_flight=0)

    def test_non_positive_load_rejected(self):
        with pytest.raises(SimulationError):
            AdmissionLimits(max_in_flight_ms=0.0)

    def test_negative_deferrals_rejected(self):
        with pytest.raises(SimulationError):
            AdmissionLimits(max_deferrals=-1)


class TestAdmissionDecisions:
    def test_unlimited_controller_admits_everything(self):
        controller = AdmissionController()
        for index in range(10):
            assert controller.decide(_pending(index)) is AdmissionDecision.ADMIT
        assert controller.stats.admitted == 10

    def test_in_flight_ceiling_defers(self):
        controller = AdmissionController(AdmissionLimits(max_in_flight=2))
        assert controller.decide(_pending(0)) is AdmissionDecision.ADMIT
        assert controller.decide(_pending(1)) is AdmissionDecision.ADMIT
        assert controller.decide(_pending(2)) is AdmissionDecision.DEFER
        assert controller.stats.deferred == 1

    def test_release_frees_capacity(self):
        controller = AdmissionController(AdmissionLimits(max_in_flight=1))
        first = _pending(0)
        assert controller.decide(first) is AdmissionDecision.ADMIT
        assert controller.decide(_pending(1)) is AdmissionDecision.DEFER
        assert controller.release_if_admitted(first)
        assert controller.decide(_pending(2)) is AdmissionDecision.ADMIT

    def test_distributed_ceiling_only_affects_distributed(self):
        controller = AdmissionController(AdmissionLimits(max_distributed_in_flight=1))
        assert controller.decide(_pending(0, single=False)) is AdmissionDecision.ADMIT
        # A second distributed transaction is deferred, single-partition work
        # keeps flowing.
        assert controller.decide(_pending(1, single=False)) is AdmissionDecision.DEFER
        assert controller.decide(_pending(2, single=True)) is AdmissionDecision.ADMIT

    def test_load_ceiling_defers_heavy_transactions(self):
        controller = AdmissionController(AdmissionLimits(max_in_flight_ms=5.0))
        assert controller.decide(_pending(0, cost_ms=4.0)) is AdmissionDecision.ADMIT
        assert controller.decide(_pending(1, cost_ms=3.0)) is AdmissionDecision.DEFER

    def test_first_transaction_is_always_admitted_even_if_heavy(self):
        """A single transaction heavier than the load ceiling must not be
        deferred forever — an empty node can always take one transaction."""
        controller = AdmissionController(AdmissionLimits(max_in_flight_ms=1.0))
        assert controller.decide(_pending(0, cost_ms=50.0)) is AdmissionDecision.ADMIT

    def test_excessive_deferrals_become_rejections(self):
        controller = AdmissionController(AdmissionLimits(max_in_flight=1, max_deferrals=2))
        blocker = _pending(0)
        controller.decide(blocker)
        victim = _pending(1)
        victim.deferrals = 3
        assert controller.decide(victim) is AdmissionDecision.REJECT
        assert controller.stats.rejected == 1


class TestAdmissionBookkeeping:
    def test_in_flight_counters_track_admissions(self):
        controller = AdmissionController()
        a = _pending(0, cost_ms=2.0)
        b = _pending(1, cost_ms=3.0, single=False)
        controller.decide(a)
        controller.decide(b)
        assert controller.in_flight == 2
        assert controller.distributed_in_flight == 1
        assert controller._in_flight_ms == pytest.approx(5.0)
        assert controller.release_if_admitted(b)
        assert controller.distributed_in_flight == 0
        assert controller._in_flight_ms == pytest.approx(2.0)

    def test_releasing_an_unknown_transaction_is_refused(self):
        controller = AdmissionController()
        assert not controller.release_if_admitted(_pending(0))

    def test_describe_reports_load(self):
        controller = AdmissionController()
        controller.decide(_pending(0, cost_ms=1.5))
        assert "in_flight=1" in controller.describe()
