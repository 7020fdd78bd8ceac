"""Per-procedure statistics collected by the Houdini facade.

These counters are what the paper's Table 4 reports: for each stored
procedure, the percentage of transactions where each optimization was
successfully enabled and the average time spent computing estimates.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class ProcedureStats:
    """Optimization bookkeeping for one stored procedure."""

    procedure: str
    transactions: int = 0
    op1_enabled: int = 0
    op1_correct: int = 0
    op2_enabled: int = 0
    op2_correct: int = 0
    op3_enabled: int = 0
    op4_enabled: int = 0
    mispredicted_restarts: int = 0
    estimation_wall_ms_total: float = 0.0
    estimates: int = 0

    # ------------------------------------------------------------------
    def percentage(self, count: int) -> float:
        if self.transactions == 0:
            return 0.0
        return 100.0 * count / self.transactions

    @property
    def op1_rate(self) -> float:
        return self.percentage(self.op1_correct)

    @property
    def op2_rate(self) -> float:
        return self.percentage(self.op2_correct)

    @property
    def op3_rate(self) -> float:
        return self.percentage(self.op3_enabled)

    @property
    def op4_rate(self) -> float:
        return self.percentage(self.op4_enabled)

    @property
    def average_estimation_ms(self) -> float:
        if self.estimates == 0:
            return 0.0
        return self.estimation_wall_ms_total / self.estimates


@dataclass
class HoudiniStats:
    """Aggregated statistics across every procedure."""

    procedures: dict[str, ProcedureStats] = field(default_factory=dict)

    def for_procedure(self, procedure: str) -> ProcedureStats:
        stats = self.procedures.get(procedure)
        if stats is None:
            stats = ProcedureStats(procedure)
            self.procedures[procedure] = stats
        return stats

    # ------------------------------------------------------------------
    @property
    def total_transactions(self) -> int:
        return sum(stats.transactions for stats in self.procedures.values())

    def overall_rate(self, attribute: str) -> float:
        """Weighted percentage of one counter across all procedures."""
        total = self.total_transactions
        if total == 0:
            return 0.0
        enabled = sum(getattr(stats, attribute) for stats in self.procedures.values())
        return 100.0 * enabled / total

    def average_estimation_ms(self) -> float:
        estimates = sum(stats.estimates for stats in self.procedures.values())
        if estimates == 0:
            return 0.0
        total = sum(stats.estimation_wall_ms_total for stats in self.procedures.values())
        return total / estimates
