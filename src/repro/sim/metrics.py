"""Simulation metrics: throughput, latency and the Fig. 11 time breakdown.

The event-driven simulator accumulates these figures in flat per-procedure
arrays while it runs and materializes one :class:`SimulationResult` (plus
its :class:`ProcedureBreakdown` entries) when the run finishes; the classes
here are the stable, introspectable surface the experiments consume.  Their
dict forms come from the field table (:mod:`repro.schema`): the fields in
declaration order, then a ``derived`` block that is recomputed on load.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import mean
from typing import Mapping

from .. import schema
from ..errors import SimulationError
from ..scheduling.admission import AdmissionStats
from ..scheduling.scheduler import SchedulerStats
from ..schema import spec
from .sketch import LatencySketch


def _load(cls, data, label: str):
    """``cls`` from its dict form; the ``derived`` block is not read back."""
    if isinstance(data, Mapping):
        data = {key: value for key, value in data.items() if key != "derived"}
    return schema.from_dict(cls, data, SimulationError, label)


@dataclass
class ProcedureBreakdown:
    """Accumulated per-procedure time breakdown (Fig. 11 categories)."""

    procedure: str
    transactions: int = 0
    estimation_ms: float = 0.0
    planning_ms: float = 0.0
    execution_ms: float = 0.0
    coordination_ms: float = 0.0
    other_ms: float = 0.0

    to_dict = schema.to_dict

    @classmethod
    def from_dict(cls, data: dict) -> "ProcedureBreakdown":
        return schema.from_dict(cls, data, SimulationError, "procedure breakdown")

    @property
    def total_ms(self) -> float:
        return (
            self.estimation_ms + self.planning_ms + self.execution_ms
            + self.coordination_ms + self.other_ms
        )

    def percentages(self) -> dict[str, float]:
        """Share of each category as percentages (summing to ~100)."""
        total = self.total_ms
        if total <= 0:
            return {k: 0.0 for k in ("estimation", "execution", "planning", "coordination", "other")}
        return {
            "estimation": 100.0 * self.estimation_ms / total,
            "execution": 100.0 * self.execution_ms / total,
            "planning": 100.0 * self.planning_ms / total,
            "coordination": 100.0 * self.coordination_ms / total,
            "other": 100.0 * self.other_ms / total,
        }

    @property
    def average_latency_ms(self) -> float:
        if self.transactions == 0:
            return 0.0
        return self.total_ms / self.transactions


@dataclass
class TenantBreakdown:
    """Per-tenant slice of one simulation (``TenantSource`` sessions).

    Counters cover the tenant's whole stream (no warm-up window): summed
    over every tenant they equal the global counters for traffic that was
    entirely tenant-labeled, and the latency lists concatenate (reordered)
    to the global latency list.  ``duration_ms`` is the parent run's
    simulated duration, so per-tenant throughputs are computed over one
    shared wall clock and therefore sum to the global full-duration rate.
    """

    tenant: str
    submitted: int = 0
    committed: int = 0
    user_aborted: int = 0
    restarts: int = 0
    rejected: int = 0
    latencies_ms: list[float] = field(default_factory=list)
    duration_ms: float = 0.0
    #: Streaming-mode latency summary (``metrics_mode="streaming"``); when
    #: set, ``latencies_ms`` stays empty and latency queries go through it.
    latency_sketch: LatencySketch | None = spec(
        None, nested=LatencySketch, optional=True, key="latency_summary"
    )

    @property
    def total_transactions(self) -> int:
        return self.committed + self.user_aborted

    @property
    def throughput_txn_per_sec(self) -> float:
        if self.duration_ms <= 0:
            return 0.0
        return 1000.0 * self.committed / self.duration_ms

    @property
    def average_latency_ms(self) -> float:
        if self.latency_sketch is not None:
            return self.latency_sketch.mean
        if not self.latencies_ms:
            return 0.0
        return mean(self.latencies_ms)

    def to_dict(self) -> dict:
        return {**schema.to_dict(self), "derived": {
            "throughput_txn_per_sec": self.throughput_txn_per_sec,
            "average_latency_ms": self.average_latency_ms,
        }}

    @classmethod
    def from_dict(cls, data: dict) -> "TenantBreakdown":
        return _load(cls, data, "tenant breakdown")


@dataclass
class SimulationResult:
    """Outcome of one simulator run."""

    strategy: str
    benchmark: str
    num_partitions: int
    #: How latency/window metrics were accumulated: ``"exact"`` stores
    #: every latency in :attr:`latencies_ms`; ``"streaming"`` keeps an
    #: O(1)-memory :attr:`latency_sketch` instead (scale mode).
    metrics_mode: str = "exact"
    simulated_duration_ms: float = 0.0
    committed: int = 0
    user_aborted: int = 0
    restarts: int = 0
    escalations: int = 0
    undo_disabled: int = 0
    early_prepared: int = 0
    single_partition: int = 0
    distributed: int = 0
    #: Transactions rejected outright by admission control (0 when admission
    #: control is disabled, the default).
    rejected: int = 0
    #: Post-warm-up measurement window used for throughput.
    window_committed: int = 0
    window_duration_ms: float = 0.0
    latencies_ms: list[float] = field(default_factory=list)
    #: Streaming-mode latency summary; ``None`` in exact mode.
    latency_sketch: LatencySketch | None = spec(
        None, nested=LatencySketch, optional=True, key="latency_summary"
    )
    #: Per-procedure breakdowns (the dict form lists them by name).
    breakdowns: dict[str, ProcedureBreakdown] = spec(
        default_factory=dict, nested=ProcedureBreakdown, each=True
    )
    #: Scheduler / admission activity for the run (filled by the simulator).
    scheduler_stats: SchedulerStats | None = spec(
        None, nested=SchedulerStats, optional=True
    )
    admission_stats: AdmissionStats | None = spec(
        None, nested=AdmissionStats, optional=True
    )
    #: Per-tenant breakdowns for tenant-labeled traffic (``TenantSource``);
    #: empty for unlabeled workloads.
    tenants: dict[str, TenantBreakdown] = spec(
        default_factory=dict, nested=TenantBreakdown, each=True
    )
    #: Per-procedure §4.5 maintenance counters (transitions_observed,
    #: accuracy_checks, recomputations, last_accuracy); empty for
    #: non-Houdini strategies.
    maintenance: dict[str, dict] = field(default_factory=dict)
    #: Self-tuning loop snapshot (drift/retrain/swap counters and
    #: per-procedure verdicts); ``None`` when self-tuning is not enabled.
    selftune: dict | None = None
    #: Multi-tenant SLO snapshot (per-tenant arrivals/sheds, SLO compliance
    #: and burn rate, quota occupancy, fair-queuing virtual times); ``None``
    #: when tenancy is not enabled.
    tenancy: dict | None = None

    # ------------------------------------------------------------------
    @property
    def total_transactions(self) -> int:
        return self.committed + self.user_aborted

    @property
    def throughput_txn_per_sec(self) -> float:
        committed = self.window_committed or self.committed
        duration = self.window_duration_ms or self.simulated_duration_ms
        if duration <= 0:
            return 0.0
        return 1000.0 * committed / duration

    @property
    def average_latency_ms(self) -> float:
        if self.latency_sketch is not None:
            return self.latency_sketch.mean
        if not self.latencies_ms:
            return 0.0
        return mean(self.latencies_ms)

    def latency_quantile(self, q: float) -> float:
        """Nearest-rank latency quantile for ``q`` in ``[0, 1]``.

        Exact over the stored latencies in exact mode; in streaming mode the
        sketch answers (within its documented error bound, see
        :mod:`repro.sim.sketch`).
        """
        if self.latency_sketch is not None:
            return self.latency_sketch.quantile(q)
        if not self.latencies_ms:
            return 0.0
        ordered = sorted(self.latencies_ms)
        rank = max(0, math.ceil(len(ordered) * q) - 1)
        return ordered[min(rank, len(ordered) - 1)]

    @property
    def restart_rate(self) -> float:
        if self.total_transactions == 0:
            return 0.0
        return self.restarts / self.total_transactions

    # ------------------------------------------------------------------
    def overall_estimation_share(self) -> float:
        """Average share of transaction time spent estimating (Fig. 11 claim)."""
        total = sum(b.total_ms for b in self.breakdowns.values())
        if total <= 0:
            return 0.0
        estimation = sum(b.estimation_ms for b in self.breakdowns.values())
        return 100.0 * estimation / total

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Stable, JSON-friendly dict form of the full result.

        Every field in declaration order (the streaming sketch under
        ``latency_summary``; the three per-name maps by name) plus a
        ``derived`` block of convenience metrics.  :meth:`from_dict` inverts it exactly (``derived`` is
        recomputed, never read back), which is what the CLI's ``simulate
        --json`` output and the benchmark baselines rely on instead of
        ad-hoc field plucking.

        Payload size is bounded by the metrics mode: in exact mode
        ``latencies_ms`` carries every accumulated latency and
        ``latency_summary`` is ``None``; in streaming mode ``latencies_ms``
        is empty and ``latency_summary`` carries the constant-size sketch
        summary instead, so a million-transaction result serializes in a
        few hundred bytes.  Round-trip contract: every counter, window
        field, breakdown and stats block restores exactly in both modes;
        in streaming mode the restored :attr:`latency_sketch` is a frozen
        summary — count/total/min/max and the tracked percentiles
        (p50/p95/p99) survive, raw samples do not (see
        :meth:`~repro.sim.sketch.LatencySketch.from_dict`).
        """
        out = schema.to_dict(self)
        for name in ("breakdowns", "tenants", "maintenance"):
            out[name] = dict(sorted(out[name].items()))
        out["derived"] = {
            "throughput_txn_per_sec": self.throughput_txn_per_sec,
            "average_latency_ms": self.average_latency_ms,
            "restart_rate": self.restart_rate,
            "estimation_share_pct": self.overall_estimation_share(),
        }
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "SimulationResult":
        """Rebuild a result from :meth:`to_dict` output (baseline replay)."""
        return _load(cls, data, "simulation result")

    def summary_row(self) -> dict:
        row = {
            "strategy": self.strategy,
            "benchmark": self.benchmark,
            "partitions": self.num_partitions,
            "throughput_txn_s": round(self.throughput_txn_per_sec, 1),
            "avg_latency_ms": round(self.average_latency_ms, 3),
            "committed": self.committed,
            "restarts": self.restarts,
            "restart_rate": round(self.restart_rate, 4),
            "undo_disabled": self.undo_disabled,
            "early_prepared": self.early_prepared,
            "estimation_share_pct": round(self.overall_estimation_share(), 2),
        }
        if self.scheduler_stats is not None:
            row["max_queue_wait_ms"] = round(self.scheduler_stats.max_queue_wait_ms, 3)
        if self.tenants:
            row["tenants"] = {
                name: round(breakdown.throughput_txn_per_sec, 1)
                for name, breakdown in sorted(self.tenants.items())
            }
        if self.selftune is not None:
            row["selftune_swaps"] = self.selftune.get("swaps", 0)
        if self.tenancy is not None:
            row["shed"] = sum(
                entry["shed"] for entry in self.tenancy.get("arrivals", {}).values()
            )
        return row

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<SimulationResult {self.benchmark}/{self.strategy} P={self.num_partitions} "
            f"{self.throughput_txn_per_sec:.0f} txn/s>"
        )
