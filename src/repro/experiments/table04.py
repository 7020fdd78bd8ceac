"""Table 4 — per-procedure optimization success rates and estimation times.

Runs each benchmark under the Houdini strategy and reports, per stored
procedure, the percentage of transactions for which each optimization was
successfully enabled at run time, plus the average time spent computing the
initial estimates and updates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..houdini.stats import ProcedureStats
from ..session import Cluster, ClusterSpec
from .common import BENCHMARKS, ExperimentScale, format_table


@dataclass
class Table4Result:
    """Per-procedure optimization statistics."""

    scale: ExperimentScale
    #: benchmark -> procedure -> stats
    procedures: dict[str, dict[str, ProcedureStats]] = field(default_factory=dict)
    throughput: dict[str, float] = field(default_factory=dict)

    def format(self) -> str:
        headers = ["Benchmark", "Procedure", "OP1", "OP2", "OP3", "OP4", "Estimate (ms)"]
        rows = []
        for benchmark, stats_by_procedure in self.procedures.items():
            for procedure in sorted(stats_by_procedure):
                stats = stats_by_procedure[procedure]
                rows.append([
                    benchmark,
                    procedure,
                    f"{stats.op1_rate:.1f}%",
                    f"{stats.op2_rate:.1f}%",
                    f"{stats.op3_rate:.1f}%",
                    f"{stats.op4_rate:.1f}%",
                    f"{stats.average_estimation_ms:.3f}",
                ])
        return (
            "Table 4: per-procedure optimizations enabled by Houdini\n"
            + format_table(headers, rows)
        )


def run_table04(scale: ExperimentScale | None = None) -> Table4Result:
    """Regenerate Table 4."""
    scale = scale or ExperimentScale.from_env()
    result = Table4Result(scale=scale)
    for benchmark in BENCHMARKS:
        spec = ClusterSpec(
            benchmark=benchmark,
            num_partitions=scale.accuracy_partitions,
            trace_transactions=scale.trace_transactions,
            seed=scale.seed,
            strategy="houdini-partitioned",
        )
        with Cluster.open(spec) as session:
            simulation = session.run_for(txns=scale.simulated_transactions)
        result.throughput[benchmark] = simulation.throughput_txn_per_sec
        result.procedures[benchmark] = dict(session.strategy.stats.procedures)
    return result


def main() -> None:  # pragma: no cover - CLI convenience
    print(run_table04().format())


if __name__ == "__main__":  # pragma: no cover
    main()
