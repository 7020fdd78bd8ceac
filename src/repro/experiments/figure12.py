"""Figure 12 — transaction throughput of the full benchmarks.

For each benchmark (TATP, TPC-C, AuctionMark) and each cluster size, three
execution modes are compared:

* Houdini with partitioned Markov models,
* Houdini with global Markov models,
* the non-Houdini baseline (DB2-style redirects, "assume single-partition").

Expected shape (paper Fig. 12): the Houdini configurations scale better as
partitions are added, the partitioned models beat the global models (whose
size — and estimation cost — grows with the cluster), and the redirect
baseline falls behind because mispredicted transactions must be restarted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..session import Cluster, ClusterSpec
from .common import BENCHMARKS, ExperimentScale, format_table

MODES = ("houdini-partitioned", "houdini-global", "assume-single-partition")
LABELS = {
    "houdini-partitioned": "Houdini - Partitioned",
    "houdini-global": "Houdini - Global",
    "assume-single-partition": "Assume Single-Partition",
}


@dataclass
class Figure12Result:
    """Throughput per benchmark per cluster size per execution mode."""

    scale: ExperimentScale
    #: benchmark -> partitions -> mode -> throughput (txn/s)
    throughput: dict[str, dict[int, dict[str, float]]] = field(default_factory=dict)

    def series(self, benchmark: str, mode: str) -> list[tuple[int, float]]:
        by_partitions = self.throughput.get(benchmark, {})
        return [
            (partitions, values[mode])
            for partitions, values in sorted(by_partitions.items())
            if mode in values
        ]

    def improvement_over_baseline(self, benchmark: str) -> float:
        """Average % throughput gain of Houdini-partitioned over the baseline."""
        gains = []
        for values in self.throughput.get(benchmark, {}).values():
            baseline = values.get("assume-single-partition", 0.0)
            houdini = values.get("houdini-partitioned", 0.0)
            if baseline > 0:
                gains.append(100.0 * (houdini - baseline) / baseline)
        return sum(gains) / len(gains) if gains else 0.0

    def format(self) -> str:
        sections = []
        for benchmark, by_partitions in self.throughput.items():
            headers = ["# Partitions"] + [LABELS[m] for m in MODES]
            rows = []
            for partitions in sorted(by_partitions):
                row = [partitions]
                for mode in MODES:
                    row.append(round(by_partitions[partitions].get(mode, 0.0), 1))
                rows.append(row)
            sections.append(
                f"Figure 12 ({benchmark}): throughput (txn/s)\n" + format_table(headers, rows)
                + f"\nAverage improvement over baseline: "
                  f"{self.improvement_over_baseline(benchmark):.1f}%"
            )
        return "\n\n".join(sections)


def run_figure12(
    scale: ExperimentScale | None = None,
    benchmarks: tuple[str, ...] = BENCHMARKS,
) -> Figure12Result:
    """Regenerate Figure 12 (a, b and c)."""
    scale = scale or ExperimentScale.from_env()
    result = Figure12Result(scale=scale)
    for benchmark in benchmarks:
        result.throughput[benchmark] = {}
        for partitions in scale.partition_counts:
            result.throughput[benchmark][partitions] = {}
            for mode in MODES:
                spec = ClusterSpec(
                    benchmark=benchmark,
                    num_partitions=partitions,
                    trace_transactions=scale.trace_transactions,
                    seed=scale.seed,
                    strategy=mode,
                )
                with Cluster.open(spec) as session:
                    simulation = session.run_for(txns=scale.simulated_transactions)
                result.throughput[benchmark][partitions][mode] = (
                    simulation.throughput_txn_per_sec
                )
    return result


def main() -> None:  # pragma: no cover - CLI convenience
    print(run_figure12().format())


if __name__ == "__main__":  # pragma: no cover
    main()
