"""Figure 3 — the motivating experiment.

TPC-C NewOrder transactions only, three execution scenarios, increasing
cluster sizes:

1. *assume distributed* — every request locks every partition;
2. *assume single-partition* — every request runs optimistically on a random
   partition with DB2-style redirects on misprediction;
3. *proper selection* — the client supplies the exact partitions and abort
   behaviour (the oracle strategy), so single-partition transactions run
   without concurrency control and distributed ones lock the minimum set.

Expected shape (paper Fig. 3): scenario 1 is flat regardless of cluster size,
scenario 3 scales almost linearly, scenario 2 sits in between and falls
further behind as the probability of guessing the right partition shrinks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..benchmarks.tpcc import NewOrderOnlyGenerator
from ..session import Cluster, ClusterSpec, train
from .common import ExperimentScale, format_table

#: Strategy labels in the order the paper's legend lists them.
STRATEGIES = ("oracle", "assume-single-partition", "assume-distributed")
LABELS = {
    "oracle": "Proper Selection",
    "assume-single-partition": "Assume Single-Partition",
    "assume-distributed": "Assume Distributed",
}


@dataclass
class Figure3Result:
    """Throughput (txn/s) per strategy per cluster size."""

    scale: ExperimentScale
    throughput: dict[int, dict[str, float]] = field(default_factory=dict)

    def series(self, strategy: str) -> list[tuple[int, float]]:
        return [
            (partitions, values[strategy])
            for partitions, values in sorted(self.throughput.items())
            if strategy in values
        ]

    def format(self) -> str:
        headers = ["# Partitions"] + [LABELS[s] for s in STRATEGIES]
        rows = []
        for partitions in sorted(self.throughput):
            row = [partitions]
            for strategy in STRATEGIES:
                row.append(round(self.throughput[partitions].get(strategy, 0.0), 1))
            rows.append(row)
        return "Figure 3: NewOrder throughput (txn/s) by execution scenario\n" + \
            format_table(headers, rows)


def run_figure03(scale: ExperimentScale | None = None) -> Figure3Result:
    """Regenerate Figure 3."""
    scale = scale or ExperimentScale.from_env()
    result = Figure3Result(scale=scale)
    for partitions in scale.partition_counts:
        result.throughput[partitions] = {}
        for strategy_name in STRATEGIES:
            spec = ClusterSpec(
                benchmark="tpcc",
                num_partitions=partitions,
                trace_transactions=scale.trace_transactions,
                seed=scale.seed,
                strategy=strategy_name,
            )
            # Trained on the full mix, run on NewOrder only.
            artifacts = train(spec)
            instance = artifacts.benchmark
            instance.generator = NewOrderOnlyGenerator(
                instance.catalog, instance.config, instance.generator.rng
            )
            with Cluster.open(spec, artifacts=artifacts) as session:
                simulation = session.run_for(txns=scale.simulated_transactions)
            result.throughput[partitions][strategy_name] = simulation.throughput_txn_per_sec
    return result


def main() -> None:  # pragma: no cover - CLI convenience
    print(run_figure03().format())


if __name__ == "__main__":  # pragma: no cover
    main()
