"""Figure 13 — sensitivity to the confidence-coefficient threshold.

Each benchmark is executed under the Houdini strategy on a fixed-size cluster
while the confidence threshold used to prune optimization estimates (§4.3)
sweeps from 0 to 1.  Expected shape (paper Fig. 13):

* at threshold 0 every partition is considered "needed", so every transaction
  runs as a distributed transaction and throughput collapses;
* TATP plateaus as soon as the threshold exceeds ``1/num_partitions``;
* TPC-C plateaus around 0.3 and declines slightly near 1.0 because undo
  logging stops being disabled;
* AuctionMark steps up as the threshold crosses the branch probabilities of
  its conditional procedures (~0.33 and ~0.66).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..houdini import HoudiniConfig
from ..session import Cluster, ClusterSpec
from .common import BENCHMARKS, ExperimentScale, format_table


@dataclass
class Figure13Result:
    """Throughput per benchmark per confidence threshold."""

    scale: ExperimentScale
    #: benchmark -> threshold -> throughput (txn/s)
    throughput: dict[str, dict[float, float]] = field(default_factory=dict)

    def series(self, benchmark: str) -> list[tuple[float, float]]:
        return sorted(self.throughput.get(benchmark, {}).items())

    def format(self) -> str:
        thresholds = sorted({t for series in self.throughput.values() for t in series})
        headers = ["Threshold"] + [b.upper() for b in self.throughput]
        rows = []
        for threshold in thresholds:
            row = [f"{threshold:.2f}"]
            for benchmark in self.throughput:
                row.append(round(self.throughput[benchmark].get(threshold, 0.0), 1))
            rows.append(row)
        return (
            "Figure 13: throughput vs confidence-coefficient threshold\n"
            + format_table(headers, rows)
        )


def run_figure13(
    scale: ExperimentScale | None = None,
    benchmarks: tuple[str, ...] = BENCHMARKS,
) -> Figure13Result:
    """Regenerate Figure 13."""
    scale = scale or ExperimentScale.from_env()
    result = Figure13Result(scale=scale)
    for benchmark in benchmarks:
        result.throughput[benchmark] = {}
        for threshold in scale.thresholds:
            spec = ClusterSpec(
                benchmark=benchmark,
                num_partitions=scale.accuracy_partitions,
                trace_transactions=scale.trace_transactions,
                seed=scale.seed,
                strategy="houdini",
                houdini=HoudiniConfig(confidence_threshold=threshold),
            )
            with Cluster.open(spec) as session:
                simulation = session.run_for(txns=scale.simulated_transactions)
            result.throughput[benchmark][threshold] = simulation.throughput_txn_per_sec
    return result


def main() -> None:  # pragma: no cover - CLI convenience
    print(run_figure13().format())


if __name__ == "__main__":  # pragma: no cover
    main()
