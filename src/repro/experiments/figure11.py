"""Figure 11 — relative time per transaction spent in each processing stage.

Runs every benchmark under the Houdini strategy (partitioned models, as in
the paper) on the accuracy-experiment cluster size and reports, per stored
procedure, the percentage of transaction time spent (1) estimating
optimizations, (2) executing, (3) planning, (4) coordinating execution and
(5) on other setup work.  The paper's headline from this figure is that the
estimation overhead averages ~5.8% of total transaction time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..session import Cluster, ClusterSpec
from .common import BENCHMARKS, ExperimentScale, format_table

CATEGORIES = ("estimation", "execution", "planning", "coordination", "other")


@dataclass
class Figure11Result:
    """Per-procedure time breakdown percentages."""

    scale: ExperimentScale
    #: benchmark -> procedure -> category -> percentage
    breakdowns: dict[str, dict[str, dict[str, float]]] = field(default_factory=dict)
    #: benchmark -> overall estimation share (percent)
    estimation_share: dict[str, float] = field(default_factory=dict)

    @property
    def average_estimation_share(self) -> float:
        if not self.estimation_share:
            return 0.0
        return sum(self.estimation_share.values()) / len(self.estimation_share)

    def format(self) -> str:
        headers = ["Benchmark", "Procedure"] + [c.capitalize() for c in CATEGORIES]
        rows = []
        for benchmark, procedures in self.breakdowns.items():
            for procedure in sorted(procedures):
                shares = procedures[procedure]
                rows.append(
                    [benchmark, procedure]
                    + [f"{shares.get(category, 0.0):.1f}%" for category in CATEGORIES]
                )
        footer = (
            f"\nAverage estimation share: {self.average_estimation_share:.1f}% "
            f"(paper reports ~5.8%)"
        )
        return (
            "Figure 11: share of transaction time per processing stage\n"
            + format_table(headers, rows)
            + footer
        )


def run_figure11(scale: ExperimentScale | None = None) -> Figure11Result:
    """Regenerate Figure 11."""
    scale = scale or ExperimentScale.from_env()
    result = Figure11Result(scale=scale)
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
        result.breakdowns[benchmark] = {
            procedure: breakdown.percentages()
            for procedure, breakdown in simulation.breakdowns.items()
        }
        result.estimation_share[benchmark] = simulation.overall_estimation_share()
    return result


def main() -> None:  # pragma: no cover - CLI convenience
    print(run_figure11().format())


if __name__ == "__main__":  # pragma: no cover
    main()
