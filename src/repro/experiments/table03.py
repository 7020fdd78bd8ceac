"""Table 3 — off-line accuracy of global vs partitioned Markov models.

For each benchmark, models are trained on the first half of the sample
workload trace and evaluated on the second half (the paper uses the first
50,000 of 100,000 transactions for training).  Accuracy is reported per
optimization (OP1-OP4) and in total, for both the single "global" model per
procedure and the Section-5 "partitioned" models.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..evaluation import AccuracyEvaluator, AccuracyReport
from ..markov import build_models_from_trace
from ..session import ClusterSpec, build_houdini, build_partitioned_provider, train
from ..types import ProcedureRequest
from .common import BENCHMARKS, ExperimentScale, format_table


@dataclass
class Table3Result:
    """Accuracy rows per benchmark per model configuration."""

    scale: ExperimentScale
    reports: dict[str, dict[str, AccuracyReport]] = field(default_factory=dict)

    def cell(self, benchmark: str, configuration: str, metric: str) -> float:
        report = self.reports[benchmark][configuration]
        return getattr(report, metric.lower())

    def format(self) -> str:
        headers = ["Metric", "Models"] + [b.upper() for b in self.reports]
        rows = []
        for metric in ("OP1", "OP2", "OP3", "OP4", "Total"):
            for configuration in ("global", "partitioned"):
                row = [metric, configuration]
                for benchmark in self.reports:
                    report = self.reports[benchmark][configuration]
                    row.append(f"{getattr(report, metric.lower() if metric != 'Total' else 'total'):.1f}%")
                rows.append(row)
        return (
            "Table 3: accuracy of Markov-model optimization estimates\n"
            + format_table(headers, rows)
        )


def run_table03(scale: ExperimentScale | None = None) -> Table3Result:
    """Regenerate Table 3."""
    scale = scale or ExperimentScale.from_env()
    result = Table3Result(scale=scale)
    for benchmark in BENCHMARKS:
        artifacts = train(ClusterSpec(
            benchmark=benchmark,
            num_partitions=scale.accuracy_partitions,
            trace_transactions=scale.trace_transactions,
            seed=scale.seed,
        ))
        instance = artifacts.benchmark
        training, testing = artifacts.trace.halves()
        testing = type(testing)(testing.records[: scale.accuracy_test_transactions])
        base_chooser = lambda record: instance.generator.home_partition(  # noqa: E731
            ProcedureRequest(record.procedure, record.parameters)
        )
        # Replace the artifacts' models with the training-half models so the
        # partitioned provider is derived from the same data.
        artifacts.models = build_models_from_trace(
            instance.catalog, training, base_partition_chooser=base_chooser
        )
        artifacts.trace = training
        partitioned_provider = build_partitioned_provider(
            artifacts,
            feature_selection="feedforward" if scale.feedforward_selection else "heuristic",
        )
        result.reports[benchmark] = {}
        for label, provider in (
            ("global", artifacts.global_provider()),
            ("partitioned", partitioned_provider),
        ):
            houdini = build_houdini(artifacts, provider=provider, learning=False)
            evaluator = AccuracyEvaluator(houdini, label=f"{benchmark}:{label}")
            result.reports[benchmark][label] = evaluator.evaluate(testing)
    return result


def main() -> None:  # pragma: no cover - CLI convenience
    print(run_table03().format())


if __name__ == "__main__":  # pragma: no cover
    main()
