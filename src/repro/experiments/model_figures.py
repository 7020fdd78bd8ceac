"""Figures 4, 5, 9 and 10 — the model structure figures.

These are not measurements but renderings of the artifacts themselves:

* Fig. 4/5 — the global NewOrder Markov model for a two-partition database
  and the probability table of its GetWarehouse state;
* Fig. 9 — the partitioned NewOrder models and the decision tree above them;
* Fig. 10 — example models for one procedure of each benchmark.

``run_model_figures`` builds the artifacts and returns them along with DOT
renderings so the example scripts (and tests) can inspect or save them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..markov import MarkovModel, to_dot
from ..markov.vertex import VertexKind
from ..session import ClusterSpec, build_partitioned_provider, train
from .common import ExperimentScale


@dataclass
class ModelFigureResult:
    """Artifacts for the model-structure figures."""

    scale: ExperimentScale
    #: Fig. 4: the global NewOrder model on a 2-partition database.
    neworder_model: MarkovModel | None = None
    neworder_dot: str = ""
    #: Fig. 5: the probability table of a GetWarehouse begin-successor state.
    getwarehouse_table: dict = field(default_factory=dict)
    #: Fig. 9: description of the partitioned NewOrder models + decision tree.
    partitioned_description: str = ""
    decision_tree_description: str = ""
    #: Fig. 10: one representative model per benchmark (DOT).
    benchmark_models: dict[str, str] = field(default_factory=dict)

    def format(self) -> str:
        """Human-readable summary (used by the CLI and the bench harness)."""
        lines = ["Model-structure figures (Fig. 4, 5, 9, 10)"]
        if self.neworder_model is not None:
            lines.append(
                f"Fig. 4  NewOrder global model: "
                f"{self.neworder_model.vertex_count()} vertices, "
                f"{self.neworder_model.edge_count()} edges"
            )
        if self.getwarehouse_table:
            lines.append(f"Fig. 5  GetWarehouse probability table: {self.getwarehouse_table}")
        if self.partitioned_description:
            lines.append("Fig. 9  " + self.partitioned_description)
        if self.decision_tree_description:
            lines.append("        " + self.decision_tree_description)
        for benchmark, dot in sorted(self.benchmark_models.items()):
            lines.append(f"Fig. 10 {benchmark}: DOT model of {len(dot)} characters")
        return "\n".join(lines)


def run_model_figures(scale: ExperimentScale | None = None) -> ModelFigureResult:
    """Build the Markov-model artifacts shown in the paper's figures."""
    scale = scale or ExperimentScale.from_env()
    result = ModelFigureResult(scale=scale)

    # Fig. 4/5: NewOrder on two partitions.
    trace_transactions = min(scale.trace_transactions, 2000)
    artifacts = train(ClusterSpec(
        benchmark="tpcc", num_partitions=2,
        trace_transactions=trace_transactions, seed=scale.seed,
    ))
    model = artifacts.models.get("neworder")
    result.neworder_model = model
    if model is not None:
        result.neworder_dot = to_dot(model, min_edge_probability=0.01)
        for target, probability in model.successors(model.begin):
            if target.kind is VertexKind.QUERY and target.name == "GetWarehouse":
                table = model.probability_table(target)
                result.getwarehouse_table = {
                    "single_partition": table.single_partition,
                    "abort": table.abort,
                    "partitions": {
                        p: {
                            "read": table.read_probability(p),
                            "write": table.write_probability(p),
                            "finish": table.finish_probability(p),
                        }
                        for p in range(table.num_partitions)
                    },
                    "edge_probability": probability,
                }
                break

    # Fig. 9: partitioned NewOrder models + decision tree.
    provider = build_partitioned_provider(artifacts, feature_selection="heuristic")
    bundle = provider.bundle_for("neworder")
    if bundle is not None:
        result.partitioned_description = bundle.describe()
        if bundle.decision_tree is not None:
            result.decision_tree_description = bundle.decision_tree.describe()

    # Fig. 10: one representative model per benchmark.
    representatives = {
        "tatp": "InsertCallForwarding",
        "tpcc": "payment",
        "auctionmark": "GetUserInfo",
    }
    for benchmark, procedure in representatives.items():
        bench_artifacts = train(ClusterSpec(
            benchmark=benchmark, num_partitions=4,
            trace_transactions=trace_transactions, seed=scale.seed,
        ))
        bench_model = bench_artifacts.models.get(procedure)
        if bench_model is not None:
            result.benchmark_models[benchmark] = to_dot(
                bench_model, min_edge_probability=0.02
            )
    return result


def main() -> None:  # pragma: no cover - CLI convenience
    result = run_model_figures()
    if result.neworder_model is not None:
        print(f"NewOrder model: {result.neworder_model.vertex_count()} vertices")
    print(result.partitioned_description)
    print(result.decision_tree_description)


if __name__ == "__main__":  # pragma: no cover
    main()
