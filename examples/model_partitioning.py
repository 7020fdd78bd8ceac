"""Model partitioning walk-through (paper Section 5 / Figure 9).

Extracts the Table-1 features from NewOrder transactions, runs feed-forward
feature selection on a small trace, clusters the transactions, builds one
Markov model per cluster, prints the decision tree that routes new requests
to the right model, and compares global vs partitioned estimate accuracy on a
held-out workload (the Table 3 comparison, one benchmark at a time).

Run with::

    python examples/model_partitioning.py
"""

from repro.evaluation import AccuracyEvaluator
from repro.houdini import GlobalModelProvider, Houdini, HoudiniConfig
from repro.modelpart import FeatureExtractor, ModelPartitioner, PartitionerConfig
from repro.session import ClusterSpec, build_partitioned_provider, record_trace, train
from repro.types import ProcedureRequest


def main() -> None:
    artifacts = train(ClusterSpec(
        benchmark="auctionmark", num_partitions=4, trace_transactions=2500, seed=4
    ))
    instance = artifacts.benchmark
    config = HoudiniConfig(
        disabled_procedures=instance.bundle.houdini_disabled_procedures
    )

    print("== Feature extraction (Table 1 / Table 2) ==")
    extractor = FeatureExtractor(
        instance.catalog.procedure("GetUserInfo"), instance.catalog.scheme
    )
    sample = ProcedureRequest.of("GetUserInfo", (7, 1, 0, 1))
    for name, value in sorted(extractor.extract(sample.parameters).items()):
        if value is not None:
            print(f"  {name:38s} = {value}")

    print("\n== Feed-forward feature selection for GetUserInfo (Section 5.2) ==")
    partitioner = ModelPartitioner(
        instance.catalog,
        artifacts.mappings,
        houdini_config=config,
        config=PartitionerConfig(feature_selection="feedforward", max_rounds=2,
                                 max_test_records=200, max_clusters=4),
        base_partition_chooser=lambda record: instance.generator.home_partition(
            ProcedureRequest(record.procedure, record.parameters)
        ),
    )
    records = artifacts.trace.for_procedure("GetUserInfo")
    candidates = extractor.informative_definitions([r.parameters for r in records[:200]])
    search = partitioner.select_features(
        records, "GetUserInfo", extractor, candidates, artifacts.models["GetUserInfo"]
    )
    print(f"  evaluated {search.evaluated_sets} feature sets over {search.rounds} round(s)")
    print(f"  baseline (global model) cost per txn: {search.baseline_cost:.3f}")
    print(f"  best cost per txn:                    {search.best_cost:.3f}")
    print(f"  selected features: {[f.name for f in search.best_features] or '(keep global model)'}")

    print("\n== Partitioned models + run-time decision tree (Fig. 9) ==")
    provider = build_partitioned_provider(
        artifacts, feature_selection="heuristic", houdini_config=config
    )
    print(provider.describe())
    bundle = provider.bundle_for("GetUserInfo")
    if bundle is not None and bundle.decision_tree is not None:
        print("\nDecision tree for GetUserInfo:")
        print(bundle.decision_tree.describe())

    print("\n== Global vs partitioned estimate accuracy on a held-out workload ==")
    held_out = record_trace(instance, 600)
    for label, model_provider in (
        ("global", GlobalModelProvider(artifacts.models)),
        ("partitioned", provider),
    ):
        houdini = Houdini(instance.catalog, model_provider, artifacts.mappings,
                          config, learning=False)
        report = AccuracyEvaluator(houdini, label=label).evaluate(held_out)
        print(f"  {label:12s} {report.as_row()}")


if __name__ == "__main__":
    main()
