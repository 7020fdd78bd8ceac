"""Train once, deploy everywhere: durable artifact bundles (paper Fig. 6).

The paper splits Houdini's life cycle in two: models and parameter mappings
are generated **off-line** from a workload trace, then every node of the
cluster consumes them **on-line**.  This example plays both roles:

1. an "offline" process trains on TPC-C and writes an artifact bundle to
   disk (JSON files: models, mappings, metadata);
2. an "online" node loads the bundle — without retraining — checks that it
   matches its cluster layout, and uses it to plan live requests;
3. the example also shows the §6.3 estimate cache cutting the per-request
   estimation cost for the repetitive single-partition workload.

Run with::

    python examples/deploy_artifacts.py
"""

import tempfile
from pathlib import Path

from repro import ArtifactBundle
from repro.houdini import Houdini, HoudiniConfig
from repro.session import ClusterSpec, build_benchmark, train


def offline_training(directory: Path) -> None:
    print("== Off-line: train on a workload trace and write the bundle ==")
    trained = train(ClusterSpec(
        benchmark="tpcc", num_partitions=4, trace_transactions=1500, seed=3
    ))
    bundle = ArtifactBundle.from_trained(trained)
    target = bundle.save(directory)
    print(f"  {bundle.describe()}")
    print(f"  written to {target}")
    for name in sorted(bundle.models):
        model = bundle.models[name]
        print(f"    {name}: {model.vertex_count()} states / {model.edge_count()} edges")
    print()


def online_node(directory: Path) -> None:
    print("== On-line: a cluster node loads the bundle and plans requests ==")
    bundle = ArtifactBundle.load(directory)
    print(f"  loaded {bundle.describe()}")

    # The node rebuilds the benchmark substrate (schema + generator) but NOT
    # the models: those come straight from the bundle.
    instance = build_benchmark("tpcc", bundle.num_partitions, seed=99)
    if not bundle.matches_cluster(bundle.num_partitions):
        raise SystemExit("bundle was trained for a different cluster layout")

    houdini = Houdini(
        instance.catalog,
        bundle.provider(),
        bundle.mappings,
        HoudiniConfig(enable_estimate_caching=True),
        learning=False,
    )

    single_partition = 0
    for _ in range(400):
        request = instance.generator.next_request()
        plan = houdini.plan(request)
        if plan.decision.predicted_single_partition:
            single_partition += 1
    print(f"  planned 400 live requests, {single_partition} predicted single-partition")
    cache = houdini.estimate_cache
    assert cache is not None
    print(f"  estimate cache: {cache.describe()}")
    print()
    print("Average estimation cost per procedure (loaded models, no retraining):")
    for name in sorted(houdini.stats.procedures):
        stats = houdini.stats.procedures[name]
        print(f"  {name:16s} {stats.average_estimation_ms:6.3f} ms over {stats.transactions} plans")


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="repro-artifacts-") as tmp:
        directory = Path(tmp) / "tpcc-artifacts"
        offline_training(directory)
        online_node(directory)


if __name__ == "__main__":
    main()
