"""Initial path estimation walk-through (paper Figures 7 and 8).

Shows how Houdini turns a new NewOrder request into an initial execution-path
estimate: the parameter mapping links procedure inputs to query inputs
(Fig. 7), the estimator walks the Markov model choosing the transitions that
match the partitions computed from those inputs (Fig. 8), and the
optimization selector converts the path into the concrete OP1-OP4 decisions.

Run with::

    python examples/path_estimation.py
"""

from repro.houdini import GlobalModelProvider, HoudiniConfig, OptimizationSelector, PathEstimator
from repro.session import ClusterSpec, train
from repro.types import ProcedureRequest


def main() -> None:
    artifacts = train(ClusterSpec(
        benchmark="tpcc", num_partitions=2, trace_transactions=1500, seed=2
    ))
    catalog = artifacts.benchmark.catalog
    config = HoudiniConfig()
    estimator = PathEstimator(
        catalog, GlobalModelProvider(artifacts.models), artifacts.mappings, config
    )
    selector = OptimizationSelector(config, catalog.num_partitions, 2)

    print("== Parameter mapping for NewOrder (Fig. 7) ==")
    print(artifacts.mappings["neworder"].describe())

    # The request from the paper's running example: w_id=0, items 1001/1002
    # from warehouses 0 and 1 (i.e. the transaction is distributed).
    request = ProcedureRequest.of(
        "neworder", (0, 0, 1, (101, 102), (0, 1), (2, 7))
    )
    print("\n== Initial path estimate (Fig. 8) ==")
    estimate = estimator.estimate(request)
    print(estimate.describe())
    print(f"\npredicted partitions: {estimate.touched_partitions()}")
    print(f"predicted single-partition: {estimate.predicted_single_partition()}")
    print(f"abort probability: {estimate.abort_probability:.3f}")
    print(f"footprint from mappings alone: "
          f"{sorted(estimator.predicted_footprint(request) or ())}")

    print("\n== Selected optimizations (Section 4.3) ==")
    decision = selector.decide(request, estimate, artifacts.models["neworder"])
    print(f"OP1 base partition:    {decision.base_partition}")
    print(f"OP2 locked partitions: {list(decision.locked_partitions)}")
    print(f"OP3 disable undo:      {decision.disable_undo}")
    print(f"OP4 finish points:     {decision.finish_after_query}")

    print("\n== The same request with every item local ==")
    local = ProcedureRequest.of("neworder", (0, 0, 1, (101, 102), (0, 0), (2, 7)))
    local_estimate = estimator.estimate(local)
    local_decision = selector.decide(local, local_estimate, artifacts.models["neworder"])
    print(f"predicted partitions:  {local_estimate.touched_partitions()}")
    print(f"OP2 locked partitions: {list(local_decision.locked_partitions)}")


if __name__ == "__main__":
    main()
