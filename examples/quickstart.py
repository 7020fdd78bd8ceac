"""Quickstart: train Markov models on TPC-C and let Houdini plan transactions.

This walks the paper's full pipeline (Fig. 6) end to end on a small
four-partition cluster:

1. build and populate the TPC-C benchmark,
2. record a sample workload trace by executing real transactions,
3. derive the off-line artifacts (Markov models + parameter mappings),
4. assemble Houdini and plan a few incoming requests,
5. open one cluster session per execution strategy over the *shared*
   artifacts and compare simulated throughput.

Run with::

    python examples/quickstart.py

Set ``REPRO_QUICKSTART_SCALE`` (e.g. ``0.25``) to shrink the trace and the
simulated runs proportionally — the CI smoke job uses this to exercise the
whole public API path in seconds.
"""

import os
from dataclasses import replace

from repro.markov import models_summary
from repro.session import Cluster, ClusterSpec, build_houdini, train
from repro.types import ProcedureRequest

#: Scale factor for trace/simulation sizes (CI runs with a fraction).
SCALE = float(os.environ.get("REPRO_QUICKSTART_SCALE", "1"))
TRACE_TXNS = max(200, int(1000 * SCALE))
SIM_TXNS = max(150, int(800 * SCALE))


def main() -> None:
    print("== 1-3. Train: populate TPC-C, record a trace, build models ==")
    spec = ClusterSpec(benchmark="tpcc", num_partitions=4, seed=1,
                       trace_transactions=TRACE_TXNS)
    artifacts = train(spec)
    print(models_summary(artifacts.models))
    print()
    print(artifacts.mappings["neworder"].describe())
    print()

    print("== 4. Houdini plans incoming requests ==")
    houdini = build_houdini(artifacts)
    examples = [
        ("single-warehouse NewOrder",
         ProcedureRequest.of("neworder", (1, 0, 3, (5, 9, 12), (1, 1, 1), (2, 1, 4)))),
        ("multi-warehouse NewOrder",
         ProcedureRequest.of("neworder", (1, 0, 3, (5, 9), (1, 2), (2, 1)))),
        ("remote Payment",
         ProcedureRequest.of("payment", (0, 1, 3, 1, 7, 42.0))),
    ]
    for label, request in examples:
        plan = houdini.plan(request)
        print(f"{label}:")
        print(f"  base partition (OP1): {plan.plan.base_partition}")
        print(f"  locked partitions (OP2): {plan.plan.lock_set(4)}")
        print(f"  undo logging disabled (OP3): {not plan.plan.undo_logging}")
        print(f"  predicted abort probability: {plan.plan.predicted_abort_probability:.3f}")
        print(f"  estimated path confidence: {plan.estimate.confidence:.3f}")
    print()

    print("== 5. Simulated throughput: Houdini vs DB2-style redirects ==")
    # One training pass is enough: each mode gets its own session over the
    # shared artifacts.  Fresh per-mode state is not needed because the
    # comparison is qualitative — throughput differences come from each
    # strategy's partition-crossing behaviour under the same workload mix
    # and cluster layout, not from the absolute table sizes, so the database
    # growing across the sequential runs does not change the ordering.  The
    # one cross-mode interaction is Houdini's on-line learning mutating the
    # shared models, which only affects Houdini's own run; the baseline and
    # oracle strategies never read the models.
    for mode in ("assume-single-partition", "houdini", "oracle"):
        with Cluster.open(replace(spec, strategy=mode), artifacts=artifacts) as session:
            result = session.run_for(txns=SIM_TXNS)
        print(f"  {mode:24s} {result.throughput_txn_per_sec:8.1f} txn/s "
              f"(restarts: {result.restarts}, undo disabled: {result.undo_disabled})")


if __name__ == "__main__":
    main()
