"""Ablation — estimate caching for single-partition procedures (paper §6.3).

The paper notes that very short single-partition transactions can spend a
large share of their time inside Houdini (46.5% for AuctionMark's
``NewComment``) and that caching the estimates of non-abortable,
always-single-partition procedures would remove that overhead entirely.

The plan memo is the *default operating mode* now, so this benchmark checks
three things on TATP (whose workload is dominated by exactly such
procedures):

* **decision equivalence** — planning with the memo and planning without it
  (a model walk per request) must produce byte-identical optimization
  decisions and identical charged (simulated) estimation costs; this is
  what the CI smoke job asserts on every PR;
* **overhead** — wall-clock planning latency drops versus per-request
  walks;
* **§6.3 what-if** — the ``estimate_cache_simulated_savings`` mode
  reproduces the paper's simulated estimation-cost reduction.
"""

import os
import time

from repro.houdini import Houdini, HoudiniConfig
from repro.session import ClusterSpec, train


def _houdini(artifacts, **config_kwargs) -> Houdini:
    return Houdini(
        artifacts.benchmark.catalog,
        artifacts.global_provider(),
        artifacts.mappings,
        HoudiniConfig(
            disabled_procedures=artifacts.benchmark.bundle.houdini_disabled_procedures,
            **config_kwargs,
        ),
        learning=False,
    )


def _decision_fields(decision):
    return (
        decision.base_partition,
        decision.locked_partitions,
        decision.predicted_single_partition,
        decision.disable_undo,
        sorted(decision.finish_after_query.items()),
        decision.abort_probability,
        decision.confidence,
    )


def test_estimate_cache_reduces_planning_overhead(benchmark, scale, save_result):
    artifacts = train(ClusterSpec(
        benchmark="tatp",
        num_partitions=scale.accuracy_partitions,
        trace_transactions=scale.trace_transactions,
        seed=scale.seed,
    ))
    requests = artifacts.benchmark.generator.generate(
        max(300, scale.accuracy_test_transactions // 2)
    )

    def plan_all(houdini: Houdini):
        for request in requests[: len(requests) // 3]:
            houdini.plan(request)  # warm the memo and intern tables
        started = time.perf_counter()
        plans = [houdini.plan(request) for request in requests]
        wall_ms = (time.perf_counter() - started) * 1000.0
        charged = sum(plan.plan.estimation_ms for plan in plans)
        return plans, charged / len(requests), wall_ms / len(requests)

    default_houdini = _houdini(artifacts)  # plan memo on
    (default_plans, default_cost, default_wall) = benchmark.pedantic(
        plan_all, args=(default_houdini,), rounds=1, iterations=1
    )
    walk_plans, walk_cost, walk_wall = plan_all(
        _houdini(artifacts, enable_estimate_caching=False)
    )
    _, savings_cost, _ = plan_all(
        _houdini(artifacts, estimate_cache_simulated_savings=True)
    )
    cache = default_houdini.estimate_cache
    assert cache is not None

    # Decision equivalence: both planning modes must agree on every single
    # decision and on the charged estimation cost (default neutral charging
    # keeps simulated metrics byte-identical however a plan was produced).
    for default_plan, walk_plan in zip(default_plans, walk_plans):
        assert _decision_fields(default_plan.decision) == _decision_fields(
            walk_plan.decision
        )
        assert default_plan.plan.estimation_ms == walk_plan.plan.estimation_ms
    assert default_cost == walk_cost

    stats = cache.stats
    save_result(
        "ablation_estimate_cache",
        "Memoized planning (TATP; default mode charges hits neutrally)\n"
        f"  wall-clock planning:  {walk_wall:.4f} ms/txn walking every request, "
        f"{default_wall:.4f} ms/txn default (memo) — "
        f"{100.0 * (1 - default_wall / walk_wall):.1f}% less\n"
        f"  simulated (neutral):  {default_cost:.4f} ms/txn — identical in both "
        f"modes (decision equivalence holds for all {len(requests)} requests)\n"
        f"  simulated (§6.3 what-if): {savings_cost:.4f} ms/txn vs "
        f"{walk_cost:.4f} ms/txn uncached "
        f"({100.0 * (1 - savings_cost / walk_cost):.1f}% less)\n"
        f"  memo: hit rate {stats.hit_rate:.1%} over {stats.lookups} lookups "
        f"({stats.hits} hits, {stats.misses} misses, "
        f"{stats.uncacheable} uncacheable), {len(cache)} entries",
    )
    # TATP repeats a small set of single-partition procedures over a bounded
    # subscriber key space: the cache must get hits and the §6.3 what-if mode
    # must show the simulated savings the paper describes.  Both are
    # deterministic, so they gate CI.  The wall-clock comparison is only
    # asserted on hosts opted in via REPRO_BENCH_STRICT=1 — shared CI
    # runners are too noisy for a hard timing gate.
    assert cache.stats.hits > 0
    assert savings_cost < walk_cost
    if os.environ.get("REPRO_BENCH_STRICT") == "1":
        assert default_wall < walk_wall
