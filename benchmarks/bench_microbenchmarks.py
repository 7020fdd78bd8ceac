"""Micro-benchmarks of the hot on-line code paths.

These measure the raw per-call cost of the pieces Houdini executes for every
transaction (path estimation, optimization selection, run-time monitoring)
and of the substrate underneath (statement execution, trace-to-model
construction).  They are not paper figures but guard against performance
regressions in the reproduction itself.
"""

import pytest

from repro import pipeline
from repro.houdini import GlobalModelProvider, Houdini, HoudiniConfig
from repro.markov import MarkovModelBuilder
from repro.types import ProcedureRequest


@pytest.fixture(scope="module")
def artifacts(scale):
    return pipeline.train(
        "tpcc", 4, trace_transactions=min(scale.trace_transactions, 1500), seed=scale.seed
    )


def test_path_estimation_latency(benchmark, artifacts):
    houdini = Houdini(
        artifacts.benchmark.catalog,
        GlobalModelProvider(artifacts.models),
        artifacts.mappings,
        HoudiniConfig(),
        learning=False,
    )
    request = ProcedureRequest.of(
        "neworder", (1, 0, 3, (5, 9, 12, 14, 2), (1, 1, 1, 1, 1), (2, 1, 4, 3, 1))
    )
    benchmark(houdini.estimate, request)


def test_full_plan_latency(benchmark, artifacts):
    houdini = Houdini(
        artifacts.benchmark.catalog,
        GlobalModelProvider(artifacts.models),
        artifacts.mappings,
        HoudiniConfig(),
        learning=False,
    )
    request = ProcedureRequest.of("payment", (0, 0, 2, 1, 5, 42.0))
    benchmark(houdini.plan, request)


def test_transaction_execution_latency(benchmark, artifacts):
    from repro.engine import ExecutionEngine

    engine = ExecutionEngine(artifacts.benchmark.catalog, artifacts.benchmark.database)
    request = ProcedureRequest.of("payment", (0, 0, 0, 0, 5, 1.0))
    benchmark(engine.execute_attempt, request, base_partition=0)


def test_model_construction_throughput(benchmark, artifacts):
    builder = MarkovModelBuilder(artifacts.benchmark.catalog)
    neworder_trace = artifacts.trace.for_procedure("neworder")
    benchmark.pedantic(
        builder.build_for_procedure, args=(neworder_trace, "neworder"), rounds=2, iterations=1
    )


# ----------------------------------------------------------------------
# Machine-readable estimation-throughput tracking (BENCH_estimation.json)
# ----------------------------------------------------------------------
PLAN_ROUNDS = 5
PLAN_REQUESTS = 2000
PLAN_WARMUP = 300


def _planner(artifacts, *, memo: bool, requests):
    """A warmed-up learning-off ``Houdini`` with the plan memo on or off."""
    houdini = Houdini(
        artifacts.benchmark.catalog,
        artifacts.global_provider(),
        artifacts.mappings,
        HoudiniConfig(
            enable_estimate_caching=memo,
            disabled_procedures=artifacts.benchmark.bundle.houdini_disabled_procedures,
        ),
        learning=False,
    )
    for request in requests[:PLAN_WARMUP]:
        houdini.plan(request)
    return houdini


def _plan_round(houdini, requests) -> float:
    """Plans per CPU second over one pass of ``requests``."""
    import time

    started = time.process_time()
    for request in requests:
        houdini.plan(request)
    return len(requests) / (time.process_time() - started)


def test_estimation_throughput_tracking(scale, save_result):
    """Emit BENCH_estimation.json: the two planning layers, as one ratio.

    Plans/sec on TATP and TPC-C with the plan memo on (probe, then a walk on
    first sight of a signature) and off (a model walk per request), taken in
    alternating rounds inside one process so host drift hits both sides
    alike.  ``memo_on_over_off`` is the reading to track; the absolute
    rates move with the host's effective CPU speed.
    """
    import gc
    import json
    from pathlib import Path

    report = {
        "protocol": {
            "clock": "time.process_time (CPU seconds)",
            "requests_per_round": PLAN_REQUESTS,
            "rounds": PLAN_ROUNDS,
            "aggregate": "best of rounds; memo-on and memo-off rounds alternate",
            "warmup_requests": PLAN_WARMUP,
            "gc": "disabled during measurement",
            "learning": False,
            "partitions": 4,
            "trace_transactions": 1500,
        },
    }
    for name in ("tatp", "tpcc"):
        artifacts = pipeline.train(
            name, 4, trace_transactions=min(scale.trace_transactions, 1500),
            seed=scale.seed,
        )
        requests = artifacts.benchmark.generator.generate(PLAN_REQUESTS)
        on = _planner(artifacts, memo=True, requests=requests)
        off = _planner(artifacts, memo=False, requests=requests)
        best_on = best_off = 0.0
        gc.collect()
        gc.disable()
        try:
            for _ in range(PLAN_ROUNDS):
                best_on = max(best_on, _plan_round(on, requests))
                best_off = max(best_off, _plan_round(off, requests))
        finally:
            gc.enable()
        report[name] = {
            "memo_on_plans_per_sec": round(best_on, 1),
            "memo_off_plans_per_sec": round(best_off, 1),
            "memo_on_over_off": round(best_on / best_off, 2),
            "memo_hit_rate": round(on.estimate_cache.stats.hit_rate, 4),
        }
        # The probe must not lose to the walk it replaces.
        assert best_on >= best_off
    out_path = Path(__file__).resolve().parent.parent / "BENCH_estimation.json"
    out_path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    save_result(
        "estimation_throughput",
        "Planning throughput (plans/sec, learning off)\n"
        + "\n".join(
            f"  {name}: memo on {report[name]['memo_on_plans_per_sec']:.0f}, "
            f"off {report[name]['memo_off_plans_per_sec']:.0f} plans/s "
            f"({report[name]['memo_on_over_off']:.2f}x, "
            f"hit rate {report[name]['memo_hit_rate']:.1%})"
            for name in ("tatp", "tpcc")
        ),
    )
