"""End-to-end benchmark runner: one command, every metric by name, outputs checked.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--seconds S]
                                  [--trace [0|1]] [--check-agreement]

Without ``--workload`` every workload runs, one at a time, each in a fresh
child process (``peak_rss_mib`` is that process's ``ru_maxrss``).  With
``--trace`` a run reports the per-layer metrics instead of the end-to-end
ones: end-to-end numbers are always taken with the span wrappers absent.
The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; a failed correctness
check is named on the lines above it and makes the exit code non-zero.

See ``README.md`` beside this file for the protocol and how to read a report.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
# As a script, this directory already leads ``sys.path``; only ``src`` is missing.
sys.path.insert(0, str(REPO_ROOT / "src"))

import calibrate  # noqa: E402
import spans  # noqa: E402


@functools.cache
def load_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def protocol() -> dict:
    """Measurement constants, pinned values and the recorded baseline."""
    return load_json(HERE / "protocol.json")


def declared(kind: str) -> dict[str, dict]:
    """``BENCHMARK.json``'s ``end_to_end`` or ``per_layer`` metrics by name."""
    contract = load_json(REPO_ROOT / "BENCHMARK.json")
    return {entry["name"]: entry for entry in contract[kind]}


#: Set-up stages, in order; each is one public call (see :func:`timed_artifacts`).
SETUP_STAGES = ("build_benchmark", "record_trace", "build_models", "build_mappings", "open")

#: A child must finish inside the driver's 180 s cap on one run.
CHILD_TIMEOUT_S = 170

#: Spans written to ``results/<workload>.spans.json`` (the layer totals
#: always cover every span).
SPAN_FILE_LIMIT = 200_000


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
class StageTimer:
    """Times set-up stages, sampling the kernel before the first and after each."""

    def __init__(self) -> None:
        self._samples = protocol()["kernel_samples"]
        self.walls: list[float] = []
        self.kernels = [calibrate.kernel_wall(self._samples)]

    def stage(self, function):
        started = time.perf_counter()
        value = function()
        self.walls.append(time.perf_counter() - started)
        self.kernels.append(calibrate.kernel_wall(self._samples))
        return value

    def ref_seconds(self) -> list[float]:
        """Per-stage reference-seconds, normalised by this set-up's kernel mean."""
        scale = protocol()["calib_ref_s"] / statistics.fmean(self.kernels)
        return [wall * scale for wall in self.walls]


def timed_artifacts(spec):
    """The off-line stages of a fresh set-up, exactly as ``session.train`` runs them."""
    from repro import session as api
    from repro.mapping import build_parameter_mappings
    from repro.markov import build_models_from_trace
    from repro.types import ProcedureRequest

    timer = StageTimer()
    instance = timer.stage(lambda: api.build_benchmark(
        spec.benchmark, spec.num_partitions, seed=spec.seed,
        partitions_per_node=spec.partitions_per_node,
        config_overrides=spec.benchmark_config,
    ))
    trace = timer.stage(lambda: api.record_trace(instance, spec.trace_transactions))
    models = timer.stage(lambda: build_models_from_trace(
        instance.catalog, trace,
        base_partition_chooser=lambda record: instance.generator.home_partition(
            ProcedureRequest(record.procedure, record.parameters)
        ),
    ))
    mappings = timer.stage(lambda: build_parameter_mappings(instance.catalog, trace))
    artifacts = api.TrainedArtifacts(
        trace=trace, models=models, mappings=mappings, benchmark=instance
    )
    return artifacts, timer


def timed_open(workload, seed: int, artifacts, timer: StageTimer):
    """The last stage: open the session and aim it at the seed's requests."""
    from repro.session import Cluster

    def open_session():
        session = Cluster.open(workload.make_spec(seed), artifacts=artifacts)
        workload.seed_requests(session, seed)
        return session

    return timer.stage(open_session)


def timed_setup(workload, seed: int):
    """One fresh set-up; returns ``(session, timer)``."""
    artifacts, timer = timed_artifacts(workload.make_spec(seed))
    return timed_open(workload, seed, artifacts, timer), timer


# ----------------------------------------------------------------------
# Measured phase
# ----------------------------------------------------------------------
def measure(session, workload, segments: int) -> dict:
    """Drive ``segments`` segments plus the closing drain, kernel interleaved.

    GC is off inside segments and collected, untimed, once per window.
    ``close()`` is timed as the last segment: users pay the drain too.
    """
    clock = time.perf_counter
    samples = protocol()["kernel_samples"]
    window = protocol()["window_segments"]
    kwargs = workload.segment_kwargs()
    run_for = session.run_for
    calibrate.kernel_wall(3)  # warm the kernel's own code path
    walls: list[float] = []
    clocks_before: list[float] = []
    gc.collect()
    gc.disable()
    try:
        kernels = [calibrate.kernel_wall(samples)]
        for index in range(segments):
            clocks_before.append(session.now_ms)
            started = clock()
            run_for(**kwargs)
            walls.append(clock() - started)
            kernels.append(calibrate.kernel_wall(samples))
            if (index + 1) % window == 0:
                gc.collect()
        started = clock()
        result = session.close()
        walls.append(clock() - started)
        kernels.append(calibrate.kernel_wall(samples))
    finally:
        gc.enable()
    return {
        "result": result,
        "walls": walls,
        "kernels": kernels,
        "clocks_before": clocks_before,
        "ref_s": calibrate.reference_seconds(
            walls, kernels, window=window, calib_ref_s=protocol()["calib_ref_s"]
        ),
        "spread": calibrate.p90_over_p10(kernels),
    }


# ----------------------------------------------------------------------
# Accounting and checks
# ----------------------------------------------------------------------
def replay_arrivals(session, workload, measured: dict) -> tuple[int, int]:
    """``(arrivals, late)`` from an independent compile of the spec's source.

    The benchmark's own count of what was offered: every arrival due inside
    the driven horizon, and how many of them were injected after they were
    due (none, when arrivals are scheduled in simulated time).
    """
    from repro.workload.sources import CompileContext

    stream = session.spec.workload.compile(
        CompileContext(session.artifacts.benchmark, session.spec.seed)
    )
    arrivals = late = 0
    step_ms = 1000.0 * workload.per_segment
    for clock_before in measured["clocks_before"]:
        batch = stream.take_until(clock_before + step_ms)
        arrivals += len(batch)
        late += sum(1 for arrival in batch if arrival.at_ms < clock_before)
    return arrivals, late


def completions_within(result, limit_ms: float) -> float:
    """Completions at or under ``limit_ms``.  Exact over stored latencies;
    under streaming metrics, the share of the sketch's deterministic
    reservoir (read through ``quantile``) scaled to the completion count."""
    from repro.sim.sketch import RESERVOIR_SIZE

    sketch = result.latency_sketch
    if sketch is None:
        return float(sum(1 for latency in result.latencies_ms if latency <= limit_ms))
    size = min(len(sketch), RESERVOIR_SIZE)
    low, high = 0, size  # how many order statistics are <= limit: low <= n <= high
    while low < high:
        middle = (low + high + 1) // 2
        # (middle - 0.5) / size selects the middle-th smallest reservoir
        # value and is never one of the P2-tracked quantiles.
        if sketch.quantile((middle - 0.5) / size) <= limit_ms:
            low = middle
        else:
            high = middle - 1
    return len(sketch) * low / size if size else 0.0


def account(session, workload, measured: dict) -> dict:
    """Operation counts of a measured run and the conservation checks."""
    result = measured["result"]
    segments = len(measured["clocks_before"])
    completed = result.committed + result.user_aborted
    checks: dict[str, bool] = {}
    if workload.open_loop:
        attempted, late = replay_arrivals(session, workload, measured)
    else:
        attempted, late = session.simulator.submitted, 0
        checks["budget"] = attempted == segments * int(workload.per_segment)
    checks["conservation"] = attempted == completed + result.rejected
    checks["late_arrivals"] = late == 0
    sketch = result.latency_sketch
    samples = len(sketch) if sketch is not None else len(result.latencies_ms)
    checks["latency_samples"] = samples == completed
    return {
        "attempted": attempted,
        "completed": completed,
        "failed": attempted - completed,
        "late": late,
        "checks": checks,
    }


def pinned_checks(workload, seed: int, seconds: float, result) -> dict[str, bool]:
    """Seed-0 simulated values recorded when the benchmark was defined."""
    pinned = protocol()["pinned"]
    if seed != pinned["seed"] or seconds != pinned["seconds"]:
        return {}
    expected = pinned["workloads"][workload.name]
    throughput = result.throughput_txn_per_sec
    return {
        "pinned_sim_txn_per_s": abs(throughput - expected["sim_txn_per_s"])
        <= 1e-6 * expected["sim_txn_per_s"],
        "pinned_committed": result.committed == expected["committed"],
    }


# ----------------------------------------------------------------------
# One workload, untraced: the end-to-end metrics
# ----------------------------------------------------------------------
def run_end_to_end(workload, seed: int, seconds: float) -> dict:
    segments = workload.segments(seconds)
    setups: list[StageTimer] = []
    session = None
    for _ in range(protocol()["setup_repeats"]):
        session = None  # drop the previous database before building the next
        session, timer = timed_setup(workload, seed)
        setups.append(timer)
    measured = measure(session, workload, segments)
    checks: dict[str, bool] = {}
    disturbed = measured["spread"] > protocol()["disturbed_p90_over_p10"]
    if disturbed:
        # The host was unsteady: measure once more on a fresh session.  The
        # simulated outcome must not care.
        first = measured["result"].to_dict()
        session = None
        session, _ = timed_setup(workload, seed)
        measured = measure(session, workload, segments)
        checks["rerun_equal"] = first == measured["result"].to_dict()
    # Read before the accounting below allocates anything of its own.
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = measured["result"]
    counts = account(session, workload, measured)
    checks.update(counts["checks"])
    checks.update(pinned_checks(workload, seed, seconds, result))
    attempted = counts["attempted"]
    within = completions_within(result, workload.latency_limit_ms)
    metrics = {
        "setup_s": statistics.median(sum(timer.ref_seconds()) for timer in setups),
        "host_txn_per_ref_s": attempted / measured["ref_s"],
        "peak_rss_mib": peak_rss_mib,
        "sim_txn_per_s": result.throughput_txn_per_sec,
        "sim_latency_p50_ms": result.latency_quantile(0.5),
        "sim_latency_p99_ms": result.latency_quantile(0.99),
        "within_limit_share": within / attempted,
    }
    info = {
        "segments": segments,
        "latency_samples": counts["completed"],
        "latency_limit_ms": workload.latency_limit_ms,
        "committed": result.committed,
        "setup.wall_s": statistics.median(sum(timer.walls) for timer in setups),
        "sim.simulator.wall_txn_per_s": attempted / sum(measured["walls"]),
        "host.calib_median_ms": 1e3 * statistics.median(measured["kernels"]),
        "host.calib_p90_over_p10": measured["spread"],
        "host.disturbed": int(disturbed),
    }
    return {"metrics": metrics, "info": info, "counts": counts, "checks": checks}


# ----------------------------------------------------------------------
# One workload, traced: the per-layer metrics
# ----------------------------------------------------------------------
def _share(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def exact_layer_counts(session, result, counts: dict, statement_calls: int) -> dict:
    """Layer metrics read from the program's public stats (exact, repeatable).

    A layer the workload does not use reads 0.
    """
    completed = counts["completed"]
    houdini = session.houdini
    cache = houdini.estimate_cache
    rate = houdini.stats.overall_rate
    scheduler = result.scheduler_stats
    admission = result.admission_stats
    tenancy = result.tenancy or {"arrivals": {}, "slo": {}}
    arrivals = sum(entry["arrivals"] for entry in tenancy["arrivals"].values())
    shed = sum(entry["shed"] for entry in tenancy["arrivals"].values())

    def compliance(tenant: str) -> float:
        entry = tenancy["slo"].get(tenant)
        return entry["compliance"] if entry else 0.0

    return {
        "houdini.estimate_cache_hit_rate": cache.stats.hit_rate if cache else 0.0,
        "houdini.op1_correct_share": rate("op1_correct") / 100.0,
        "houdini.op2_correct_share": rate("op2_correct") / 100.0,
        "houdini.op3_enabled_share": rate("op3_enabled") / 100.0,
        "houdini.op4_enabled_share": rate("op4_enabled") / 100.0,
        "houdini.sim_estimation_share": result.overall_estimation_share() / 100.0,
        "houdini.model_recomputations": sum(
            entry.get("recomputations", 0) for entry in result.maintenance.values()
        ),
        "txn.restarts_per_txn": result.restart_rate,
        "txn.distributed_share": _share(result.distributed, completed),
        "engine.statements_per_txn": _share(statement_calls, completed),
        "scheduling.requeues_per_dispatch": _share(scheduler.requeued, scheduler.dispatched),
        "scheduling.reordered_per_dispatch": _share(scheduler.reordered, scheduler.dispatched),
        "scheduling.admission_deferrals_per_txn": _share(
            admission.deferred if admission else 0, completed
        ),
        "scheduling.sim_queue_wait_p95_ms": max(
            (entry["p95_ms"] for entry in scheduler.queue_wait_by_class.values()),
            default=0.0,
        ),
        "tenancy.shed_share": _share(shed, arrivals),
        "tenancy.gold_slo_compliance": compliance("gold"),
        "tenancy.free_slo_compliance": compliance("free"),
        "workload.late_arrivals": counts["late"],
    }


def run_traced(workload, seed: int, seconds: float, spans_dir: Path = HERE / "results") -> dict:
    """The same spec and seed over a fraction of the segments, twice on fresh
    sessions: once plain (the overhead base and the equality reference), once
    with the span wrappers installed from just before ``Cluster.open``.  The
    spans are written to ``spans_dir`` afterwards."""
    segments = max(1, workload.segments(seconds) // protocol()["trace_segment_divisor"])
    session, plain_timer = timed_setup(workload, seed)
    untraced = measure(session, workload, segments)
    checks = {
        f"untraced.{name}": ok
        for name, ok in account(session, workload, untraced)["checks"].items()
    }
    session = None
    recorder = spans.SpanRecorder()
    artifacts, traced_timer = timed_artifacts(workload.make_spec(seed))
    with spans.instrument(recorder):
        session = timed_open(workload, seed, artifacts, traced_timer)
        recorder.active = True
        try:
            traced = measure(session, workload, segments)
        finally:
            recorder.active = False
    result = traced["result"]
    counts = account(session, workload, traced)
    checks.update(counts["checks"])
    checks["traced_equals_untraced"] = untraced["result"].to_dict() == result.to_dict()

    attempted = counts["attempted"]
    layered = recorder.by_layer()
    traced_ref_us = 1e6 * traced["ref_s"]
    metrics = {}
    for layer, entry in layered["layers"].items():
        share = _share(entry["self_s"], layered["root_s"])
        metrics[f"{layer}.calls_per_txn"] = entry["calls"] / attempted
        metrics[f"{layer}.self_share"] = share
        metrics[f"{layer}.self_ref_us_per_txn"] = share * traced_ref_us / attempted
    checks["self_shares_sum_to_one"] = abs(
        sum(metrics[f"{layer}.self_share"] for layer in spans.LAYERS) - 1.0
    ) <= 0.01
    metrics.update(exact_layer_counts(
        session, result, counts, layered["calls"]["StatementExecutor.execute"]
    ))
    timers = (plain_timer, traced_timer)
    for index, stage in enumerate(SETUP_STAGES):
        metrics[f"setup.{stage}_ref_s"] = statistics.median(
            timer.ref_seconds()[index] for timer in timers
        )
    kernels = untraced["kernels"] + traced["kernels"]
    spread = calibrate.p90_over_p10(kernels)
    metrics.update({
        "setup.wall_s": statistics.median(sum(timer.walls) for timer in timers),
        "sim.simulator.wall_txn_per_s": attempted / sum(untraced["walls"]),
        "host.calib_median_ms": 1e3 * statistics.median(kernels),
        "host.calib_p90_over_p10": spread,
        "host.disturbed": int(spread > protocol()["disturbed_p90_over_p10"]),
        "trace.overhead_ratio": traced["ref_s"] / untraced["ref_s"],
    })
    spans_path = spans_dir / f"{workload.name}.spans.json"
    recorder.write(spans_path, limit=SPAN_FILE_LIMIT)
    info = {"segments": segments, "spans": len(recorder), "spans_file": str(spans_path)}
    return {"metrics": metrics, "info": info, "counts": counts, "checks": checks}


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def report_one(workload, seed: int, seconds: float, trace: bool) -> int:
    outcome = (run_traced if trace else run_end_to_end)(workload, seed, seconds)
    contract = declared("per_layer" if trace else "end_to_end")
    metrics = outcome["metrics"]
    checks = outcome["checks"]
    checks["declared_metrics"] = set(metrics) == set(contract)
    units = {name: contract.get(name, {}).get("unit", "?") for name in metrics}
    print(f"workload {workload.name}  seed {seed}  seconds {seconds:g}  "
          f"{'traced' if trace else 'untraced'}")
    for name, value in metrics.items():
        print(f"  {name:42s} {value:16.6f} {units[name]}")
    for name, value in outcome["info"].items():
        print(f"  [{name}] {value}")
    counts = outcome["counts"]
    print(f"  ops_attempted {counts['attempted']}  ops_failed {counts['failed']}")
    failed_checks = [name for name, ok in checks.items() if not ok]
    for name in failed_checks:
        print(f"  CHECK FAILED: {name}")
    print(json.dumps({
        "correct": not failed_checks,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }))
    return 1 if failed_checks else 0


def run_child(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload in a fresh interpreter; echo its report, return its JSON."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
        "--seconds", f"{seconds:g}", "--trace", str(int(trace)),
    ]
    finished = subprocess.run(
        command, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
    )
    lines = finished.stdout.splitlines()
    print("\n".join(lines[:-1]))
    try:
        document = json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    document["correct"] = document["correct"] and finished.returncode == 0
    return document


def run_all(names: list[str], seed: int, seconds: float, trace: bool) -> dict:
    """Every workload, one child at a time; with ``trace``, both kinds of run.

    Metrics are merged as ``<workload>.<metric>``.
    """
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        for traced in ((False, True) if trace else (False,)):
            document = run_child(name, seed, seconds, traced)
            merged["correct"] = merged["correct"] and document["correct"]
            if not traced:
                merged["attempted"] += document["attempted"]
                merged["failed"] += document["failed"]
            for metric, entry in document["metrics"].items():
                merged["metrics"][f"{name}.{metric}"] = entry
    return merged


def check_agreement(names: list[str], seed: int, seconds: float) -> int:
    """Run the untraced set twice; every end-to-end metric must agree within
    its bound.  Also prints the second set as a ``baseline`` block."""
    first = run_all(names, seed, seconds, trace=False)
    second = run_all(names, seed, seconds, trace=False)
    bounds = declared("end_to_end")
    over = []
    print(f"{'metric':48s} {'first':>14s} {'second':>14s} {'gap':>8s} {'bound':>7s}")
    for key, entry in first["metrics"].items():
        if key not in second["metrics"]:
            over.append(key)
            continue
        a, b = entry["value"], second["metrics"][key]["value"]
        gap = abs(a - b) / abs(a) if a else float(a != b)
        bound = bounds[key.split(".", 1)[1]]["bound"]
        print(f"{key:48s} {a:14.6f} {b:14.6f} {gap:8.4f} {bound:7.3f}"
              f"{'  OVER' if gap > bound else ''}")
        if gap > bound:
            over.append(key)
    correct = first["correct"] and second["correct"] and not over
    print(json.dumps({"baseline": {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "seed": seed,
        "seconds": seconds,
        "values": {key: entry["value"] for key, entry in second["metrics"].items()},
    }}))
    print(json.dumps({**second, "correct": correct}))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=load_json(REPO_ROOT / "BENCHMARK.json")["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--check-agreement", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    names = [args.workload] if args.workload else list(WORKLOADS)
    if args.check_agreement:
        return check_agreement(names, args.seed, args.seconds)
    if args.workload:
        return report_one(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    merged = run_all(names, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
