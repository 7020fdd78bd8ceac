"""Command-line interface for the reproduction.

The CLI wraps the session API (:mod:`repro.session`) so the library can be
exercised without writing Python:

.. code-block:: console

    $ python -m repro list-benchmarks
    $ python -m repro train tpcc --partitions 8 --trace 2000 --output /tmp/tpcc
    $ python -m repro inspect /tmp/tpcc
    $ python -m repro simulate tpcc --strategy houdini --partitions 8 --json
    $ python -m repro record tatp --transactions 300 --rate 500 --output /tmp/t.jsonl
    $ python -m repro simulate tatp --workload /tmp/t.jsonl --json
    $ python -m repro serve tatp --partitions 4
    $ python -m repro experiment figure03 --scale small
    $ python -m repro knee tatp --users 1000000
    $ python -m repro analyze --strict

``simulate`` runs one configuration through a
:class:`~repro.session.ClusterSession` and prints its summary (or, with
``--json``, the full stable :meth:`SimulationResult.to_dict` document); by
default it drives the closed loop, while ``--workload trace.jsonl`` replays
a recorded trace (``record`` writes one, stamped with open-loop arrival
times) through a :class:`~repro.workload.sources.TraceReplaySource`.
``serve`` opens a long-lived session and reads commands from stdin — a
REPL over the session API (``run N``, ``policy NAME``, ``admission k=v``,
``caching on|off``, ``threshold X``, ``workload ...``, ``inflight``,
``metrics``, ``drain``, ``quit``) — so live-reconfiguration and workload-
switch scenarios can be scripted from the shell.

Every command prints a human-readable report to stdout and exits non-zero on
errors, so it composes with shell scripts and CI jobs.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Sequence

from . import schema
from .artifacts import ArtifactBundle
from .benchmarks import available_benchmarks
from .errors import ReproError
from .experiments import (
    ExperimentScale,
    run_figure03,
    run_figure11,
    run_figure12,
    run_figure13,
    run_model_figures,
    run_overload_knee,
    run_summary,
    run_table03,
    run_table04,
)
from .scheduling.admission import AdmissionLimits
from .selftune import SelfTuneConfig
from .session import STRATEGY_NAMES, Cluster, ClusterSpec, train
from .tenancy import TenancyConfig, TenantPolicy

#: Strategy names accepted by ``repro simulate`` / ``repro serve``.
STRATEGIES = STRATEGY_NAMES

#: Experiment registry: id -> runner returning an object with ``format()``.
EXPERIMENTS: dict[str, Callable] = {
    "figure03": run_figure03,
    "table03": run_table03,
    "figure11": run_figure11,
    "table04": run_table04,
    "figure12": run_figure12,
    "figure13": run_figure13,
    "models": run_model_figures,
    "summary": run_summary,
    "knee": run_overload_knee,
}


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'On Predictive Modeling for Optimizing Transaction "
            "Execution in Parallel OLTP Systems' (Pavlo et al., VLDB 2011)"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser(
        "list-benchmarks", help="list the OLTP benchmarks available for training"
    )

    train = subparsers.add_parser(
        "train", help="record a trace and build Markov models + parameter mappings"
    )
    train.add_argument("benchmark", choices=available_benchmarks())
    train.add_argument("--partitions", type=int, default=8)
    train.add_argument("--trace", type=int, default=2000, help="transactions to record")
    train.add_argument("--seed", type=int, default=0)
    train.add_argument(
        "--output", default=None, help="directory to write the artifact bundle to"
    )

    inspect = subparsers.add_parser(
        "inspect", help="describe a previously saved artifact bundle"
    )
    inspect.add_argument("artifacts", help="directory written by 'repro train --output'")

    simulate = subparsers.add_parser(
        "simulate", help="run the cluster simulator for one configuration"
    )
    simulate.add_argument("benchmark", choices=available_benchmarks())
    simulate.add_argument("--strategy", choices=STRATEGIES, default="houdini")
    simulate.add_argument("--partitions", type=int, default=8)
    simulate.add_argument("--trace", type=int, default=2000)
    simulate.add_argument("--transactions", type=int, default=2000)
    simulate.add_argument("--threshold", type=float, default=None,
                          help="confidence-coefficient threshold (Houdini strategies)")
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument(
        "--workload", default=None, metavar="TRACE_JSONL",
        help="replay a recorded workload trace instead of the closed loop",
    )
    simulate.add_argument(
        "--speedup", type=float, default=1.0,
        help="replay time rescale for --workload (2.0 = twice as fast)",
    )
    simulate.add_argument(
        "--backend", choices=("inline", "sharded"), default="inline",
        help="execution backend: 'sharded' runs partition workers over OS "
        "processes (same simulated results; a determinism and fault-handling "
        "harness)",
    )
    simulate.add_argument(
        "--workers", type=int, default=2,
        help="worker processes for --backend sharded",
    )
    simulate.add_argument(
        "--json", action="store_true",
        help="print the full SimulationResult as a stable JSON document",
    )

    record = subparsers.add_parser(
        "record",
        help="record a timestamped workload trace (replayable via simulate --workload)",
    )
    record.add_argument("benchmark", choices=available_benchmarks())
    record.add_argument("--partitions", type=int, default=8)
    record.add_argument("--transactions", type=int, default=1000,
                        help="transactions to record")
    record.add_argument("--rate", type=float, default=1000.0,
                        help="arrival rate (txn/s) stamped onto the trace")
    record.add_argument("--arrival", choices=("poisson", "uniform", "bursty"),
                        default="poisson")
    record.add_argument("--seed", type=int, default=0)
    record.add_argument("--output", required=True,
                        help="JSON-lines file to write the trace to")

    serve = subparsers.add_parser(
        "serve",
        help="open a long-lived cluster session and read commands from stdin",
    )
    serve.add_argument("benchmark", choices=available_benchmarks())
    serve.add_argument("--strategy", choices=STRATEGIES, default="houdini")
    serve.add_argument("--partitions", type=int, default=8)
    serve.add_argument("--trace", type=int, default=2000)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--backend", choices=("inline", "sharded"), default="inline",
                       help="execution backend (see 'simulate --backend')")
    serve.add_argument("--workers", type=int, default=2,
                       help="worker processes for --backend sharded")

    experiment = subparsers.add_parser(
        "experiment", help="regenerate one of the paper's tables or figures"
    )
    experiment.add_argument("id", choices=sorted(EXPERIMENTS))
    experiment.add_argument(
        "--scale", choices=("small", "medium", "large", "paper"), default="small"
    )

    knee = subparsers.add_parser(
        "knee",
        help="binary-search the open-loop arrival rate to the latency knee "
        "(cohort clients, streaming metrics)",
    )
    knee.add_argument("benchmark", nargs="?", default="tatp",
                      choices=available_benchmarks())
    knee.add_argument(
        "--scale", choices=("small", "medium", "large", "paper"), default="small"
    )
    knee.add_argument(
        "--users", type=int, default=None,
        help="simulated client population (default: 100k small, 1M otherwise)",
    )
    knee.add_argument(
        "--probe-seconds", type=float, default=2.0,
        help="simulated seconds per rate probe",
    )

    analyze = subparsers.add_parser(
        "analyze",
        help="run the AST-based invariant analyzer (determinism, version-"
        "bump, cache-invalidation, cross-process, serialization, stale-"
        "contract rules)",
    )
    analyze.add_argument(
        "paths", nargs="*",
        help="files or directories to scan (default: the installed repro package)",
    )
    analyze.add_argument(
        "--strict", action="store_true",
        help="also fail on stale baseline entries",
    )
    analyze.add_argument(
        "--json", action="store_true", help="emit the full report as JSON"
    )
    analyze.add_argument(
        "--rule", action="append", default=None, metavar="ID",
        help="run only this rule (repeatable; default: all rules)",
    )
    analyze.add_argument(
        "--baseline", default=None, metavar="FILE",
        help="baseline file of grandfathered findings "
        "(default: src/repro/analysis/baseline.json)",
    )
    analyze.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the baseline to grandfather the current findings",
    )

    return parser


# ----------------------------------------------------------------------
# Command implementations
# ----------------------------------------------------------------------
def _cmd_list_benchmarks(_args: argparse.Namespace) -> int:
    for name in available_benchmarks():
        print(name)
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    trained = train(ClusterSpec(
        benchmark=args.benchmark,
        num_partitions=args.partitions,
        trace_transactions=args.trace,
        seed=args.seed,
    ))
    bundle = ArtifactBundle.from_trained(trained)
    print(bundle.describe())
    for name in sorted(trained.models):
        model = trained.models[name]
        print(f"  {name}: {model.vertex_count()} states, {model.edge_count()} edges")
    if args.output:
        target = bundle.save(args.output)
        print(f"artifacts written to {target}")
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    bundle = ArtifactBundle.load(args.artifacts)
    print(bundle.describe())
    for name in sorted(bundle.models):
        model = bundle.models[name]
        print(f"  {name}: {model.vertex_count()} states, {model.edge_count()} edges")
    return 0


def _build_spec(args: argparse.Namespace) -> ClusterSpec:
    houdini_config = None
    if getattr(args, "threshold", None) is not None and args.strategy.startswith("houdini"):
        from .houdini import HoudiniConfig

        houdini_config = HoudiniConfig(confidence_threshold=args.threshold)
    workload = None
    if getattr(args, "workload", None) is not None:
        from .workload import TraceReplaySource

        workload = TraceReplaySource(
            path=args.workload, speedup=getattr(args, "speedup", 1.0)
        )
    return ClusterSpec(
        benchmark=args.benchmark,
        num_partitions=args.partitions,
        trace_transactions=args.trace,
        seed=args.seed,
        strategy=args.strategy,
        houdini=houdini_config,
        workload=workload,
        execution_backend=getattr(args, "backend", "inline"),
        num_workers=getattr(args, "workers", 2),
    )


def _cmd_simulate(args: argparse.Namespace) -> int:
    session = Cluster.open(_build_spec(args))
    session.run_for(txns=args.transactions)
    result = session.close()
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
    else:
        for key, value in result.summary_row().items():
            print(f"{key}: {value}")
    return 0


def _cmd_record(args: argparse.Namespace) -> int:
    from .session import build_benchmark
    from .workload import TraceRecorder, arrival_times

    instance = build_benchmark(args.benchmark, args.partitions, seed=args.seed)
    recorder = TraceRecorder(
        instance.catalog,
        instance.database,
        base_partition_chooser=instance.generator.home_partition,
    )
    trace = recorder.record(
        instance.generator.generate(args.transactions),
        arrival_times_ms=arrival_times(
            args.arrival, args.rate, args.transactions, seed=args.seed
        ),
    )
    trace.save(args.output)
    span_ms = trace[-1].at_ms if len(trace) else 0.0
    print(
        f"recorded {len(trace)} {args.benchmark} transactions "
        f"({args.arrival} arrivals at {args.rate:g} txn/s, "
        f"{span_ms / 1000.0:.2f}s span) to {args.output}"
    )
    return 0


_CONVERT = {"int": int, "float": float, "bool": {"true": True, "false": False}.__getitem__}


def _parse_fields(tokens: Sequence[str], cls, aliases: dict | None = None) -> dict:
    """``k=v[,k=v]`` tokens (commas with or without spaces) as a field dict.

    Each value is converted by the kind ``cls`` declares for the field
    (``none`` is ``None``).  What cannot be converted, and every unknown key,
    passes through as text: the class's own check then names the field with
    its range, or the closest known field.
    """
    out = {}
    for pair in " ".join(tokens).replace(",", " ").split():
        key, _, text = pair.partition("=")
        key = (aliases or {}).get(key, key)
        kind = (schema.rule_of(cls, key) or {}).get("kind")
        try:
            out[key] = None if text == "none" else _CONVERT[kind](text)
        except (KeyError, ValueError):
            out[key] = text
    return out


def _cmd_serve(args: argparse.Namespace) -> int:
    """REPL over a long-lived :class:`~repro.session.ClusterSession`.

    Reads one command per stdin line; unknown commands print usage and keep
    the session alive, so the loop is safe to drive from scripts and CI.
    """
    spec = _build_spec(args)
    print(f"opening {spec.benchmark}/{spec.strategy} with {spec.num_partitions} "
          f"partitions (trace {spec.trace_transactions} txns)...")
    session = Cluster.open(spec)
    print("session open; commands: run N | runfor SECONDS | policy NAME|none"
          " | admission k=v[,k=v]|off | caching on|off | threshold X"
          " | workload closed|open RATE [poisson|uniform|bursty]|trace PATH [SPEEDUP]"
          " | selftune on [k=v,...]|off|status | drift"
          " | tenancy set LABEL k=v[,k=v]|drop LABEL|shared N|shed on|off|status|off"
          " | slo | inflight | metrics [--json] | spec | drain | quit")
    interactive = sys.stdin.isatty()
    while True:
        if interactive:
            print("> ", end="", flush=True)
        line = sys.stdin.readline()
        if not line:
            break
        parts = line.strip().split()
        if not parts:
            continue
        command, rest = parts[0].lower(), parts[1:]
        try:
            if command in ("quit", "exit"):
                break
            elif command == "run":
                count = int(rest[0]) if rest else 100
                result = session.run_for(txns=count)
                print(f"ran {count} txns; t={session.now_ms:.1f}ms "
                      f"throughput={result.throughput_txn_per_sec:.1f} txn/s")
            elif command == "policy":
                name = rest[0] if rest else "none"
                session.reconfigure(policy=None if name == "none" else name)
                print(f"policy -> {session.simulator.scheduler.policy.name}")
            elif command == "admission":
                if rest and rest[0] == "off":
                    session.reconfigure(admission=None)
                    print("admission -> off")
                else:
                    fields = _parse_fields(rest, AdmissionLimits)
                    session.reconfigure(admission=fields)
                    print(f"admission -> {fields}")
            elif command == "caching":
                token = rest[0].lower() if rest else ""
                if token not in ("on", "off"):
                    print("error: caching takes 'on' or 'off'")
                    continue
                session.reconfigure(estimate_caching=token == "on")
                print(f"estimate caching -> {token}")
            elif command == "threshold":
                session.reconfigure(confidence_threshold=float(rest[0]))
                print(f"confidence threshold -> {float(rest[0])}")
            elif command == "runfor":
                seconds = float(rest[0]) if rest else 1.0
                result = session.run_for(sim_seconds=seconds)
                print(f"ran {seconds:g}s of simulated time; t={session.now_ms:.1f}ms "
                      f"committed={result.committed} in_flight={len(session.in_flight())}")
            elif command == "workload":
                from .workload import ClosedLoopSource, OpenLoopSource, TraceReplaySource

                shape = rest[0].lower() if rest else ""
                if shape == "closed":
                    session.reconfigure(workload=ClosedLoopSource(
                        spec.clients_per_partition, spec.client_think_time_ms))
                elif shape == "open":
                    rate = float(rest[1])
                    arrival = rest[2] if len(rest) > 2 else "poisson"
                    session.reconfigure(workload=OpenLoopSource(rate, arrival))
                elif shape == "trace":
                    speedup = float(rest[2]) if len(rest) > 2 else 1.0
                    session.reconfigure(
                        workload=TraceReplaySource(path=rest[1], speedup=speedup))
                else:
                    print("error: workload takes 'closed', 'open RATE [KIND]' "
                          "or 'trace PATH [SPEEDUP]'")
                    continue
                print(f"workload -> {session.workload.to_dict()['kind']}")
            elif command == "selftune":
                token = rest[0].lower() if rest else "status"
                if token == "off":
                    session.reconfigure(selftune=None)
                    print("selftune -> off")
                elif token == "on":
                    fields = _parse_fields(rest[1:], SelfTuneConfig)
                    session.reconfigure(selftune=fields)
                    print(f"selftune -> on {fields or '(defaults)'}")
                elif token == "status":
                    if session.selftune is None:
                        print("selftune: off")
                    else:
                        stats = session.selftune.stats
                        print(f"selftune: on drifts={stats.drifts_detected} "
                              f"retrains={stats.retrains_completed}/"
                              f"{stats.retrains_started} swaps={stats.swaps}")
                else:
                    print("error: selftune takes 'on [k=v,...]', 'off' or 'status'")
            elif command == "drift":
                if session.selftune is None:
                    print("selftune: off (enable with 'selftune on')")
                else:
                    snapshot = session.selftune.snapshot()
                    print(f"drifts={snapshot['drifts_detected']} "
                          f"retrains={snapshot['retrains_completed']}/"
                          f"{snapshot['retrains_started']} swaps={snapshot['swaps']}")
                    for name, entry in snapshot["procedures"].items():
                        verdict = entry["last_verdict"]
                        if verdict is None:
                            print(f"  {name}: observed={entry['observations']} "
                                  f"(no check yet)")
                            continue
                        flag = "DRIFTED" if verdict["drifted"] else "ok"
                        pending = " retraining" if entry["retrain_pending"] else ""
                        print(f"  {name}: {flag} divergence={verdict['divergence']:.3f} "
                              f"accuracy={verdict['accuracy']:.3f} "
                              f"swaps={entry['swaps']}{pending}")
            elif command == "tenancy":
                token = rest[0].lower() if rest else "status"
                manager = session.simulator.tenancy
                base = (
                    manager.config.to_dict()
                    if manager is not None else TenancyConfig().to_dict()
                )
                if token == "off":
                    session.reconfigure(tenancy=None)
                    print("tenancy -> off")
                elif token == "status":
                    if manager is None:
                        print("tenancy: off (enable with 'tenancy set LABEL k=v')")
                    else:
                        print(json.dumps(
                            manager.snapshot(session.simulator.scheduler), indent=2
                        ))
                elif token == "set" and len(rest) >= 2:
                    label = rest[1]
                    policy = {
                        **base["tenants"].get(label, {}),
                        **_parse_fields(rest[2:], TenantPolicy,
                                        {"slo": "slo_latency_ms", "quantile": "slo_quantile"}),
                    }
                    base["tenants"][label] = policy
                    session.reconfigure(tenancy=base)
                    print(f"tenancy[{label}] -> {policy}")
                elif token == "drop" and len(rest) >= 2:
                    if base["tenants"].pop(rest[1], None) is None:
                        print(f"error: unknown tenant {rest[1]!r}")
                        continue
                    session.reconfigure(tenancy=base)
                    print(f"tenancy[{rest[1]}] dropped")
                elif token == "shared" and len(rest) >= 2:
                    base["shared_quota"] = int(rest[1])
                    session.reconfigure(tenancy=base)
                    print(f"tenancy shared_quota -> {base['shared_quota']}")
                elif token == "shed" and len(rest) >= 2:
                    base["shed"] = rest[1].lower() == "on"
                    if len(rest) > 2:
                        base["shed_headroom"] = float(rest[2])
                    session.reconfigure(tenancy=base)
                    print(f"tenancy shed -> {'on' if base['shed'] else 'off'} "
                          f"(headroom {base['shed_headroom']:g})")
                else:
                    print("error: tenancy takes 'set LABEL k=v[,k=v]' "
                          "(weight/quota/slo/quantile), 'drop LABEL', "
                          "'shared N', 'shed on|off [HEADROOM]', 'status' or 'off'")
            elif command == "slo":
                manager = session.simulator.tenancy
                if manager is None:
                    print("tenancy: off (enable with 'tenancy set LABEL slo=MS')")
                else:
                    snapshot = manager.snapshot(session.simulator.scheduler)
                    if not snapshot["slo"]:
                        print("no SLO-bearing tenants (set one with "
                              "'tenancy set LABEL slo=MS')")
                    for label, entry in snapshot["slo"].items():
                        shed = snapshot["arrivals"].get(label, {})
                        print(f"  {label}: {'MET' if entry['met'] else 'MISSED'} "
                              f"p{entry['quantile'] * 100:g}<="
                              f"{entry['target_ms']:g}ms "
                              f"compliance={entry['compliance']:.3f} "
                              f"burn={entry['burn_rate']:.2f} "
                              f"completed={entry['completed']} "
                              f"shed_rate={shed.get('shed_rate', 0.0):.3f}")
            elif command == "inflight":
                entries = session.in_flight()
                print(f"{len(entries)} transaction(s) in flight")
                for entry in entries[:20]:
                    tenant = f" tenant={entry.tenant}" if entry.tenant else ""
                    print(f"  [{entry.state}] {entry.procedure}{tenant} "
                          f"txn={entry.txn_id} attempt={entry.attempt} "
                          f"partitions={list(entry.partitions)} "
                          f"remaining={entry.predicted_remaining_ms:.3f}ms")
                if len(entries) > 20:
                    print(f"  ... and {len(entries) - 20} more")
            elif command == "metrics":
                snapshot = session.snapshot_metrics()
                if rest and rest[0] == "--json":
                    print(json.dumps(snapshot.to_dict()))
                else:
                    for key, value in snapshot.summary_row().items():
                        print(f"{key}: {value}")
                    for name, entry in snapshot.maintenance.items():
                        print(f"maintenance[{name}]: "
                              f"transitions={entry['transitions_observed']} "
                              f"checks={entry['accuracy_checks']} "
                              f"recomputations={entry['recomputations']} "
                              f"accuracy={entry['last_accuracy']:.3f}")
            elif command == "spec":
                print(json.dumps(session.spec.to_dict(), default=str, indent=2))
            elif command == "drain":
                result = session.drain()
                print(f"drained; {result.total_transactions} txns total")
            else:
                print(f"unknown command {command!r}; commands: run, runfor, policy, "
                      f"admission, caching, threshold, workload, selftune, drift, "
                      f"tenancy, slo, inflight, metrics, spec, drain, quit")
        except (ReproError, ValueError, IndexError) as error:
            print(f"error: {error}")
    final = session.close()
    print(f"session closed after {final.total_transactions} transactions "
          f"({final.throughput_txn_per_sec:.1f} txn/s)")
    return 0


_SCALES = {
    "small": ExperimentScale.small,
    "medium": ExperimentScale.medium,
    "large": ExperimentScale.large,
    "paper": ExperimentScale.paper,
}


def _cmd_experiment(args: argparse.Namespace) -> int:
    scale = _SCALES[args.scale]()
    runner = EXPERIMENTS[args.id]
    result = runner(scale)
    print(result.format())
    return 0


def _cmd_knee(args: argparse.Namespace) -> int:
    result = run_overload_knee(
        _SCALES[args.scale](),
        args.benchmark,
        users=args.users,
        probe_seconds=args.probe_seconds,
    )
    print(result.format())
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .analysis import (
        AnalysisError,
        load_baseline,
        run_analysis,
        rules_by_id,
        save_baseline,
    )

    package_root = Path(__file__).resolve().parent
    baseline_path = (
        Path(args.baseline) if args.baseline
        else package_root / "analysis" / "baseline.json"
    )
    try:
        rules = rules_by_id(args.rule)
        baseline = load_baseline(baseline_path)
        paths = [Path(p) for p in args.paths] or [package_root]
        report = run_analysis(paths, rules, baseline=baseline)
    except AnalysisError as error:
        print(f"usage error: {error}", file=sys.stderr)
        return 2
    if args.update_baseline:
        save_baseline(baseline_path, report.findings + report.baselined)
        print(
            f"baseline updated: {baseline_path} now grandfathers "
            f"{len(report.findings) + len(report.baselined)} finding(s)"
        )
        return 0
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        for finding in report.findings:
            print(finding.format())
        for entry in report.stale_baseline:
            print(
                f"stale baseline entry: {entry.path}: [{entry.rule}] "
                f"{entry.symbol}: {entry.message}"
            )
        summary = (
            f"{report.files_scanned} file(s), {len(report.rules_run)} rule(s): "
            f"{len(report.findings)} finding(s), "
            f"{len(report.suppressed)} suppressed, "
            f"{len(report.baselined)} baselined, "
            f"{len(report.stale_baseline)} stale baseline entr(ies)"
        )
        print(summary)
    return 0 if report.clean(strict=args.strict) else 1


_COMMANDS: dict[str, Callable[[argparse.Namespace], int]] = {
    "list-benchmarks": _cmd_list_benchmarks,
    "train": _cmd_train,
    "inspect": _cmd_inspect,
    "simulate": _cmd_simulate,
    "record": _cmd_record,
    "serve": _cmd_serve,
    "experiment": _cmd_experiment,
    "knee": _cmd_knee,
    "analyze": _cmd_analyze,
}


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point used by ``python -m repro`` and the console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
