"""Every golden in one registry: what the code computes, pinned to the byte.

Each :class:`Oracle` owns one JSON file under ``tests/`` and the cases it
holds.  A case is a producer: it runs the code under test on shared inputs
and returns a JSON value.  The file holds what each case produced when it was
recorded.  ``tests/test_oracles.py`` checks every case against its file,
checks that each file holds exactly its oracle's cases in the form the
recorder writes, and checks each of the oracle's named landmarks (the
learning run recomputes a model, the mispredicted TPC-C cell restarts,
...).  A producer that checks something of its own run (a trace that must
round-trip through disk, an execution run that must repeat in the same
process) asserts it, so a recording cannot skip it.

The inputs are shared: every case that trains reads ``tests.conftest.trained``,
which builds the artifacts once per (benchmark, trace size, partitions, seed)
in a process and hands each case a private copy.

Record and compare from the repo root::

    PYTHONPATH=src python -m tests.oracles record [NAME ...] [--rev REV]
    PYTHONPATH=src python -m tests.oracles diff [NAME ...] [--rev REV]

``NAME`` is a golden's file stem (all eleven by default).  ``record`` writes each
named golden from the values the code produces.  With ``--rev``, the code is
revision ``REV``: ``git archive`` exports that revision into a temporary
directory, and this tree's producers run in a subprocess with the exported
``src/`` first on ``PYTHONPATH``.  "Recorded at the parent" is therefore
``record NAME --rev HEAD`` before committing a change (``--rev HEAD~1``
after).  ``diff`` prints each case whose value in the working tree differs
from the recorded file, or from revision ``REV`` when one is given:
``diff --rev HEAD`` lists every case an uncommitted change moves.  Re-record
only in a change that means to move what a golden pins, and name the cases
that moved.  ``produce [NAME ...]`` prints the values as one JSON document;
the recorder and the hash-seed rerun test run it in a fresh interpreter.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping

import repro
from repro import cli
from repro.houdini import HoudiniConfig
from repro.markov import to_dot
from repro.markov.serialization import model_to_dict
from repro.scheduling.admission import AdmissionLimits
from repro.scheduling.policies import ShortestPredictedFirstPolicy
from repro.selftune import SelfTuneConfig
from repro.session import Cluster, ClusterSpec, build_benchmark
from repro.sim import CostModel
from repro.tenancy import TenancyConfig, TenantPolicy
from repro.workload import (
    ClientCohortSource,
    ClosedLoopSource,
    Cohort,
    OpenLoopSource,
    TenantSource,
    TraceReplaySource,
    WorkloadTrace,
)
from repro.workload.trace import QueryTraceRecord, TransactionTraceRecord
from tests.conftest import trained
from tests.experiments import outputs
from tests.mapping.reference import mapping_state
from tests.markov import reference as markov_reference
from tests.sim import rerun_cases

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _json_digest(data) -> str:
    return _sha256(json.dumps(data, sort_keys=True).encode("utf-8"))


# ----------------------------------------------------------------------
# Training: the trace ``session.train`` records and the models and mappings
# it derives, at 16 partitions, seed 0.
# ----------------------------------------------------------------------
#: ``(benchmark, trace transactions)``; TPC-C at the e2e benchmark's 4,000 too.
TRAINING = (
    ("tpcc", 1500), ("tpcc", 4000), ("tatp", 1500), ("smallbank", 1500),
    ("auctionmark", 1500),
)


def _training(benchmark: str, transactions: int):
    return trained(benchmark, 16, transactions, 0)


def trace_digest(benchmark: str, transactions: int) -> dict:
    """The sha256 of :meth:`WorkloadTrace.save`'s bytes.  Loading them and
    saving again gives the same bytes, and the loaded trace equals the
    recorded one."""
    trace = _training(benchmark, transactions).trace
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "trace.jsonl"
        trace.save(path)
        data = path.read_bytes()
        loaded = WorkloadTrace.load(path)
        loaded.save(path)
        assert path.read_bytes() == data, "save -> load -> save must round-trip"
    assert loaded == trace
    return {"lines": data.count(b"\n"), "sha256": _sha256(data)}


def model_digest(benchmark: str, transactions: int) -> dict:
    """Which models the builder builds and in which order, each model's
    vertices and edges in insertion order, every hit count and every float
    to the last bit (``markov.reference.model_state``; no set is read, so
    the digest follows neither the hash seed nor allocation addresses)."""
    state = markov_reference.model_state(_training(benchmark, transactions).models)
    return {
        "models": len(state),
        "vertices": sum(len(vertices) for _, _, vertices, _, _, _ in state),
        "edges": sum(len(edges) for _, _, _, edges, _, _ in state),
        "digest": _sha256(repr(state).encode("utf-8")),
    }


def mapping_digest(benchmark: str, transactions: int) -> dict:
    """Which entries the builder accepts, in which order, every coefficient
    to the last bit and which entry wins each query-parameter slot, taken
    over the in-memory objects (``mapping_set_to_dict`` sorts what it
    writes)."""
    state = mapping_state(_training(benchmark, transactions).mappings)
    return {
        "entries": sum(len(entries) for _, _, entries, _ in state),
        "digest": _sha256(repr(state).encode("utf-8")),
    }


def _training_cases(producer) -> dict:
    return {
        f"{benchmark}-{transactions}": functools.partial(producer, benchmark, transactions)
        for benchmark, transactions in TRAINING
    }


def _lines_equal_the_case_size(golden: dict) -> None:
    for case, entry in golden.items():
        assert entry["lines"] == int(case.rsplit("-", 1)[1]), case


def _every_model_has_vertices_and_edges(golden: dict) -> None:
    assert all(entry["vertices"] > 0 and entry["edges"] > 0 for entry in golden.values())


def _every_mapping_set_has_entries(golden: dict) -> None:
    assert all(entry["entries"] > 0 for entry in golden.values())


# ----------------------------------------------------------------------
# Loading: the database ``build_benchmark`` populates, at seed 0.
# ----------------------------------------------------------------------
#: ``(benchmark, partitions)``.
LOADING = tuple(
    (benchmark, partitions)
    for benchmark in ("tatp", "tpcc", "smallbank", "auctionmark")
    for partitions in (4, 16)
)


def loaded_digest(benchmark: str, partitions: int) -> dict:
    """Every heap's rows in heap order, each as ``list(row.items())`` (so
    column order counts), every heap's ``_next_row_id``, and the request
    generator's ``getstate()`` after the build.  The loader's own generator
    is local to ``BenchmarkBundle.build``; what it draws shows in the rows."""
    instance = build_benchmark(benchmark, partitions, seed=0)
    digest = hashlib.sha256()
    rows = 0
    for store in instance.database.partitions():
        for table in store.table_names():
            heap = store.heap(table)
            digest.update(repr((store.partition_id, table, heap._next_row_id)).encode())
            for row_id in heap.row_ids():
                digest.update(repr((row_id, list(heap.get(row_id).items()))).encode())
                rows += 1
    digest.update(repr(instance.generator.rng._random.getstate()).encode())
    return {"rows": rows, "digest": digest.hexdigest()}


def _every_database_has_rows(golden: dict) -> None:
    assert all(entry["rows"] > 0 for entry in golden.values())


# ----------------------------------------------------------------------
# Dispatch: which transaction the partition-gated dispatcher picks next.
# ----------------------------------------------------------------------
DISPATCH_PARTITIONS = 4
DISPATCH_SEEDS = (11, 23)
#: Gated closed-loop throughput at this scale (txn/s), to size open-loop rates.
CAPACITY = {"tatp": 790.0, "tpcc": 370.0, "smallbank": 1000.0}


def _tenancy(**overrides) -> TenancyConfig:
    fields = dict(
        tenants={"gold": TenantPolicy(weight=3.0), "free": TenantPolicy(weight=1.0)},
        shed=False,
    )
    fields.update(overrides)
    return TenancyConfig(**fields)


#: name -> (spec fields, tenant-labeled traffic?, digest every field?)
DISPATCH_CONFIGS: dict[str, tuple[dict, bool, bool]] = {
    "fcfs+tenancy": (dict(tenancy=_tenancy()), True, False),
    "fcfs+tenancy+quota": (dict(tenancy=_tenancy(
        tenants={"gold": TenantPolicy(weight=3.0, quota=3),
                 "free": TenantPolicy(weight=1.0, quota=2)},
        shared_quota=1,
    )), True, False),
    "shortest-predicted": (dict(policy="shortest-predicted"), False, False),
    "single-partition-first": (dict(policy="single-partition-first"), False, False),
    "shortest-predicted+admission": (dict(
        policy="shortest-predicted",
        admission=AdmissionLimits(max_in_flight=3, max_distributed_in_flight=1,
                                  max_deferrals=1_000_000),
    ), False, False),
    "fcfs+admission-tight": (dict(
        admission=AdmissionLimits(max_in_flight=3, max_deferrals=1),
    ), False, True),
}


def strip_churn(result: dict) -> dict:
    """Drop the counters that count examinations rather than outcomes.  The
    ungated admission cells have no release events, hence no examination the
    scan and the index disagree on: they are digested whole."""
    result["scheduler_stats"].pop("requeued")
    result["scheduler_stats"].pop("reordered")
    if result.get("admission_stats"):
        result["admission_stats"].pop("deferred")
    if result.get("tenancy"):
        result["tenancy"]["quota"].pop("blocked")
    return result


def _dispatch_summary(result, whole: bool) -> dict:
    data = json.loads(json.dumps(result.to_dict()))
    if not whole:
        strip_churn(data)
    return {
        "digest": _json_digest(data),
        # Readable landmarks, so a mismatch says roughly what moved.
        "committed": result.committed,
        "rejected": result.rejected,
        "restarts": result.restarts,
        "simulated_duration_ms": result.simulated_duration_ms,
    }


def run_dispatch_cell(benchmark: str, config: str, loop: str, seed: int) -> dict:
    fields, labeled, whole = DISPATCH_CONFIGS[config]
    rate = CAPACITY[benchmark]
    workload = None
    if loop == "open":
        if labeled:
            workload = TenantSource({
                "gold": OpenLoopSource(0.4 * rate, "poisson", seed=1),
                "free": OpenLoopSource(1.0 * rate, "bursty", seed=2, burst_size=64),
            })
        else:
            workload = OpenLoopSource(1.3 * rate, "bursty", seed=1, burst_size=32)
    spec = ClusterSpec(
        benchmark=benchmark, num_partitions=DISPATCH_PARTITIONS, trace_transactions=400,
        seed=seed, learning=False, workload=workload, **fields,
    )
    session = Cluster.open(
        spec, artifacts=trained(benchmark, DISPATCH_PARTITIONS, 400, seed)
    )
    for _ in range(2):
        if loop == "open":
            session.run_for(sim_seconds=0.2)
        else:
            session.run_for(txns=150)
    return _dispatch_summary(session.close(), whole)


def run_mispredicted_tpcc() -> dict:
    """Models from a 60-transaction trace: NewOrders restart onto partitions
    the estimate the gate used never named."""
    spec = ClusterSpec(
        benchmark="tpcc", num_partitions=DISPATCH_PARTITIONS, trace_transactions=60,
        seed=5, learning=False, policy="shortest-predicted", tenancy=_tenancy(),
    )
    session = Cluster.open(spec)
    session.run_for(txns=300)
    return _dispatch_summary(session.close(), False)


DISPATCH_CASES = {
    **{
        f"{benchmark}-{config}-{loop}-{seed}": functools.partial(
            run_dispatch_cell, benchmark, config, loop, seed
        )
        for benchmark in CAPACITY
        for config in DISPATCH_CONFIGS
        for loop in ("closed", "open")
        for seed in DISPATCH_SEEDS
    },
    "tpcc-mispredicted": run_mispredicted_tpcc,
}


def _mispredicted_tpcc_restarts(golden: dict) -> None:
    assert golden["tpcc-mispredicted"]["restarts"] > 0, "the case must actually mispredict"


# ----------------------------------------------------------------------
# Learning: a learning-on run's results, maintenance decisions and models.
# ----------------------------------------------------------------------
def model_state(model) -> dict:
    """Everything a model holds, floats via ``repr`` (bit-exact in JSON)."""
    derived = []
    for vertex in model.vertices():
        table = vertex.table
        partitions = range(model.num_partitions)
        derived.append({
            "key": str(vertex.key),
            "edges": [(str(e.target), e.hits, e.probability)
                      for e in model.edges_from(vertex.key)],
            "successors": [(str(k), p) for k, p in model.successors(vertex.key)],
            "expected_remaining_queries": vertex.expected_remaining_queries,
            "table": None if table is None else {
                "single_partition": table.single_partition,
                "abort": table.abort,
                "read": [table.read_probability(p) for p in partitions],
                "write": [table.write_probability(p) for p in partitions],
                "finish": [table.finish_probability(p) for p in partitions],
            },
        })
    return {"stored": model_to_dict(model), "derived": derived}


def run_learning(benchmark: str) -> dict:
    """The whole ``SimulationResult``, the maintenance counters and a digest
    of each final model (graph, counters, edge probabilities, table cells,
    expected remaining queries)."""
    spec = ClusterSpec(
        benchmark=benchmark, num_partitions=16, strategy="houdini",
        trace_transactions=1500, seed=0, learning=True,
    )
    session = Cluster.open(spec, artifacts=_training(benchmark, 1500))
    session.run_for(txns=1500)
    houdini = session.houdini
    result = session.close()
    maintenance = houdini.maintenance.stats_by_procedure()
    return {
        "result": result.to_dict(),
        "maintenance": maintenance,
        "model_digests": {
            model.procedure: _json_digest(model_state(model))
            for model in houdini.provider.models()
        },
        # Readable landmark: the run must actually exercise maintenance.
        "recomputations": sum(e["recomputations"] for e in maintenance.values()),
    }


def _tpcc_recomputes(golden: dict) -> None:
    assert golden["tpcc"]["recomputations"] > 0, "the case must actually recompute"


# ----------------------------------------------------------------------
# Execution: what every attempt did and what the run left in the database.
# ----------------------------------------------------------------------
EXECUTION_TRANSACTIONS = 400


def attempt_bytes(attempt) -> bytes:
    """Every ``AttemptResult`` field, in a stable textual form."""
    return repr((
        attempt.outcome.value,
        attempt.procedure,
        attempt.parameters,
        attempt.base_partition,
        attempt.touched_partitions.partitions,
        [
            (i.statement, i.parameters, i.partitions.partitions, i.counter,
             i.query_type.value)
            for i in attempt.invocations
        ],
        attempt.return_value,
        attempt.abort_reason,
        attempt.mispredicted_partition,
        attempt.undo_records_written,
        attempt.undo_records_skipped,
        sorted(attempt.finished_partitions),
        sorted(attempt.escalated_partitions),
    )).encode("utf-8")


def database_digest(database) -> str:
    """Rows by partition / table / row id, plus each heap's ``_next_row_id``."""
    digest = hashlib.sha256()
    for store in database.partitions():
        for table in sorted(store.table_names()):
            heap = store.heap(table)
            digest.update(repr((store.partition_id, table, heap._next_row_id)).encode())
            for row_id in sorted(heap.row_ids()):
                digest.update(repr((row_id, sorted(heap.get(row_id).items()))).encode())
    return digest.hexdigest()


def _execution_run(benchmark: str) -> dict:
    spec = ClusterSpec(
        benchmark=benchmark, num_partitions=16, strategy="houdini",
        trace_transactions=300, seed=0, learning=True,
    )
    session = Cluster.open(spec, artifacts=trained(benchmark, 16, 300, 0))
    stream = hashlib.sha256()
    counts = {"transactions": 0, "attempts": 0}
    # Every logical transaction reaches the strategy's completion callback
    # with its full attempt list, restarted attempts included.
    strategy = session.strategy
    notify = strategy.on_transaction_complete

    def capture(record):
        counts["transactions"] += 1
        for attempt in record.attempts:
            counts["attempts"] += 1
            stream.update(attempt_bytes(attempt))
        return notify(record)

    strategy.on_transaction_complete = capture
    try:
        session.run_for(txns=EXECUTION_TRANSACTIONS)
    finally:
        session.close()
    return {
        **counts,
        "attempt_stream": stream.hexdigest(),
        "database": database_digest(session.simulator.database),
    }


def run_execution(benchmark: str) -> dict:
    """The attempt-stream and database digests.  A second run in the same
    process must reproduce both: state that leaks from one session into the
    next, such as a process-global counter, shows there."""
    first = _execution_run(benchmark)
    assert _execution_run(benchmark) == first, "a same-seed rerun must repeat the run"
    return first


def _every_run_completes_its_transactions(golden: dict) -> None:
    for name, entry in golden.items():
        assert entry["transactions"] == EXECUTION_TRANSACTIONS, name


def _tpcc_restarts(golden: dict) -> None:
    assert golden["tpcc"]["attempts"] > EXECUTION_TRANSACTIONS, "the case must actually restart"


# ----------------------------------------------------------------------
# Specs: ``ClusterSpec.to_dict()`` bytes (no ``sort_keys``: key order is part
# of the contract), for the default spec, the e2e benchmark's specs and three
# hand-built specs that carry every nested config and every source kind.
# ----------------------------------------------------------------------
def _trace() -> WorkloadTrace:
    query = QueryTraceRecord("GetSubscriber", (7,), (1,))
    return WorkloadTrace([
        TransactionTraceRecord(0, "GetSubscriberData", (7,), (query,), at_ms=0.5),
        TransactionTraceRecord(1, "GetSubscriberData", (9,), (query,), aborted=True),
    ])


def _nested_configs() -> ClusterSpec:
    return ClusterSpec(
        benchmark="tpcc", num_partitions=4, partitions_per_node=4, seed=3,
        trace_transactions=300, benchmark_config={"districts_per_warehouse": 4},
        strategy="houdini-global", learning=True,
        houdini=HoudiniConfig(
            confidence_threshold=0.3,
            disabled_procedures=frozenset({"slev", "delivery"}),
        ),
        selftune=SelfTuneConfig(check_interval_txns=25, retrain_latency_ms=2.5),
        tenancy=TenancyConfig(
            tenants={
                "zeta": TenantPolicy(weight=2.0, quota=3),
                "alpha": {"slo_latency_ms": 40.0, "slo_quantile": 0.9},
            },
            default_policy=TenantPolicy(weight=0.5),
            shared_quota=2, shed=False, shed_headroom=1.5,
        ),
        clients_per_partition=2, warmup_fraction=0.25, client_think_time_ms=1.5,
        metrics_mode="streaming",
        workload=ClosedLoopSource(3, 0.25),
        policy=ShortestPredictedFirstPolicy(),
        admission=AdmissionLimits(
            max_in_flight=8, max_distributed_in_flight=2, max_in_flight_ms=12.5,
            max_deferrals=4,
        ),
        cost_model=CostModel(redirect_ms=1.5, planning_ms=0.1),
    )


def _arrival_sources() -> ClusterSpec:
    return ClusterSpec(
        benchmark="tatp", strategy="oracle", model_provider="partitioned",
        learning=False, policy="shortest-predicted",
        workload=TenantSource({
            "open": OpenLoopSource(120.0, "uniform", seed=4, limit=50),
            "inline": TraceReplaySource(_trace(), speedup=2.0, default_gap_ms=0.5),
            "nested": TenantSource({
                "gold": OpenLoopSource(50.0, "bursty", seed=1, burst_size=16),
                "replay": TraceReplaySource(path="trace.jsonl", limit=10),
            }),
        }),
    )


def _cohorts() -> ClusterSpec:
    return ClusterSpec(
        benchmark="smallbank", strategy="assume-single-partition",
        workload=ClientCohortSource(
            [
                Cohort("browsers", 900_000, rate_per_user_per_sec=0.0002),
                Cohort("power", 100, think_time_ms=500.0, arrival="bursty",
                       burst_size=4),
            ],
            seed=11, label_tenants=False,
        ),
    )


def _e2e_workloads() -> dict:
    """``benchmarks/e2e/workloads.py`` of the tree ``repro`` is imported from,
    so a recording at another revision reads that revision's specs."""
    e2e = Path(repro.__file__).resolve().parents[2] / "benchmarks" / "e2e"
    if str(e2e) not in sys.path:
        sys.path.append(str(e2e))  # appended: it has a ``tests`` child
    from workloads import WORKLOADS

    return WORKLOADS


SPECS: dict[str, Callable[[], ClusterSpec]] = {
    "default": ClusterSpec,
    "nested_configs": _nested_configs,
    "arrival_sources": _arrival_sources,
    "cohorts": _cohorts,
    **{
        f"{name}@{seed}": functools.partial(workload.make_spec, seed)
        for name, workload in _e2e_workloads().items() for seed in (0, 7)
    },
}


def spec_digest(spec: ClusterSpec) -> str:
    return _sha256(json.dumps(spec.to_dict()).encode("utf-8"))


# ----------------------------------------------------------------------
# Writes: the sha256 of every file the system writes, each written the way
# a user writes it, through ``repro.cli.main`` in this process.  A set or
# dict order that reaches a file's bytes moves its digest between hash
# seeds: ``tests/sim/test_rerun_determinism.py`` produces this golden under
# ``PYTHONHASHSEED`` 1 and 2 as well.  A writer that no byte-equality test
# runs is where such a leak hides.  In the planted-bug verdict (CHANGES.md,
# row D2), an ``ArtifactBundle.metadata`` that wrote
# ``"procedures": list(set(self.models))`` passed tier-1 and the CI job
# that compares two hash seeds: nothing wrote a bundle.  These cases write
# one per benchmark.
# ----------------------------------------------------------------------
#: The files ``ArtifactBundle.save`` writes.
BUNDLE_FILES = ("metadata.json", "models.json", "mappings.json")


def _cli_stdout(*argv: str) -> bytes:
    """What ``repro ARGV`` prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == 0, argv
    return out.getvalue().encode("utf-8")


@functools.cache
def bundle_digests(benchmark: str) -> dict[str, str]:
    """``repro train BENCHMARK --partitions 4 --trace 300 --output DIR``:
    each file of the bundle."""
    with tempfile.TemporaryDirectory() as scratch:
        _cli_stdout("train", benchmark, "--partitions", "4", "--trace", "300",
                    "--output", scratch)
        bundle = Path(scratch)
        assert sorted(path.name for path in bundle.iterdir()) == sorted(BUNDLE_FILES)
        return {name: _sha256((bundle / name).read_bytes()) for name in BUNDLE_FILES}


@functools.cache
def record_digest() -> str:
    """``repro record tatp --partitions 4 --transactions 500``: the JSON-lines
    trace."""
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "trace.jsonl"
        _cli_stdout("record", "tatp", "--partitions", "4", "--transactions", "500",
                    "--output", str(path))
        return _sha256(path.read_bytes())


@functools.cache
def dot_digest() -> str:
    """``to_dot``, the writer behind ``save_dot``, of TPC-C's NewOrder model."""
    model = trained("tpcc", 4, 300, 0).models["neworder"]
    dot = to_dot(model, min_edge_probability=0.01, include_tables=True)
    return _sha256(dot.encode("utf-8"))


@functools.cache
def simulate_digest(benchmark: str, transactions: int) -> str:
    """``repro simulate BENCHMARK --partitions 4 --trace 300 --transactions N
    --json``: the document it prints."""
    return _sha256(_cli_stdout(
        "simulate", benchmark, "--partitions", "4", "--trace", "300",
        "--transactions", str(transactions), "--json",
    ))


WRITES_CASES: dict[str, Callable[[], str]] = {
    **{
        f"bundle-{benchmark}-{name}": (
            lambda benchmark=benchmark, name=name: bundle_digests(benchmark)[name]
        )
        for benchmark in ("tatp", "tpcc", "smallbank", "auctionmark")
        for name in BUNDLE_FILES
    },
    "record-tatp": record_digest,
    "dot-tpcc-neworder": dot_digest,
    "simulate-tatp": functools.partial(simulate_digest, "tatp", 1500),
    "simulate-tpcc": functools.partial(simulate_digest, "tpcc", 600),
}


# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Oracle:
    """One golden file, its cases, and what its recording must show."""

    #: The JSON file, relative to ``tests/``; its stem names the oracle.
    path: str
    #: case key -> producer of the case's JSON value.
    cases: Mapping[str, Callable[[], object]]
    #: landmark name -> check of what every recording must show besides its
    #: values.
    landmarks: Mapping[str, Callable[[dict], None]] = field(default_factory=dict)
    #: How the file is written (``sort_keys=False`` keeps case order).
    indent: int = 1
    sort_keys: bool = True

    @property
    def name(self) -> str:
        return Path(self.path).stem

    @property
    def file(self) -> Path:
        return TESTS / self.path

    def recorded(self) -> dict:
        return json.loads(self.file.read_text(encoding="utf-8"))

    def produce(self, case: str):
        """The case's value as the file holds it (through JSON)."""
        return json.loads(json.dumps(self.cases[case]()))

    def text(self, values: dict) -> str:
        """The file's text for ``values``."""
        return json.dumps(values, indent=self.indent, sort_keys=self.sort_keys) + "\n"

    def write(self, values: dict) -> None:
        assert list(values) == list(self.cases)
        for check in self.landmarks.values():
            check(values)
        self.file.write_text(self.text(values), encoding="utf-8")


ORACLES: dict[str, Oracle] = {oracle.name: oracle for oracle in (
    Oracle("workload/golden_traces.json", _training_cases(trace_digest),
           {"lines_equal_the_case_size": _lines_equal_the_case_size}),
    Oracle("markov/golden_models.json", _training_cases(model_digest),
           {"every_model_has_vertices_and_edges": _every_model_has_vertices_and_edges}),
    Oracle("mapping/golden_mappings.json", _training_cases(mapping_digest),
           {"every_mapping_set_has_entries": _every_mapping_set_has_entries}),
    Oracle("storage/golden_databases.json",
           {f"{benchmark}-{partitions}": functools.partial(loaded_digest, benchmark, partitions)
            for benchmark, partitions in LOADING},
           {"every_database_has_rows": _every_database_has_rows}),
    Oracle("sim/golden_dispatch.json", DISPATCH_CASES,
           {"mispredicted_tpcc_restarts": _mispredicted_tpcc_restarts}),
    Oracle("sim/golden_learning.json",
           {name: functools.partial(run_learning, name) for name in ("tpcc", "tatp")},
           {"tpcc_recomputes": _tpcc_recomputes}),
    Oracle("engine/golden_execution.json",
           {name: functools.partial(run_execution, name)
            for name in ("tatp", "tpcc", "smallbank", "auctionmark")},
           {"every_run_completes_its_transactions": _every_run_completes_its_transactions,
            "tpcc_restarts": _tpcc_restarts}),
    Oracle("session/spec_digests.json",
           {name: (lambda build=build: spec_digest(build())) for name, build in SPECS.items()},
           indent=2),
    Oracle("sim/rerun_digests.json",
           {name: functools.partial(rerun_cases.first_digest, name)
            for name in rerun_cases.CASES},
           sort_keys=False),
    Oracle("experiments/golden_outputs.json",
           {name: functools.partial(outputs.normalized_output, name) for name in outputs.RUNS}),
    Oracle("golden_writes.json", WRITES_CASES),
)}


# ----------------------------------------------------------------------
# The recorder
# ----------------------------------------------------------------------
def produce(names) -> dict[str, dict]:
    """``{oracle: {case: value}}`` from the ``repro`` this process imports."""
    with contextlib.redirect_stdout(sys.stderr):
        return {
            name: {case: ORACLES[name].produce(case) for case in ORACLES[name].cases}
            for name in names
        }


def spawn_producers(names, src: Path, **env: str) -> subprocess.Popen:
    """``python -m tests.oracles produce NAME ...`` in a fresh interpreter,
    with ``src`` first on ``PYTHONPATH``; read it with :func:`produced`."""
    path = os.pathsep.join([str(src), str(ROOT), os.environ.get("PYTHONPATH", "")])
    return subprocess.Popen(
        [sys.executable, "-m", "tests.oracles", "produce", *names],
        cwd=ROOT, env=dict(os.environ, **env, PYTHONPATH=path),
        stdout=subprocess.PIPE, text=True,
    )


def produced(process: subprocess.Popen, src: Path) -> dict[str, dict]:
    try:
        out, _ = process.communicate(timeout=1800)
    except subprocess.TimeoutExpired:
        process.kill()
        raise
    if process.returncode:
        raise RuntimeError(f"the producers failed with exit status {process.returncode}")
    document = json.loads(out)
    if document["src"] != str(src):
        raise RuntimeError(f"produced with {document['src']}, not with {src}")
    return document["values"]


def produce_at(rev: str, names) -> dict[str, dict]:
    """:func:`produce` with revision ``rev``'s ``src/`` and this tree's
    producers."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
        stdout=subprocess.PIPE,
    ).stdout
    with tempfile.TemporaryDirectory() as tree:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tree, filter="data")
        src = Path(tree).resolve() / "src"
        return produced(spawn_producers(names, src), src)


def _moved(name: str, before: dict, after: dict) -> list[str]:
    lines = []
    for case in [*before, *(case for case in after if case not in before)]:
        old, new = before.get(case), after.get(case)
        if old == new:
            continue
        if old is None or new is None:
            where = "before" if new is None else "after"
            lines.append(f"{name} {case}: only {where}")
        elif isinstance(old, dict) and isinstance(new, dict):
            keys = sorted(key for key in old.keys() | new.keys() if old.get(key) != new.get(key))
            lines.append(f"{name} {case}: {', '.join(keys)}")
        else:
            lines.append(f"{name} {case}: {old!r} -> {new!r}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tests.oracles",
        description="Record the goldens, or list the cases that moved.",
    )
    parser.add_argument("command", choices=("record", "diff", "produce"))
    parser.add_argument("names", nargs="*", metavar="NAME",
                        help=f"golden to record or compare (default: all): {', '.join(ORACLES)}")
    parser.add_argument("--rev", help="produce at this git revision instead of the working tree")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.names) - set(ORACLES))
    if unknown:
        parser.error(f"unknown golden(s): {', '.join(unknown)}")
    names = args.names or list(ORACLES)
    if args.command == "produce":
        values = produce(names)
        src = Path(repro.__file__).resolve().parents[1]
        json.dump({"src": str(src), "values": values}, sys.stdout)
        return 0
    at_rev = produce_at(args.rev, names) if args.rev else None
    if args.command == "record":
        values = at_rev or produce(names)
        for name in names:
            ORACLES[name].write(values[name])
            print(f"recorded {ORACLES[name].file.relative_to(ROOT)}")
        return 0
    before = at_rev or {name: ORACLES[name].recorded() for name in names}
    after = produce(names)
    moved = [line for name in names for line in _moved(name, before[name], after[name])]
    print("\n".join(moved) if moved else "no case moved")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
