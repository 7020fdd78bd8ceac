"""High-level pipeline helpers (thin wrappers over :mod:`repro.session`).

Historically these functions were the primary public surface: build a
benchmark, record a sample workload trace, derive the off-line artifacts
(Markov models, parameter mappings, optionally partitioned models), assemble
a Houdini instance, and run the simulator under a chosen execution strategy.

The primary surface is now the session-oriented API — a declarative
:class:`~repro.session.ClusterSpec` opened into a long-lived
:class:`~repro.session.ClusterSession` that streams transactions, swaps
policies/generators live and snapshots metrics on demand.  Every function
here remains as a stable shim with its historical signature, delegating to
the canonical implementations in :mod:`repro.session`; ``simulate`` in
particular opens a session over the given artifacts and drives it for the
requested number of transactions, producing results byte-identical to the
old one-shot ``ClusterSimulator.run()`` loop.  New code should prefer
``Cluster.open(spec)`` directly.
"""

from __future__ import annotations

from typing import Mapping

from . import session as _session
from .benchmarks import BenchmarkInstance
from .houdini import GlobalModelProvider, Houdini, HoudiniConfig
from .houdini.providers import ModelProvider
from .modelpart import PartitionedModelProvider, PartitionerConfig
from .scheduling.admission import AdmissionLimits
from .scheduling.policies import SchedulingPolicy
from .session import Cluster, ClusterSpec, TrainedArtifacts
from .sim import CostModel, SimulationResult
from .txn.strategy import ExecutionStrategy
from .workload import WorkloadTrace

__all__ = [
    "TrainedArtifacts",
    "build_benchmark",
    "record_trace",
    "train",
    "make_houdini",
    "make_partitioned_provider",
    "make_strategy",
    "simulate",
]

#: Deprecation shims re-exported for callers that imported them from here.
build_benchmark = _session.build_benchmark
record_trace = _session.record_trace


def train(
    benchmark_name: str,
    num_partitions: int,
    *,
    trace_transactions: int = 2000,
    seed: int = 0,
    partitions_per_node: int = 2,
    config_overrides: Mapping | None = None,
) -> TrainedArtifacts:
    """Build a benchmark and derive its Markov models and parameter mappings.

    Shim over :func:`repro.session.train` (which takes a
    :class:`~repro.session.ClusterSpec`).  The returned benchmark instance's
    database reflects the trace execution (the paper also trains on a live
    sample of the running system).
    """
    spec = ClusterSpec(
        benchmark=benchmark_name,
        num_partitions=num_partitions,
        trace_transactions=trace_transactions,
        seed=seed,
        partitions_per_node=partitions_per_node,
        benchmark_config=config_overrides,
    )
    return _session.train(spec)


def make_houdini(
    artifacts: TrainedArtifacts,
    *,
    provider: ModelProvider | None = None,
    config: HoudiniConfig | None = None,
    learning: bool = True,
) -> Houdini:
    """Assemble a Houdini instance from trained artifacts (shim over
    :func:`repro.session.build_houdini`)."""
    return _session.build_houdini(
        artifacts, provider=provider, config=config, learning=learning
    )


def make_partitioned_provider(
    artifacts: TrainedArtifacts,
    *,
    feature_selection: str = "heuristic",
    houdini_config: HoudiniConfig | None = None,
    partitioner_config: PartitionerConfig | None = None,
) -> PartitionedModelProvider:
    """Build the Section-5 partitioned models (shim over
    :func:`repro.session.build_partitioned_provider`)."""
    return _session.build_partitioned_provider(
        artifacts,
        feature_selection=feature_selection,
        houdini_config=houdini_config,
        partitioner_config=partitioner_config,
    )


def make_strategy(
    name: str,
    artifacts: TrainedArtifacts,
    *,
    houdini: Houdini | None = None,
    seed: int = 0,
) -> ExecutionStrategy:
    """Build one of the paper's execution strategies by name (shim over
    :func:`repro.session.build_strategy`)."""
    return _session.build_strategy(name, artifacts, houdini=houdini, seed=seed)


def simulate(
    artifacts: TrainedArtifacts,
    strategy: ExecutionStrategy,
    *,
    transactions: int = 2000,
    cost_model: CostModel | None = None,
    clients_per_partition: int = 4,
    policy: "SchedulingPolicy | str | None" = None,
    admission_limits: "AdmissionLimits | None" = None,
) -> SimulationResult:
    """Run the closed-loop simulator for one configuration.

    Deprecation shim: opens a :class:`~repro.session.ClusterSession` over the
    given artifacts and strategy and drives it for ``transactions``
    closed-loop submissions — byte-identical to the historical one-shot
    ``ClusterSimulator.run()``.  ``policy`` selects the node scheduler's
    queue discipline (name or instance; default FCFS) and
    ``admission_limits`` enables admission control — both run inside the
    event-driven runtime, so prediction-aware scheduling experiments go
    through the same loop as the paper's throughput sweeps.
    """
    instance = artifacts.benchmark
    spec = ClusterSpec(
        benchmark=instance.name,
        num_partitions=instance.catalog.num_partitions,
        clients_per_partition=clients_per_partition,
        policy=policy,
        admission=admission_limits,
        cost_model=cost_model,
    )
    session = Cluster.open(spec, artifacts=artifacts, strategy=strategy)
    result = session.run_for(txns=transactions)
    session.close()
    return result
