"""repro — a reproduction of "On Predictive Modeling for Optimizing
Transaction Execution in Parallel OLTP Systems" (Pavlo, Jones, Zdonik,
VLDB 2011).

The package contains the paper's primary contribution — transaction Markov
models and the Houdini on-line prediction framework — together with every
substrate it depends on: an H-Store-style partitioned main-memory OLTP
engine, the TATP / TPC-C / AuctionMark benchmarks, a small machine-learning
toolkit for model partitioning, the baseline execution strategies, and a
deterministic cluster simulator plus experiment harness that regenerates
every table and figure of the paper's evaluation.

Quickstart
----------
>>> from repro import Cluster, ClusterSpec
>>> spec = ClusterSpec(benchmark="tpcc", num_partitions=4, trace_transactions=500)
>>> with Cluster.open(spec) as session:
...     result = session.run_for(txns=500)
>>> result.throughput_txn_per_sec > 0
True

The session API (:mod:`repro.session`) is the primary surface: open a
long-lived cluster, stream transactions in, reconfigure scheduling /
admission / Houdini live, and snapshot windowed metrics on demand.  The
off-line stage (Fig. 6) is :func:`repro.session.train`; ``Cluster.open``
runs it for you unless pre-trained ``artifacts=`` are passed.
"""

from .artifacts import ArtifactBundle, ArtifactError
from .benchmarks import available_benchmarks, get_benchmark
from .catalog import Catalog, PartitionScheme, Schema, StoredProcedure
from .errors import ReproError
from .houdini import EstimateCache, GlobalModelProvider, Houdini, HoudiniConfig
from .mapping import ParameterMappingSet, build_parameter_mappings
from .markov import MarkovModel, MarkovModelBuilder, build_models_from_trace
from .modelpart import ModelPartitioner, PartitionedModelProvider, PartitionerConfig
from .scheduling import (
    AdmissionController,
    AdmissionLimits,
    TransactionScheduler,
    policy_by_name,
)
from .session import Cluster, ClusterSession, ClusterSpec, TrainedArtifacts
from .sim import ClusterSimulator, CostModel, SimulationResult, SimulatorConfig
from .strategies import (
    AssumeDistributedStrategy,
    AssumeSinglePartitionStrategy,
    HoudiniStrategy,
    OracleStrategy,
)
from .txn import ExecutionPlan, TransactionCoordinator
from .types import ProcedureRequest
from .workload import (
    ClosedLoopSource,
    OpenLoopSource,
    TenantSource,
    TraceRecorder,
    TraceReplaySource,
    WorkloadRandom,
    WorkloadSource,
    WorkloadTrace,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "Cluster",
    "ClusterSession",
    "ClusterSpec",
    "TrainedArtifacts",
    "ArtifactBundle",
    "ArtifactError",
    "EstimateCache",
    "TransactionScheduler",
    "AdmissionController",
    "AdmissionLimits",
    "policy_by_name",
    "ReproError",
    "Catalog",
    "Schema",
    "PartitionScheme",
    "StoredProcedure",
    "ProcedureRequest",
    "WorkloadTrace",
    "WorkloadRandom",
    "TraceRecorder",
    "WorkloadSource",
    "ClosedLoopSource",
    "OpenLoopSource",
    "TraceReplaySource",
    "TenantSource",
    "MarkovModel",
    "MarkovModelBuilder",
    "build_models_from_trace",
    "ParameterMappingSet",
    "build_parameter_mappings",
    "Houdini",
    "HoudiniConfig",
    "GlobalModelProvider",
    "ModelPartitioner",
    "PartitionerConfig",
    "PartitionedModelProvider",
    "HoudiniStrategy",
    "OracleStrategy",
    "AssumeDistributedStrategy",
    "AssumeSinglePartitionStrategy",
    "TransactionCoordinator",
    "ExecutionPlan",
    "ClusterSimulator",
    "SimulatorConfig",
    "SimulationResult",
    "CostModel",
    "get_benchmark",
    "available_benchmarks",
]
