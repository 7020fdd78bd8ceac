"""Session-oriented cluster API: open a cluster, stream work in, reconfigure live.

The paper's Houdini is an *online* component — it sits in front of a live
H-Store cluster, plans every incoming request, and keeps learning while
traffic flows.  This module is the public surface for that mode of
operation: one long-lived session over the incrementally steppable event
core of :mod:`repro.sim.simulator`:

.. code-block:: python

    from repro.session import Cluster, ClusterSpec

    spec = ClusterSpec(benchmark="tpcc", num_partitions=8, strategy="houdini")
    with Cluster.open(spec) as session:
        session.run_for(txns=2000)                  # drive the closed loop
        session.reconfigure(policy="shortest-predicted")
        session.run_for(sim_seconds=2.0)            # or by simulated time
        print(session.snapshot_metrics().summary_row())

Session lifecycle
-----------------
``Cluster.open(spec)`` validates the spec, trains the off-line artifacts
(or adopts pre-trained ones via ``artifacts=``), assembles the execution
strategy and the simulator, and returns a :class:`ClusterSession`.  The
session is then driven explicitly:

* :meth:`ClusterSession.run_for` — run the closed-loop clients for a number
  of transactions (``txns=``) or an amount of simulated time
  (``sim_seconds=``); returns a metrics snapshot.
* :meth:`ClusterSession.submit` — inject a single out-of-loop request; it is
  scheduled alongside the closed-loop traffic the next time the session is
  driven and does not consume closed-loop budget.
* :meth:`ClusterSession.step` — process exactly one simulator event.
* :meth:`ClusterSession.snapshot_metrics` — materialize a
  :class:`~repro.sim.metrics.SimulationResult` on demand; the warm-up window
  is finalized over the completions recorded *so far* and recomputed on the
  next snapshot (metrics are cumulative across ``run_for`` calls).
  ``snapshot_metrics(tenant=...)`` returns one tenant's breakdown.
* :meth:`ClusterSession.in_flight` — the unfinished transactions a paused
  snapshot excludes: txn id, procedure, tenant, attempt, partitions held,
  predicted remaining time.
* :meth:`ClusterSession.drain` — stop new closed-loop submissions, let every
  queued and in-flight transaction finish, and snapshot.
* :meth:`ClusterSession.close` — drain and seal the session (further driving
  raises :class:`~repro.errors.SessionError`); also the context-manager exit.

Workload sources
----------------
What traffic the session serves is declared by ``ClusterSpec.workload`` — a
:class:`~repro.workload.sources.WorkloadSource`.  The default (``None``) is
the paper's closed loop; :class:`~repro.workload.sources.OpenLoopSource`,
:class:`~repro.workload.sources.TraceReplaySource` and
:class:`~repro.workload.sources.TenantSource` compile into deterministic
``EXTERNAL_SUBMIT`` arrival streams instead, injected by ``run_for`` as the
clock advances.  ``reconfigure(workload=...)`` swaps the live source, and
scripted reconfiguration schedules replay deterministically through
:meth:`ClusterSpec.diff` + :meth:`ClusterSession.apply_schedule`.

The session is the one way in: nothing else drives the simulator's event
core.  Its metrics are cumulative across calls, and a fresh session's
``run_for(txns=N)`` reproduces the paper's greedy closed-loop driver byte
for byte — same latencies, counters, windows and per-procedure breakdowns
(held by ``tests/sim/test_event_runtime.py``).

Training is the off-line stage (Fig. 6): :func:`train` derives the models
and mappings a spec describes; ``Cluster.open(spec, artifacts=...)`` adopts
them instead of training again, and :func:`build_strategy` /
:func:`build_houdini` / :func:`build_partitioned_provider` assemble the
pieces for callers that need one without a session.

Reconfigure semantics
---------------------
:meth:`ClusterSession.reconfigure` is the one code that changes a running
session.  Its keys are the ``ClusterSpec`` fields declared ``live=True``
(:func:`repro.schema.live_fields`), each value an instance or its
``to_dict`` form, so ``reconfigure(**spec.diff(other))`` applies a diff
(:meth:`ClusterSession.apply_schedule` is a loop of it); any other field
raises :class:`~repro.errors.SessionError` naming it and the live ones.
Each change routes through the existing invalidation contracts, so no stale
derived state survives; they apply in this order, whatever the keywords':

* ``workload`` swaps the traffic source.  ``None`` (the spec's closed loop)
  or a :class:`ClosedLoopSource` (re)activates the closed-loop clients,
  whose population is fixed at open; any other source freezes them and
  streams its arrivals from the current simulated time on.
* ``policy`` swaps the scheduling policy;
  :meth:`~repro.scheduling.scheduler.TransactionScheduler.rekey` rebuilds
  the pending heap under the new policy's keys and drops the per-class key
  cache.  Transactions queued before the swap keep the prediction
  annotations they were submitted with.
* ``admission`` installs/updates/removes admission limits.  In-flight
  transactions admitted under the old limits release their capacity through
  ``release_if_admitted`` — installing a controller mid-run never
  underflows, and the new limits apply from the next dispatch on.
* ``generator=``, the one keyword that is not a spec field, swaps the
  workload generator — the workload-shift scenario: the cluster, models and
  learned state survive, only the traffic changes.
* ``cost_model`` takes a :class:`~repro.sim.CostModel` or a partial dict of
  its ``*_ms`` constants and assigns them, which clears the cost-schedule
  and the scheduler's predicted-cost caches.  ``None`` raises.
* ``houdini`` takes a full or partial :class:`HoudiniConfig` (either form);
  the live fields that differ from the live config go to
  :meth:`~repro.houdini.houdini.Houdini.reconfigure`, and a field not
  marked live that differs from the spec's value raises.  ``confidence_threshold`` invalidates the plan memo,
  ``enable_estimate_caching`` installs a fresh one or removes it.
* ``selftune`` enables the self-tuning loop or, with ``None``, detaches it.
* ``tenancy`` installs, swaps or (with ``None``) removes the multi-tenant
  policy: the node queue is transplanted between the shared and the
  per-tenant scheduler in dispatch order, quota slots held by in-flight
  transactions release exactly what they charged, and SLO counters reset
  only for tenants whose objective changed.

Reconfiguration changes the *live* session only; the spec the session was
opened from is never mutated, so it can be reused to open further sessions.

Configuration is declared once
------------------------------
Every ``ClusterSpec`` field declares its range on the dataclass field
(:func:`repro.schema.spec`), and so do the nested configs.  Validation,
``to_dict`` / ``from_dict`` (unknown keys get a did-you-mean), ``diff`` and
:meth:`ClusterSession.apply_schedule` are derived from that table; the
fields the spec shares with :class:`~repro.sim.SimulatorConfig` reuse its
declarations (:func:`repro.schema.declared`).  A nested config
(``houdini``, ``selftune``, ``tenancy``, ``admission``, ``cost_model``,
``workload``) may be given as an instance or in dict form anywhere one is
accepted — the spec and ``reconfigure`` coerce both through the class the
field declares (:func:`repro.schema.coerce`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any, Iterable, Mapping

from . import schema
from .benchmarks import BenchmarkInstance, available_benchmarks, get_benchmark
from .errors import SessionError, WorkloadError
from .houdini import GlobalModelProvider, Houdini, HoudiniConfig
from .houdini.providers import ModelProvider
from .mapping import ParameterMappingSet, build_parameter_mappings
from .markov import MarkovModel, build_models_from_trace
from .modelpart import ModelPartitioner, PartitionedModelProvider, PartitionerConfig
from .scheduling.admission import AdmissionLimits
from .scheduling.policies import SchedulingPolicy
from .selftune import SelfTuneConfig, SelfTuneManager
from .schema import declared, spec
from .sim import ClusterSimulator, CostModel, SimulationResult, SimulatorConfig
from .tenancy import TenancyConfig
from .strategies import (
    AssumeDistributedStrategy,
    AssumeSinglePartitionStrategy,
    HoudiniStrategy,
    OracleStrategy,
)
from .txn.strategy import ExecutionStrategy
from .types import ProcedureRequest
from .workload import TraceRecorder, WorkloadTrace
from .workload.generator import WorkloadGenerator
from .workload.sources import (
    Arrival,
    ClosedLoopSource,
    CompileContext,
    CompiledSource,
    WorkloadSource,
)

#: Execution strategies a spec may name (the paper's comparisons).
STRATEGY_NAMES = (
    "assume-distributed",
    "assume-single-partition",
    "oracle",
    "houdini",
    "houdini-global",
    "houdini-partitioned",
)

#: Model-provider choices for Houdini-backed strategies.
MODEL_PROVIDERS = ("global", "partitioned")

# ----------------------------------------------------------------------
# Off-line artifacts
# ----------------------------------------------------------------------
@dataclass
class TrainedArtifacts:
    """Off-line artifacts derived from a sample workload trace."""

    trace: WorkloadTrace
    models: dict[str, MarkovModel]
    mappings: ParameterMappingSet
    benchmark: BenchmarkInstance
    extras: dict = field(default_factory=dict)

    def global_provider(self) -> GlobalModelProvider:
        return GlobalModelProvider(self.models)


# ----------------------------------------------------------------------
# The declarative cluster specification
# ----------------------------------------------------------------------
@dataclass
class ClusterSpec:
    """One declarative, validated configuration for a cluster session.

    Composes every choice the previous five config objects spread out —
    benchmark, simulator, Houdini, scheduling, admission and model provider
    — and round-trips through plain dicts: ``ClusterSpec.from_dict(
    spec.to_dict())`` reproduces the spec (policies are normalized to
    their registry names, nested configs to their dict forms).  Each field
    declares its range where it is defined, and ``live=`` if a running
    session may change it; unknown fields and out-of-range values raise
    :class:`~repro.errors.SessionError` naming the field instead of being
    silently ignored.
    """

    # --- benchmark -----------------------------------------------------
    benchmark: str = spec("tpcc", choices=available_benchmarks, noun="benchmark")
    num_partitions: int = spec(8, kind="int", ge=1)
    partitions_per_node: int = spec(2, kind="int", ge=1)
    seed: int = spec(0, kind="int")
    trace_transactions: int = spec(2000, kind="int", ge=1)
    benchmark_config: Mapping | None = None
    # --- strategy / Houdini --------------------------------------------
    strategy: str = spec("houdini", choices=STRATEGY_NAMES, noun="strategy")
    learning: bool = spec(True, kind="bool")
    model_provider: str = spec("global", choices=MODEL_PROVIDERS, noun="model_provider")
    #: Live in the fields ``HoudiniConfig`` marks ``live=True``; a change to
    #: any other of its fields is refused.
    houdini: HoudiniConfig | None = spec(
        None, nested=HoudiniConfig, optional=True, live=True
    )
    #: Self-tuning loop (:mod:`repro.selftune`): a
    #: :class:`~repro.selftune.SelfTuneConfig` (or its field dict) enables
    #: online drift detection, background retraining and atomic hot model
    #: swaps; ``None`` (default) leaves the loop off.  Requires a learning
    #: Houdini strategy with the global model provider.
    selftune: SelfTuneConfig | Mapping | None = spec(
        None, nested=SelfTuneConfig, optional=True, live=True
    )
    #: Multi-tenant policy (:mod:`repro.tenancy`): a
    #: :class:`~repro.tenancy.TenancyConfig` (or its dict form) layers
    #: per-tenant weighted fair queuing, admission quotas, latency SLOs and
    #: predicted-work shedding over the node scheduler; ``None`` (default)
    #: keeps the single shared scheduler.
    tenancy: TenancyConfig | Mapping | None = declared(
        SimulatorConfig, "tenancy", live=True
    )
    # --- simulator (the ranges are SimulatorConfig's) ------------------
    #: Closed-loop clients per partition (the paper uses four).
    clients_per_partition: int = declared(SimulatorConfig, "clients_per_partition")
    #: Fraction of the earliest-completing transactions treated as warm-up
    #: and excluded from the throughput window (the paper warms up for 60s).
    warmup_fraction: float = declared(SimulatorConfig, "warmup_fraction")
    #: Think time between a client's transactions (0 = saturated, as in the
    #: paper).
    client_think_time_ms: float = declared(SimulatorConfig, "client_think_time_ms")
    #: Latency accounting: ``"exact"`` (default) keeps every observation —
    #: byte-identical to specs that predate this field — while
    #: ``"streaming"`` replaces the unbounded per-latency lists with the
    #: bounded-memory sketches of :mod:`repro.sim.sketch`, the million-user
    #: scale mode (counters stay exact; percentiles are within the sketch's
    #: relative accuracy α of exact).
    metrics_mode: str = declared(SimulatorConfig, "metrics_mode")
    #: Every attempt executes on the coordinator's one engine, so
    #: ``"inline"`` is the only value.  The field outlives the sharded
    #: worker pool it used to select because ``benchmarks/e2e/workloads.py``
    #: still passes ``execution_backend="inline"``; it goes when that
    #: keyword does.
    execution_backend: str = spec("inline", choices=("inline",))
    # --- workload ------------------------------------------------------
    #: How traffic enters the session: a :class:`WorkloadSource` (or its
    #: dict form).  ``None`` — the default — is the legacy closed loop
    #: driven by ``clients_per_partition``/``client_think_time_ms``, byte-
    #: identical to specs that predate this section.  An explicit
    #: :class:`ClosedLoopSource` overrides those two fields; any other
    #: source (open-loop arrivals, trace replay, tenant streams) runs the
    #: simulator in open-loop mode.
    workload: WorkloadSource | Mapping | None = spec(
        None, nested=WorkloadSource, optional=True, noun="workload source", live=True
    )
    # --- scheduling / admission / cost --------------------------------
    #: Queue policy for the node scheduler: a registry name, a policy
    #: instance, or ``None`` for first-come first-served.
    policy: SchedulingPolicy | str | None = declared(SimulatorConfig, "policy", live=True)
    #: Admission-control limits; ``None`` disables admission control.
    admission: AdmissionLimits | None = declared(SimulatorConfig, "admission", live=True)
    cost_model: CostModel | None = spec(None, nested=CostModel, optional=True, live=True)

    # ------------------------------------------------------------------
    def __post_init__(self) -> None:
        for f in fields(self):
            setattr(self, f.name, schema.coerce(
                ClusterSpec, f.name, getattr(self, f.name), SessionError))
        self.validate()

    def validate(self) -> None:
        """Check every field; raise :class:`SessionError` on the first problem."""
        schema.check(self, SessionError)
        if self.selftune is not None:
            if not self.strategy.startswith("houdini"):
                raise SessionError(
                    f"selftune requires a Houdini strategy, got {self.strategy!r}"
                )
            if self.model_provider != "global" or self.strategy == "houdini-partitioned":
                raise SessionError(
                    "selftune currently supports the global model provider only"
                )
            if not self.learning:
                raise SessionError(
                    "selftune requires learning=True (it consumes the "
                    "run-time transition stream)"
                )
        if self.workload is not None:
            try:
                self.workload.validate()
            except WorkloadError as error:
                raise SessionError(f"invalid workload source: {error}") from error

    # ------------------------------------------------------------------
    @classmethod
    def from_kwargs(cls, **kwargs: Any) -> "ClusterSpec":
        """Build a spec from keyword arguments, rejecting unknown keys."""
        return schema.from_dict(cls, kwargs, SessionError, cls.__name__)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ClusterSpec":
        """Rebuild a spec from :meth:`to_dict` output."""
        return schema.from_dict(cls, data, SessionError, cls.__name__)

    def to_dict(self) -> dict:
        """Plain-dict form (JSON-friendly) that :meth:`from_dict` accepts.

        Policies are normalized to their registry name, nested configs to
        their dict forms; ``None`` fields stay ``None``.
        """
        out = schema.to_dict(self)
        if isinstance(self.policy, SchedulingPolicy):
            out["policy"] = self.policy.name
        return out

    def diff(self, other: "ClusterSpec") -> dict:
        """Fields where ``other`` differs from this spec, in ``to_dict`` form.

        The returned ``{field: other's value}`` mapping is JSON-friendly, so
        reconfiguration scripts can be saved next to their ``to_dict``
        baselines and replayed later with
        :meth:`ClusterSession.apply_schedule`.
        """
        mine = self.to_dict()
        theirs = other.to_dict()
        return {key: theirs[key] for key in theirs if mine[key] != theirs[key]}

    def simulator_config(self) -> SimulatorConfig:
        """The :class:`SimulatorConfig` this spec describes: every field the
        two classes share, copied by name; ``open_loop`` from the workload."""
        values = {
            f.name: getattr(self, f.name)
            for f in fields(SimulatorConfig) if hasattr(self, f.name)
        }
        if isinstance(self.workload, ClosedLoopSource):
            values["clients_per_partition"] = self.workload.clients_per_partition
            values["client_think_time_ms"] = self.workload.think_time_ms
        if self.tenancy is not None:
            # Copied so live reconfigure never mutates the (reusable) spec.
            values["tenancy"] = self.tenancy.copy()
        return SimulatorConfig(**values, open_loop=not (
            self.workload is None or isinstance(self.workload, ClosedLoopSource)))


def _nested(name: str, value):
    """A nested config in either form, as an instance of its declared class."""
    value = schema.coerce(ClusterSpec, name, value, SessionError)
    schema.check_field(ClusterSpec, name, value, SessionError)
    return value


def _not_live(name: str) -> SessionError:
    """The error for a change to a field not marked ``live=True``."""
    return SessionError(
        f"{name} is not live-reconfigurable; a running session may change "
        f"{', '.join(schema.live_fields(ClusterSpec))} (of houdini: "
        f"{', '.join(schema.live_fields(HoudiniConfig))})"
    )


def _check_live(changes: Iterable[str]) -> None:
    """Refuse any key that is not a live ``ClusterSpec`` field."""
    live = schema.live_fields(ClusterSpec)
    for name in changes:
        if name not in live:
            raise _not_live(f"spec field {name!r}")


# ----------------------------------------------------------------------
# Training and assembly
# ----------------------------------------------------------------------
def build_benchmark(
    name: str,
    num_partitions: int,
    *,
    seed: int = 0,
    partitions_per_node: int = 2,
    config_overrides: Mapping | None = None,
) -> BenchmarkInstance:
    """Build and populate one benchmark at the given cluster size."""
    bundle = get_benchmark(name)
    return bundle.build(
        num_partitions,
        partitions_per_node=partitions_per_node,
        seed=seed,
        config_overrides=config_overrides,
    )


def record_trace(instance: BenchmarkInstance, transactions: int) -> WorkloadTrace:
    """Record a sample workload trace by executing real transactions."""
    recorder = TraceRecorder(
        instance.catalog,
        instance.database,
        base_partition_chooser=instance.generator.home_partition,
    )
    return recorder.record(instance.generator.generate(transactions))


def train(spec: ClusterSpec) -> TrainedArtifacts:
    """Derive the off-line artifacts (Fig. 6) for a cluster specification.

    Builds and populates the benchmark, records a sample workload trace by
    executing real transactions, and derives the Markov models and parameter
    mappings.  The returned benchmark instance's database reflects the trace
    execution (the paper also trains on a live sample of the running system).
    """
    instance = build_benchmark(
        spec.benchmark,
        spec.num_partitions,
        seed=spec.seed,
        partitions_per_node=spec.partitions_per_node,
        config_overrides=spec.benchmark_config,
    )
    trace = record_trace(instance, spec.trace_transactions)
    models = build_models_from_trace(
        instance.catalog,
        trace,
        base_partition_chooser=lambda record: instance.generator.home_partition(
            ProcedureRequest(record.procedure, record.parameters)
        ),
    )
    mappings = build_parameter_mappings(instance.catalog, trace)
    return TrainedArtifacts(
        trace=trace, models=models, mappings=mappings, benchmark=instance
    )


def build_houdini(
    artifacts: TrainedArtifacts,
    *,
    provider: ModelProvider | None = None,
    config: HoudiniConfig | None = None,
    learning: bool = True,
) -> Houdini:
    """Assemble a Houdini instance from trained artifacts.

    The instance gets its own copy of ``config`` with the benchmark's
    disabled procedures added, so the caller's object is neither changed
    nor reconfigured by the running Houdini.
    """
    instance = artifacts.benchmark
    config = config or HoudiniConfig()
    config = replace(
        config,
        disabled_procedures=config.disabled_procedures
        | instance.bundle.houdini_disabled_procedures,
    )
    return Houdini(
        instance.catalog,
        provider or artifacts.global_provider(),
        artifacts.mappings,
        config,
        learning=learning,
    )


def build_partitioned_provider(
    artifacts: TrainedArtifacts,
    *,
    feature_selection: str = "heuristic",
    houdini_config: HoudiniConfig | None = None,
    partitioner_config: PartitionerConfig | None = None,
) -> PartitionedModelProvider:
    """Build the Section-5 partitioned models from the recorded trace.

    ``feature_selection='feedforward'`` runs the full paper pipeline (greedy
    feature search scored by estimate accuracy); the default ``'heuristic'``
    uses the Fig. 9-style fixed feature set, which is what the large
    throughput sweeps use to keep their running time reasonable.
    """
    instance = artifacts.benchmark
    config = partitioner_config or PartitionerConfig(feature_selection=feature_selection)
    if partitioner_config is None:
        config.feature_selection = feature_selection
    partitioner = ModelPartitioner(
        instance.catalog,
        artifacts.mappings,
        houdini_config=houdini_config or HoudiniConfig(
            disabled_procedures=instance.bundle.houdini_disabled_procedures
        ),
        config=config,
        base_partition_chooser=lambda record: instance.generator.home_partition(
            ProcedureRequest(record.procedure, record.parameters)
        ),
    )
    return partitioner.build_provider(artifacts.trace, dict(artifacts.models))


def build_strategy(
    name: str,
    artifacts: TrainedArtifacts,
    *,
    seed: int = 0,
    learning: bool = True,
    houdini_config: HoudiniConfig | None = None,
    model_provider: str = "global",
) -> ExecutionStrategy:
    """Build one of the paper's execution strategies by name."""
    instance = artifacts.benchmark
    if name == "assume-distributed":
        return AssumeDistributedStrategy(instance.catalog, seed=seed)
    if name == "assume-single-partition":
        return AssumeSinglePartitionStrategy(instance.catalog, seed=seed)
    if name == "oracle":
        return OracleStrategy(instance.catalog, instance.database)
    partitioned = name == "houdini-partitioned" or model_provider == "partitioned"
    if name in ("houdini", "houdini-global", "houdini-partitioned"):
        provider = None
        if partitioned:
            provider = artifacts.extras.get("partitioned_provider")
            if provider is None:
                provider = build_partitioned_provider(artifacts)
                artifacts.extras["partitioned_provider"] = provider
        houdini = build_houdini(
            artifacts, provider=provider, config=houdini_config, learning=learning
        )
        return HoudiniStrategy(houdini, name=name)
    raise SessionError(
        f"unknown strategy {name!r}; available: {', '.join(STRATEGY_NAMES)}"
    )


# ----------------------------------------------------------------------
# The session façade
# ----------------------------------------------------------------------
class Cluster:
    """Entry point: ``Cluster.open(spec)`` yields a live :class:`ClusterSession`."""

    @staticmethod
    def open(
        spec: ClusterSpec | None = None,
        *,
        artifacts: TrainedArtifacts | None = None,
        strategy: ExecutionStrategy | None = None,
        **kwargs: Any,
    ) -> "ClusterSession":
        """Open a long-lived cluster session.

        ``spec`` may be omitted and given as keyword arguments instead
        (``Cluster.open(benchmark="tatp", strategy="oracle")``).  Passing
        pre-trained ``artifacts`` skips training — the idiom for comparing
        strategies over one training pass, or for opening several sessions
        against the same artifacts.  A prebuilt ``strategy`` instance
        overrides the spec's strategy assembly; a strategy *name* is
        shorthand for the spec field of the same name.
        """
        if isinstance(strategy, str):
            if spec is None:
                kwargs["strategy"] = strategy
            else:
                spec = replace(spec, strategy=strategy)
            strategy = None
        if spec is None:
            spec = ClusterSpec.from_kwargs(**kwargs)
        elif kwargs:
            raise SessionError(
                "pass either a ClusterSpec or keyword fields, not both "
                f"(got extra: {', '.join(sorted(kwargs))})"
            )
        if artifacts is None:
            artifacts = train(spec)
        if strategy is None:
            # build_houdini copies the spec's HoudiniConfig, so live
            # reconfiguration of this session never leaks into other
            # sessions opened from the same spec object.
            strategy = build_strategy(
                spec.strategy,
                artifacts,
                seed=spec.seed,
                learning=spec.learning,
                houdini_config=spec.houdini,
                model_provider=spec.model_provider,
            )
        # Copied for the same reason as the HoudiniConfig above: live cost
        # reconfiguration mutates the model, and the spec must stay reusable.
        cost_model = replace(spec.cost_model) if spec.cost_model is not None else CostModel()
        simulator = ClusterSimulator(
            artifacts.benchmark.catalog,
            artifacts.benchmark.database,
            artifacts.benchmark.generator,
            strategy,
            cost_model=cost_model,
            config=spec.simulator_config(),
            benchmark_name=artifacts.benchmark.name,
        )
        return ClusterSession(spec, artifacts, strategy, simulator)


class ClusterSession:
    """A live cluster: stream transactions in, reconfigure, snapshot, drain.

    See the module docstring for the lifecycle and reconfigure semantics.
    Sessions are single-threaded, like the node scheduler they model.
    """

    def __init__(
        self,
        spec: ClusterSpec,
        artifacts: TrainedArtifacts,
        strategy: ExecutionStrategy,
        simulator: ClusterSimulator,
    ) -> None:
        self.spec = spec
        self.artifacts = artifacts
        self.strategy = strategy
        self.simulator = simulator
        self._closed = False
        #: Compile context shared by every workload source this session runs.
        self._workload_ctx = CompileContext(artifacts.benchmark, spec.seed)
        #: The live workload source (the spec's at open; swappable via
        #: ``reconfigure(workload=...)``).
        self.workload: WorkloadSource | None = spec.workload
        #: Compiled arrival stream, or ``None`` when the built-in closed
        #: loop drives submission.
        self._arrivals: CompiledSource | None = None
        #: Simulated time at which the current arrival stream's clock
        #: started (non-zero after a live workload swap).
        self._arrival_offset = 0.0
        if spec.workload is not None and not isinstance(spec.workload, ClosedLoopSource):
            self._arrivals = self._compile_source(spec.workload)
        #: The self-tuning manager (``None`` unless enabled by the spec or a
        #: later ``reconfigure(selftune=...)``).
        self.selftune: SelfTuneManager | None = None
        if spec.selftune is not None:
            # Copied like the HoudiniConfig above: the spec stays reusable.
            self._install_selftune(replace(spec.selftune))
        simulator.begin()

    def _install_selftune(self, config: SelfTuneConfig) -> None:
        houdini = self.houdini
        if houdini is None:
            raise SessionError(
                f"selftune requires a Houdini strategy, got {self.strategy.name!r}"
            )
        if not isinstance(houdini.provider, GlobalModelProvider):
            raise SessionError(
                "selftune currently supports the global model provider only"
            )
        if not houdini.learning:
            raise SessionError(
                "selftune requires learning=True (it consumes the run-time "
                "transition stream)"
            )
        simulator = self.simulator
        manager = SelfTuneManager(
            houdini, config, clock=lambda: simulator.txn_clock_ms
        )
        houdini.set_selftune(manager)
        simulator.set_selftune(manager)
        self.selftune = manager

    def _compile_source(self, source: WorkloadSource) -> CompiledSource:
        """Compile a source, surfacing failures (e.g. an unreadable trace
        file) as session errors."""
        try:
            return source.compile(self._workload_ctx)
        except WorkloadError as error:
            raise SessionError(f"invalid workload source: {error}") from error

    # ------------------------------------------------------------------
    @property
    def houdini(self) -> Houdini | None:
        """The strategy's Houdini instance, if it has one."""
        return getattr(self.strategy, "houdini", None)

    @property
    def now_ms(self) -> float:
        """Current simulated time."""
        return self.simulator.now_ms

    @property
    def closed(self) -> bool:
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise SessionError("session is closed")

    # ------------------------------------------------------------------
    def submit(
        self,
        request: ProcedureRequest,
        *,
        at_ms: float | None = None,
        tenant: str | None = None,
    ) -> None:
        """Inject one out-of-loop request (processed when the session is driven).

        The request enters the node scheduler at ``max(at_ms, now)`` without
        consuming closed-loop budget; its metrics land in the same
        accumulators as closed-loop traffic.  ``tenant=`` labels it for the
        per-tenant breakdowns and, when tenancy is enabled, subjects it to
        that tenant's weight, quota, SLO tracking and shedding.
        """
        self._check_open()
        self.simulator.submit_request(request, at_ms=at_ms, tenant=tenant)

    def step(self) -> bool:
        """Process exactly one simulator event; ``False`` if none remain."""
        self._check_open()
        return self.simulator.step()

    def run_for(
        self, txns: int | None = None, *, sim_seconds: float | None = None
    ) -> SimulationResult:
        """Drive the session's workload and return a metrics snapshot.

        Exactly one of ``txns`` or ``sim_seconds`` must be given.  Under the
        (default) closed loop, ``txns`` grants that many further submissions
        and runs until the cluster quiesces, while ``sim_seconds`` runs the
        saturated loop for that much simulated time.  Under an arrival
        source (open loop, trace replay, tenant streams), ``txns`` injects
        the next that-many arrivals and drains them, while ``sim_seconds``
        injects every arrival falling inside the window and pauses the
        clock at its end — in-flight work is visible via :meth:`in_flight`.
        """
        self._check_open()
        if (txns is None) == (sim_seconds is None):
            raise SessionError("run_for needs exactly one of txns= or sim_seconds=")
        simulator = self.simulator
        if txns is not None:
            schema.check_value("txns", txns, SessionError, kind="int", ge=0)
            if self._arrivals is None:
                simulator.extend_budget(txns)
            else:
                self._inject(self._arrivals.take(txns))
            simulator.run_until()
        else:
            schema.check_value("sim_seconds", sim_seconds, SessionError, kind="float", ge=0)
            self._run_to(simulator.now_ms + 1000.0 * sim_seconds)
        return simulator.snapshot()

    def _run_to(self, deadline_ms: float) -> None:
        """Run the live workload up to an absolute simulated deadline."""
        simulator = self.simulator
        if self._arrivals is None:
            simulator.extend_budget(float("inf"))
            simulator.run_until(deadline_ms=deadline_ms)
            simulator.freeze_budget()
        else:
            self._inject(self._arrivals.take_until(deadline_ms - self._arrival_offset))
            simulator.run_until(deadline_ms=deadline_ms)
        simulator.advance_clock(deadline_ms)

    def _inject(self, batch: list[Arrival]) -> None:
        """Feed compiled arrivals into the event core as external submits."""
        offset = self._arrival_offset
        submit = self.simulator.submit_request
        for arrival in batch:
            submit(
                arrival.request,
                at_ms=offset + arrival.at_ms,
                tenant=arrival.tenant,
            )

    # ------------------------------------------------------------------
    def reconfigure(
        self, *, generator: WorkloadGenerator | None = None, **changes: Any
    ) -> "ClusterSession":
        """Change the running session; keys are live ``ClusterSpec`` fields.

        Values are instances or ``to_dict`` forms, so
        ``reconfigure(**spec.diff(other))`` applies a spec diff; what each
        change does, and the order they apply in, is in the module
        docstring.  ``generator=`` swaps the workload generator.  Returns
        ``self`` so calls chain:
        ``session.reconfigure(policy="shortest-predicted").run_for(txns=500)``.
        """
        self._check_open()
        _check_live(changes)
        if generator is not None:
            changes["generator"] = generator
        for name, apply in (
            ("workload", self._apply_workload),
            ("policy", self._apply_policy),
            ("admission", self._apply_admission),
            ("generator", self.simulator.set_generator),
            ("cost_model", self._apply_cost_model),
            ("houdini", self._apply_houdini),
            ("selftune", self._apply_selftune),
            ("tenancy", self._apply_tenancy),
        ):
            if name in changes:
                apply(changes[name])
        return self

    def _apply_workload(self, value) -> None:
        source = _nested("workload", value)
        if source is not None:
            try:
                source.validate()
            except WorkloadError as error:
                raise SessionError(f"invalid workload source: {error}") from error
        simulator = self.simulator
        if source is None or isinstance(source, ClosedLoopSource):
            closed = source or ClosedLoopSource(
                self.spec.clients_per_partition, self.spec.client_think_time_ms
            )
            # Arrival streams stop; the closed-loop clients take over
            # (started now if the session opened open-loop).  The client
            # population is fixed at open time, so a different count
            # cannot be honored and must not be silently ignored.
            if closed.clients_per_partition != simulator.config.clients_per_partition:
                raise SessionError(
                    f"cannot change clients_per_partition on a live session "
                    f"(open with {simulator.config.clients_per_partition}, "
                    f"asked for {closed.clients_per_partition}); open a new "
                    f"session for a different client population"
                )
            self._arrivals = None
            simulator.config.client_think_time_ms = closed.think_time_ms
            simulator.activate_clients()
        else:
            # The closed loop stops submitting (in-flight work still
            # finishes); the new stream's clock starts at the current
            # simulated time.
            compiled = self._compile_source(source)
            simulator.freeze_budget()
            self._arrivals = compiled
            self._arrival_offset = simulator.now_ms
        self.workload = source

    def _apply_policy(self, policy) -> None:
        schema.check_field(ClusterSpec, "policy", policy, SessionError)
        self.simulator.set_policy(policy)

    def _apply_admission(self, value) -> None:
        self.simulator.set_admission(_nested("admission", value))

    def _apply_cost_model(self, value) -> None:
        if isinstance(value, CostModel):
            value = value.to_dict()
        if not isinstance(value, Mapping):
            schema.check_field(ClusterSpec, "cost_model", value, SessionError)
            raise SessionError(
                "cost_model cannot be cleared live; diff against a spec "
                "that keeps a cost model"
            )
        model = self.simulator.cost_model
        for name, new in value.items():
            if not name.endswith("_ms") or not hasattr(model, name):
                raise SessionError(
                    f"unknown cost-model constant {name!r}; constants are "
                    f"the *_ms fields of repro.sim.CostModel"
                )
            schema.check_field(CostModel, name, new, SessionError)
            # CostModel.__setattr__ clears the cost-schedule cache.
            setattr(model, name, new)
        # Predicted per-class costs baked the old constants in.
        self.simulator.scheduler.clear_cost_cache()

    def _apply_houdini(self, value) -> None:
        houdini = self.houdini
        if houdini is None:
            raise SessionError(
                "houdini reconfiguration requires a Houdini-backed "
                f"strategy (this session runs {self.strategy.name!r})"
            )
        if not isinstance(value, Mapping):
            value = (_nested("houdini", value) or HoudiniConfig()).to_dict()
        live = houdini.config.to_dict()
        # Non-live fields are checked against what the spec declared: the
        # live config also carries the benchmark's built-in disabled
        # procedures, which no spec lists.
        declared = (self.spec.houdini or HoudiniConfig()).to_dict()
        changed = {}
        for name, new in value.items():
            if name not in schema.live_fields(HoudiniConfig):
                if name in declared and declared[name] == new:
                    continue
                raise _not_live(f"houdini field {name!r}")
            if live[name] != new:
                schema.check_field(HoudiniConfig, name, new, SessionError)
                changed[name] = new
        houdini.reconfigure(**changed)

    def _apply_selftune(self, value) -> None:
        config = _nested("selftune", value)
        if config is None:
            if self.houdini is not None:
                self.houdini.set_selftune(None)
            self.simulator.set_selftune(None)
            self.selftune = None
        else:
            # Copied so the caller's config object stays reusable.
            self._install_selftune(replace(config))

    def _apply_tenancy(self, value) -> None:
        tenancy = _nested("tenancy", value)
        self.simulator.set_tenancy(tenancy.copy() if tenancy is not None else None)

    # ------------------------------------------------------------------
    def snapshot_metrics(self, *, tenant: str | None = None):
        """Materialize cumulative metrics on demand (repeatable).

        With ``tenant=``, return that tenant's
        :class:`~repro.sim.metrics.TenantBreakdown` instead of the full
        :class:`~repro.sim.metrics.SimulationResult` (``TenantSource``
        sessions; raises :class:`SessionError` for unknown tenants).
        """
        self._check_open()
        result = self.simulator.snapshot()
        if tenant is None:
            return result
        breakdown = result.tenants.get(tenant)
        if breakdown is None:
            known = ", ".join(sorted(result.tenants)) or "none"
            raise SessionError(f"unknown tenant {tenant!r}; known tenants: {known}")
        return breakdown

    def in_flight(self):
        """Unfinished transactions at the paused clock (executing + queued).

        Each entry is an :class:`~repro.sim.simulator.InFlightTransaction`:
        transaction id, procedure, tenant, attempt count, partitions held
        and predicted remaining milliseconds.  Metric snapshots exclude this
        work by design; this is the view into the gap — most useful after a
        ``run_for(sim_seconds=...)`` pause, where completions beyond the
        deadline are still in flight.
        """
        self._check_open()
        return self.simulator.in_flight()

    def drain(self) -> SimulationResult:
        """Finish all queued and in-flight work, stop new submissions, snapshot."""
        self._check_open()
        self.simulator.freeze_budget()
        self.simulator.run_until()
        return self.simulator.snapshot()

    # ------------------------------------------------------------------
    def apply_schedule(
        self, schedule: Iterable[tuple[float, Mapping[str, Any]]]
    ) -> "ClusterSession":
        """Replay a scripted reconfigure schedule against simulated time.

        ``schedule`` is a sequence of ``(at_ms, diff)`` pairs — ``diff`` as
        produced by :meth:`ClusterSpec.diff` (to-dict forms).  The session
        runs its live workload up to each ``at_ms`` in order and applies the
        diff there through :meth:`reconfigure`, so the same seed and
        schedule always reproduce the same result, byte for byte.  A diff
        key that is not a live field, or an ``at_ms`` that is not a finite
        number >= 0, raises :class:`SessionError` before anything runs.
        """
        self._check_open()
        entries = list(schedule)
        for at_ms, diff in entries:
            schema.check_value("at_ms", at_ms, SessionError, kind="float", ge=0)
            _check_live(diff)
        for at_ms, diff in sorted(entries, key=lambda entry: entry[0]):
            if at_ms > self.simulator.now_ms:
                self._run_to(at_ms)
            self.reconfigure(**diff)
        return self

    def close(self) -> SimulationResult:
        """Drain the session and seal it; returns the final metrics."""
        if self._closed:
            raise SessionError("session is already closed")
        try:
            result = self.drain()
        finally:
            self._closed = True
        return result

    # ------------------------------------------------------------------
    def __enter__(self) -> "ClusterSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._closed:
            return
        if exc_type is not None:
            # The body failed: seal the session without draining.  Running
            # the event loop on the very state that just raised could both
            # mask the original exception and silently execute queued work.
            self._closed = True
            return
        self.close()

    def describe(self) -> str:
        return (
            f"ClusterSession({self.spec.benchmark}/{self.strategy.name} "
            f"P={self.spec.num_partitions} t={self.now_ms:.1f}ms "
            f"submitted={self.simulator.submitted}"
            f"{', closed' if self._closed else ''})"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{self.describe()}>"
