"""Closed-loop cluster simulator: an incrementally steppable event core.

Reproduces the paper's throughput experiments without the Wisconsin cluster:
transactions are executed *functionally* against the real in-memory database
through the transaction coordinator (so mispredictions, restarts, aborts and
optimization updates all really happen), and their *timing* is replayed
through the cost model onto a set of single-threaded partition resources.

The runtime is a single binary event heap (see :mod:`repro.sim.events`)
processing client-ready, transaction-complete, partition-release and
external-submit events in timestamp order.  The heap and every accumulator
live on the simulator instance, so the core is driven incrementally:

* :meth:`ClusterSimulator.begin` initializes the event state (idempotent);
* :meth:`ClusterSimulator.inject` pushes a raw event,
  :meth:`ClusterSimulator.submit_request` injects an out-of-loop request;
* :meth:`ClusterSimulator.step` processes exactly one event;
* :meth:`ClusterSimulator.run_until` processes events until the heap drains
  or a simulated deadline is reached;
* :meth:`ClusterSimulator.extend_budget` grants the closed-loop clients
  more submissions, and :meth:`ClusterSimulator.snapshot` materializes the
  windowed metrics on demand (repeatedly, without disturbing the run).

There is no one-shot batch entry point: :class:`repro.session.ClusterSession`
is the one way in, a long-lived façade that drives this core through the
calls above (``run_for(txns=N)`` on a fresh session is ``extend_budget(N);
run_until(); snapshot()``).  :class:`SimulatorConfig` holds the knobs the
core reads; its fields are :class:`~repro.session.ClusterSpec`'s, filled by
name.

The workload driver is closed-loop, matching the paper's setup of "four
client threads per partition to ensure that the workload queues at each node
are always full": each simulated client submits its next request the moment
its previous one completes, as long as submission budget remains.  A client
that becomes ready with no budget left is *parked* and revived (at the
current simulated time) when the budget is extended.  Every submission is
routed through a :class:`~repro.scheduling.scheduler.TransactionScheduler`,
so queue policies and admission control are exercised by throughput runs:

* under the default FCFS policy with no admission limits the scheduler is
  pass-through and the runtime reproduces the legacy greedy driver's results
  exactly (``tests/sim`` holds them equal metric-by-metric);
* a prediction-aware policy annotates each request with its Houdini path
  estimate (:meth:`~repro.txn.strategy.ExecutionStrategy.preview_estimate`),
  dispatches by predicted cost/partition profile, and *partition-gates*
  dispatch — a transaction whose predicted partitions are busy is parked
  on the one that frees last and woken by its ``PARTITION_RELEASE`` event,
  while ready work behind it runs;
* admission limits defer or reject transactions whose predicted resource
  usage would overload the node, with capacity released on completion.

A transaction starts once every partition in its lock set is free;
partitions are released at commit — or earlier when the early-prepare
optimization (OP4) declared the transaction finished with them, which is how
speculative execution shows up in the timing model.

Metric updates are batched: the loop appends to flat accumulator arrays and
a :class:`~repro.sim.metrics.SimulationResult` is materialized on demand.
Completions are recorded at ``TXN_COMPLETE`` events, i.e. already ordered by
end time, so the warm-up window needs one linear pass instead of a sort.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from heapq import heappop, heappush

from .. import schema
from ..catalog.schema import Catalog
from ..engine.engine import AttemptOutcome
from ..errors import SimulationError
from ..scheduling.admission import AdmissionController, AdmissionDecision, AdmissionLimits
from ..scheduling.policies import SchedulingPolicy, available_policies, policy_by_name
from ..scheduling.scheduler import TransactionScheduler, blocking_partition
from ..schema import spec
from ..storage.partition_store import Database
from ..tenancy import TenancyConfig, TenancyManager, TenantScheduler
from ..txn.coordinator import TransactionCoordinator
from ..txn.record import TransactionRecord
from ..txn.strategy import ExecutionStrategy
from ..types import ProcedureRequest
from ..workload.generator import WorkloadGenerator
from .cost_model import CostModel
from .events import CLIENT_READY, EXTERNAL_SUBMIT, PARTITION_RELEASE, TXN_COMPLETE
from .metrics import ProcedureBreakdown, SimulationResult, TenantBreakdown
from .sketch import CompletionLog, CompletionWindow, LatencySketch

#: Accumulator slots per procedure (see ``_replay_timing``), in the order of
#: :class:`ProcedureBreakdown`'s fields.
_TXNS, _EST, _PLAN, _EXEC, _COORD, _OTHER = range(6)

_INF = float("inf")


@dataclass
class SimulatorConfig:
    """Knobs for one simulator core.

    Every field but ``open_loop`` is the :class:`~repro.session.ClusterSpec`
    field of the same name, documented there and declared here once (the
    spec reuses these declarations); ``ClusterSpec.simulator_config`` fills
    this config by field name.
    """

    clients_per_partition: int = spec(4, kind="int", ge=1)
    warmup_fraction: float = spec(0.1, kind="float", ge=0, lt=1)
    client_think_time_ms: float = spec(0.0, kind="float", ge=0)
    policy: SchedulingPolicy | str | None = spec(
        None, nested=SchedulingPolicy, choices=available_policies,
        noun="scheduling policy", optional=True,
    )
    admission: AdmissionLimits | None = spec(None, nested=AdmissionLimits, optional=True)
    #: Open-loop mode: no closed-loop clients are created at :meth:`begin`
    #: (work arrives only through ``EXTERNAL_SUBMIT`` injections — arrival
    #: processes, trace replay, tenant streams).  The closed loop can still
    #: be started later via :meth:`ClusterSimulator.activate_clients`.
    open_loop: bool = spec(False, kind="bool")
    metrics_mode: str = spec("exact", choices=("exact", "streaming"))
    tenancy: TenancyConfig | None = spec(None, nested=TenancyConfig, optional=True)


@dataclass(frozen=True)
class InFlightTransaction:
    """Snapshot of one unfinished transaction (``in_flight`` introspection).

    ``state`` is ``"executing"`` for transactions whose simulated end time
    lies beyond the paused clock (their functional execution already
    happened; the cluster is modeled as still working on them) and
    ``"queued"`` for transactions waiting in the node scheduler.  Executing
    entries carry the real transaction id, attempt count and held
    partitions; queued entries carry the predictions they were submitted
    with (no txn id exists yet).
    """

    state: str
    procedure: str
    tenant: str | None
    txn_id: int | None
    attempt: int
    partitions: tuple[int, ...]
    submitted_at_ms: float
    predicted_remaining_ms: float

    to_dict = schema.to_dict

    @classmethod
    def from_dict(cls, data: dict) -> "InFlightTransaction":
        entry = schema.from_dict(cls, data, SimulationError, "in-flight transaction")
        return dataclasses.replace(entry, partitions=tuple(entry.partitions))


class ClusterSimulator:
    """Steppable event core for one (benchmark, strategy, cluster) configuration."""

    def __init__(
        self,
        catalog: Catalog,
        database: Database,
        generator: WorkloadGenerator,
        strategy: ExecutionStrategy,
        *,
        cost_model: CostModel | None = None,
        config: SimulatorConfig | None = None,
        benchmark_name: str = "",
    ) -> None:
        self.catalog = catalog
        self.database = database
        self.generator = generator
        self.strategy = strategy
        self.cost_model = cost_model or CostModel()
        self.config = config or SimulatorConfig()
        self.benchmark_name = benchmark_name or generator.benchmark
        self.coordinator = TransactionCoordinator(catalog, database, strategy)
        #: Populated by :meth:`begin` (scheduler + admission introspection).
        self.scheduler: TransactionScheduler | None = None
        self.admission: AdmissionController | None = None
        self._execute = self.coordinator.execute_transaction
        self._began = False
        #: Optional self-tuning manager (``repro.selftune``); installed by the
        #: session so :meth:`_build_result` can report its counters.
        self.selftune = None
        #: Tenancy runtime (``repro.tenancy.TenancyManager``); created by
        #: :meth:`begin` when ``config.tenancy`` is set, or live-attached
        #: through :meth:`set_tenancy`.
        self.tenancy: TenancyManager | None = None

    def set_selftune(self, manager) -> None:
        """Attach (or with ``None`` detach) the self-tuning manager."""
        self.selftune = manager

    # ------------------------------------------------------------------
    def _make_policy(self) -> SchedulingPolicy | None:
        policy = self.config.policy
        if policy is None or isinstance(policy, SchedulingPolicy):
            return policy
        return policy_by_name(policy)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def begin(self) -> None:
        """Initialize the incremental event state (idempotent)."""
        if self._began:
            return
        config = self.config
        schema.check(config, SimulationError)
        streaming = config.metrics_mode == "streaming"
        self._streaming = streaming
        self._num_partitions = self.catalog.num_partitions
        self._num_nodes = self.catalog.scheme.num_nodes
        self._num_clients = max(1, config.clients_per_partition * self._num_partitions)
        if config.tenancy is not None:
            self.scheduler = TenantScheduler(
                config.tenancy,
                self._make_policy(),
                cost_model=self.cost_model,
                streaming_waits=streaming,
            )
            self.tenancy = TenancyManager(config.tenancy)
        else:
            self.scheduler = TransactionScheduler(
                self._make_policy(),
                cost_model=self.cost_model,
                streaming_waits=streaming,
            )
            self.tenancy = None
        limits = config.admission
        self.admission = AdmissionController(limits) if limits is not None else None

        self._partition_free = [0.0] * self._num_partitions
        # Batched accumulators, folded into a SimulationResult on demand.
        # Streaming mode swaps the unbounded lists for O(1)-memory sketches
        # that answer to the same ``append`` call sites.
        self._latencies: list[float] | LatencySketch = (
            LatencySketch() if streaming else []
        )
        self._completions: CompletionLog | CompletionWindow = (
            CompletionWindow() if streaming else CompletionLog()
        )
        self._breakdown_acc: dict[str, list] = {}
        # Named after SimulationResult's fields: a snapshot passes them by name.
        self._counters = {
            "committed": 0, "user_aborted": 0, "restarts": 0, "escalations": 0,
            "undo_disabled": 0, "early_prepared": 0, "single_partition": 0,
            "distributed": 0, "rejected": 0,
        }
        self._submitted = 0
        self._budget: float = 0
        self._complete_seq = 0
        self._external_seq = 0
        #: Per-tenant accumulators (populated only by tenant-labeled
        #: submissions; unlabeled traffic never touches them).
        self._tenant_acc: dict[str, dict] = {}
        #: Partitions with a ``PARTITION_RELEASE`` wake-up in the event heap:
        #: one per partition that has parked waiters.  If it fires early (the
        #: partition was taken again) the drain it triggers re-arms it.
        self._armed: set[int] = set()
        # The initial event list — every client ready at t=0, client-id
        # tie-break — is already heap-ordered.  Open-loop cores start with
        # no clients; activate_clients() can add them later.
        self._clients_started = not config.open_loop
        self._events: list[tuple] = (
            [(0.0, CLIENT_READY, c, None) for c in range(self._num_clients)]
            if self._clients_started else []
        )
        #: Clients that became ready while the submission budget was
        #: exhausted: ``(ready_time, client_id)``, revived on extension.
        self._parked: list[tuple[float, int]] = []
        #: Outstanding heap entries the FCFS fast path cannot interpret
        #: (TXN_COMPLETE / PARTITION_RELEASE / EXTERNAL_SUBMIT).
        self._general_events = 0
        self._now = 0.0
        #: Dispatch time of the transaction currently executing: the
        #: deterministic clock self-tuning retrain jobs run against.  Unlike
        #: ``_now`` it is set right before every call of ``_execute``, in
        #: both event loops.
        self._txn_clock = 0.0
        self._began = True

    @property
    def now_ms(self) -> float:
        """Current simulated time (the timestamp of the last processed event)."""
        return self._now if self._began else 0.0

    @property
    def txn_clock_ms(self) -> float:
        """Simulated dispatch time of the currently executing transaction.

        This is the clock the self-tuning subsystem schedules retrain jobs
        against.  Both event loops set it where they call ``_execute``, so
        time-driven decisions are byte-deterministic.
        """
        return self._txn_clock if self._began else 0.0

    @property
    def submitted(self) -> int:
        """Closed-loop submissions so far (including admission rejections)."""
        return self._submitted if self._began else 0

    # ------------------------------------------------------------------
    # Budget and clock control
    # ------------------------------------------------------------------
    def extend_budget(self, txns: float) -> None:
        """Grant the closed-loop clients ``txns`` further submissions."""
        self.begin()
        self._budget += txns

    def freeze_budget(self) -> None:
        """Stop new closed-loop submissions (in-flight work still finishes)."""
        self.begin()
        self._budget = self._submitted

    def advance_clock(self, to_ms: float) -> None:
        """Move the simulated clock forward to ``to_ms`` (never backwards)."""
        self.begin()
        if to_ms > self._now:
            self._now = to_ms

    # ------------------------------------------------------------------
    # Event injection
    # ------------------------------------------------------------------
    def inject(self, event: tuple) -> None:
        """Push one raw ``(time, kind, tiebreak, payload)`` event."""
        self.begin()
        if event[1] != CLIENT_READY:
            self._general_events += 1
        heappush(self._events, event)

    def submit_request(
        self,
        request: ProcedureRequest,
        *,
        at_ms: float | None = None,
        tenant: str | None = None,
    ) -> None:
        """Inject an out-of-loop request, processed when the core is driven.

        The request enters the scheduler at ``max(at_ms, now)`` (defaulting
        to the current simulated time) without consuming closed-loop budget.
        ``tenant`` labels the submission for the per-tenant metric
        breakdowns (``TenantSource`` streams).
        """
        self.begin()
        at = self._now if at_ms is None else max(at_ms, self._now)
        self._external_seq += 1
        self.inject((at, EXTERNAL_SUBMIT, self._external_seq, (request, tenant)))

    def activate_clients(self) -> None:
        """Start the closed-loop clients on a core that began open-loop.

        Idempotent; the clients become ready at the current simulated time
        and submit once budget is granted (:meth:`extend_budget`).  Used by
        live workload switches from an arrival source back to a closed loop.
        """
        self.begin()
        if self._clients_started:
            return
        self._clients_started = True
        now = self._now
        for client_id in range(self._num_clients):
            heappush(self._events, (now, CLIENT_READY, client_id, None))

    # ------------------------------------------------------------------
    # Live reconfiguration hooks (see repro.session.ClusterSession)
    # ------------------------------------------------------------------
    def set_policy(self, policy: SchedulingPolicy | str | None) -> None:
        """Swap the scheduling policy, re-keying every queued transaction."""
        self.begin()
        self.config.policy = policy
        self.scheduler.rekey(self._make_policy())

    def set_admission(self, limits: AdmissionLimits | None) -> None:
        """Swap admission limits on the live controller (or install/remove it).

        Transactions already in flight were admitted against the previous
        limits; their completions release capacity through
        :meth:`~repro.scheduling.admission.AdmissionController.release_if_admitted`,
        so installing a controller mid-run never underflows.
        """
        self.begin()
        self.config.admission = limits
        if limits is None:
            self.admission = None
        elif self.admission is None:
            self.admission = AdmissionController(limits)
        else:
            self.admission.set_limits(limits)

    def set_generator(self, generator: WorkloadGenerator) -> None:
        """Swap the workload generator (takes effect on the next submission)."""
        self.generator = generator

    def set_tenancy(self, tenancy: TenancyConfig | None) -> None:
        """Install, swap, or remove the tenancy runtime on a live core.

        Attach transplants the shared queue into a :class:`TenantScheduler`
        (stats, caches and queued transactions carry over in dispatch order)
        and seeds the in-flight predicted-work signal from the outstanding
        completion events; detach transplants it back into a flat scheduler.
        Transactions admitted under quotas before a swap release the slots
        they actually hold (identity-keyed accounting), so no counter ever
        underflows.
        """
        self.begin()
        self.config.tenancy = tenancy
        if tenancy is None:
            if self.tenancy is None:
                return
            flat = TransactionScheduler(self._make_policy())
            flat.adopt_from(self.scheduler)
            self.scheduler = flat
            self.tenancy = None
            return
        if self.tenancy is None:
            layered = TenantScheduler(tenancy, self._make_policy())
            layered.adopt_from(self.scheduler)
            self.scheduler = layered
            self.tenancy = TenancyManager(tenancy)
            self.tenancy.seed_inflight(
                [when for when, kind, _, _p in self._events if kind == TXN_COMPLETE]
            )
            return
        self.scheduler.set_tenancy(tenancy)
        self.tenancy.set_config(tenancy)

    # ------------------------------------------------------------------
    # Driving the core
    # ------------------------------------------------------------------
    def _mode(self) -> tuple[bool, bool]:
        """(need_estimates, gate_on_partitions) for the current configuration."""
        policy = self.scheduler.policy
        predictive = policy is not None and policy.uses_predictions
        # Tenancy needs estimates even under FCFS: predicted service time
        # drives the fair-queuing charge and the shedding decision.  It also
        # partition-gates dispatch — overload must back up in the tenant
        # scheduler's weighted queues (where fairness and the backlog term of
        # the shed predictor operate), not inside the partitions.
        need_estimates = (
            predictive or self.admission is not None or self.tenancy is not None
        )
        return need_estimates, predictive or self.tenancy is not None

    def step(self) -> bool:
        """Process exactly one event; ``False`` when nothing can progress.

        Parked closed-loop clients count as progress when budget remains —
        the first step after :meth:`extend_budget` revives them, matching
        :meth:`run_until`'s semantics.
        """
        self.begin()
        if not self._events and not (self._parked and self._submitted < self._budget):
            return False
        self._run_events(_INF, limit=1)
        return True

    def run_until(self, *, deadline_ms: float = _INF) -> None:
        """Process events until the heap drains or the next event passes
        ``deadline_ms`` (simulated time)."""
        self.begin()
        self._run_events(deadline_ms)

    # ------------------------------------------------------------------
    def _run_events(self, deadline_ms: float, limit: float = _INF) -> None:
        events = self._events
        # Revive parked closed-loop clients once budget is available again.
        # Revival happens at the current simulated time (never in the past)
        # so the completion stream stays ordered by end time.
        if self._parked and self._submitted < self._budget:
            now = self._now
            for ready, client_id in self._parked:
                heappush(
                    events,
                    (ready if ready > now else now, CLIENT_READY, client_id, None),
                )
            self._parked.clear()
        need_estimates, gate_on_partitions = self._mode()
        if (
            self.admission is None
            and self.tenancy is None
            and not gate_on_partitions
            and self._general_events == 0
            and deadline_ms == _INF
            and not self.scheduler
        ):
            # Pass-through fast path: dispatch follows submission immediately
            # (no capacity gate can block it, nothing is queued ahead), so
            # each client's completion is folded into its next CLIENT_READY
            # event — one heap entry per transaction — and the scheduler
            # only counts the transaction through.  Every way this loop
            # leaves work queued also leaves a general event behind (a park
            # arms a PARTITION_RELEASE, a push-back needs an in-flight
            # TXN_COMPLETE); the empty-queue test covers a queue filled from
            # outside the loop, which the general loop drains.
            self._run_fast(limit)
        else:
            self._run_general(deadline_ms, limit, need_estimates, gate_on_partitions)

    def _run_fast(self, limit: float = _INF) -> None:
        events = self._events
        partition_free = self._partition_free
        breakdown_acc = self._breakdown_acc
        latencies = self._latencies
        completions = self._completions
        counters = self._counters
        parked = self._parked
        num_nodes = self._num_nodes
        think = self.config.client_think_time_ms
        budget = self._budget
        submitted = self._submitted
        now = self._now
        replay = self._replay_timing
        account = self._account_record
        pass_through = self.scheduler.pass_through
        next_request = self.generator.next_request
        execute = self._execute
        processed = 0
        while events and processed < limit:
            processed += 1
            now, _, client_id, payload = heappop(events)
            if payload is not None:
                completions.append(payload)
            if submitted >= budget:
                parked.append((now, client_id))
                continue
            submitted += 1
            raw = next_request()
            request = ProcedureRequest(
                raw.procedure, raw.parameters, client_id, client_id % num_nodes
            )
            # need_estimates is necessarily False here: this path runs
            # only without admission control and with a non-predictive
            # policy, so submissions carry no estimate.
            pass_through(request)
            self._txn_clock = now
            record = execute(request)
            end = replay(record, now, partition_free, breakdown_acc)
            latencies.append(end - now)
            committed = account(record, counters)
            heappush(events, (end + think, CLIENT_READY, client_id, (end, committed)))
        self._submitted = submitted
        self._now = now

    def _run_general(
        self,
        deadline_ms: float,
        limit: float,
        need_estimates: bool,
        gate_on_partitions: bool,
    ) -> None:
        events = self._events
        scheduler = self.scheduler
        admission = self.admission
        completions = self._completions
        parked = self._parked
        think = self.config.client_think_time_ms
        budget = self._budget
        submitted = self._submitted
        now = self._now
        processed = 0
        while events and processed < limit:
            if events[0][0] > deadline_ms:
                break
            processed += 1
            now, kind, tiebreak, payload = heappop(events)
            if kind == CLIENT_READY:
                # A fast-path CLIENT_READY carries its client's previous
                # completion folded into the payload; record it before the
                # budget check, exactly as the fast path does.
                if payload is not None:
                    completions.append(payload)
                if submitted >= budget:
                    parked.append((now, tiebreak))
                    continue
                submitted += 1
                raw = self.generator.next_request()
                request = ProcedureRequest(
                    raw.procedure, raw.parameters, tiebreak, tiebreak % self._num_nodes
                )
                self._submit_pending(request, now, need_estimates)
                self._drain(now, gate_on_partitions)
            elif kind == TXN_COMPLETE:
                self._general_events -= 1
                client_id, was_committed, pending, _record = payload
                if admission is not None:
                    admission.release_if_admitted(pending)
                if self.tenancy is not None:
                    self.tenancy.quota.release_if_admitted(pending)
                completions.append((now, was_committed))
                if not pending.external:
                    heappush(events, (now + think, CLIENT_READY, client_id, None))
                if scheduler:
                    self._drain(now, gate_on_partitions)
            elif kind == EXTERNAL_SUBMIT:
                self._general_events -= 1
                request, tenant = payload
                self._submit_pending(
                    request, now, need_estimates, external=True, tenant=tenant
                )
                self._drain(now, gate_on_partitions)
            else:  # PARTITION_RELEASE of partition ``tiebreak``
                self._general_events -= 1
                self._armed.discard(tiebreak)
                # No waiters left (an earlier release at this instant took
                # them along): nothing changed since the last drain.
                if tiebreak in scheduler.parked_partitions():
                    self._drain(now, gate_on_partitions)
        self._submitted = submitted
        self._now = now

    def _submit_pending(
        self,
        request: ProcedureRequest,
        now: float,
        need_estimates: bool,
        external: bool = False,
        tenant: str | None = None,
    ):
        estimate = self.strategy.preview_estimate(request) if need_estimates else None
        base_partition = 0
        if estimate is not None and not estimate.degenerate:
            base_partition = estimate.base_partition() or 0
        tenancy = self.tenancy
        if tenancy is not None and tenant is not None:
            tenancy.record_arrival(tenant)
            own_cost_ms = 0.0
            if estimate is not None and not estimate.degenerate:
                own_cost_ms = self.scheduler.predicted_cost_for(
                    request.procedure, estimate, base_partition
                ).service_ms
            if tenancy.should_shed(
                tenant, own_cost_ms, self.scheduler, now, self._num_partitions
            ):
                # Shed at the door: the arrival is predicted to land outside
                # its tenant's SLO, so rejecting it now is cheaper for
                # everyone than queueing work that will miss anyway.
                tenancy.record_shed(tenant)
                self._counters["rejected"] += 1
                acc = self._tenant_account(tenant)
                acc["submitted"] += 1
                acc["rejected"] += 1
                if not external:
                    heappush(
                        self._events,
                        (now + self.cost_model.redirect_ms, CLIENT_READY,
                         request.client_id, None),
                    )
                return None
        pending = self.scheduler.submit(request, estimate,
                                        base_partition=base_partition, tenant=tenant)
        pending.submit_time_ms = now
        pending.external = external
        if tenant is not None:
            self._tenant_account(tenant)["submitted"] += 1
        return pending

    def _tenant_account(self, tenant: str) -> dict:
        acc = self._tenant_acc.get(tenant)
        if acc is None:
            acc = {
                "submitted": 0, "committed": 0, "user_aborted": 0,
                "restarts": 0, "rejected": 0,
                "latencies": LatencySketch() if self._streaming else [],
            }
            self._tenant_acc[tenant] = acc
        return acc

    def _drain(self, now: float, gate_on_partitions: bool) -> None:
        """Dispatch every queued transaction that may start at ``now``.

        Only the scheduler's ready set is swept, in the scheduler's order.
        A candidate whose predicted partitions are busy is parked on the one
        that frees last (``partition_free`` only moves forward, so its
        verdict cannot change sooner).  A release wakes the head of each
        wait list; its successor joins the same pass only if the head left
        the partition free.
        """
        scheduler = self.scheduler
        admission = self.admission
        events = self._events
        partition_free = self._partition_free
        counters = self._counters
        latencies = self._latencies
        breakdown_acc = self._breakdown_acc
        redirect_ms = self.cost_model.redirect_ms
        execute = self._execute
        tenancy = self.tenancy
        quota = tenancy.quota if tenancy is not None else None
        parked = scheduler.parked_partitions()
        for partition_id in [p for p in parked if partition_free[p] <= now]:
            scheduler.wake(partition_id, partition_free, now)
        blocked: list = []
        pending, woken_from = None, -1
        while True:
            if woken_from >= 0 and partition_free[woken_from] <= now:
                scheduler.wake(woken_from, partition_free, now, pending)
            if not scheduler.has_ready:
                break
            pending = scheduler.pop()
            woken_from = pending.parked_on
            if gate_on_partitions:
                wait_on = blocking_partition(
                    pending.predicted_partitions, partition_free, now
                )
                if wait_on >= 0:
                    scheduler.requeue(pending, wait_on)
                    continue
            if quota is not None and not quota.would_admit(pending):
                # Quota push-back: not an admission deferral (no wake-up
                # event needed either — a blocked tenant holds quota >= 1
                # slots, so a TXN_COMPLETE is outstanding and re-drains).
                quota.note_blocked(pending)
                blocked.append(pending)
                continue
            if admission is not None:
                decision = admission.decide(pending)
                if decision is AdmissionDecision.DEFER:
                    blocked.append(pending)
                    pending.deferrals += 1
                    continue
                if decision is AdmissionDecision.REJECT:
                    scheduler.note_rejected(pending)
                    counters["rejected"] += 1
                    if pending.tenant is not None:
                        self._tenant_account(pending.tenant)["rejected"] += 1
                    # The closed-loop client backs off one redirect
                    # round-trip, then issues a fresh request; a rejected
                    # external injection has no client to re-arm.
                    if not pending.external:
                        heappush(
                            events,
                            (now + redirect_ms, CLIENT_READY,
                             pending.request.client_id, None),
                        )
                    continue
            if quota is not None:
                quota.admit(pending)
            scheduler.note_dispatched(pending)
            scheduler.record_wait(pending.request.procedure, now - pending.submit_time_ms)
            self._txn_clock = now
            record = execute(pending.request)
            end = self._replay_timing(record, now, partition_free, breakdown_acc)
            latency = end - pending.submit_time_ms
            latencies.append(latency)
            committed = self._account_record(record, counters)
            if tenancy is not None:
                tenancy.note_dispatch(end)
                tenancy.slo.record(pending.tenant, latency)
            if pending.tenant is not None:
                acc = self._tenant_account(pending.tenant)
                acc["latencies"].append(latency)
                if committed:
                    acc["committed"] += 1
                else:
                    acc["user_aborted"] += 1
                acc["restarts"] += record.restarts
            self._complete_seq += 1
            self._general_events += 1
            heappush(
                events,
                (end, TXN_COMPLETE, self._complete_seq,
                 (pending.request.client_id, committed, pending, record)),
            )
        for pending in blocked:
            scheduler.requeue(pending)
        armed = self._armed
        for partition_id in parked:
            if partition_id not in armed:
                armed.add(partition_id)
                self._general_events += 1
                release_at = partition_free[partition_id]
                heappush(events, (release_at, PARTITION_RELEASE, partition_id, None))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def in_flight(self) -> list[InFlightTransaction]:
        """Unfinished transactions at the paused clock (executing + queued).

        Executing entries are ``TXN_COMPLETE`` events whose simulated end
        lies at or beyond ``now`` (ordered by end time); queued entries are
        the scheduler's backlog in dispatch order.  Fast-path (pure FCFS)
        driving folds completions into client events and dispatches
        instantaneously, so it never leaves executing entries behind —
        pausing mid-flight happens through ``run_for(sim_seconds=...)``,
        which always runs the general loop.
        """
        self.begin()
        now = self._now
        num_partitions = self._num_partitions
        executing: list[tuple[float, InFlightTransaction]] = []
        for when, kind, _, payload in self._events:
            if kind != TXN_COMPLETE:
                continue
            _, __, pending, record = payload
            executing.append((when, InFlightTransaction(
                state="executing",
                procedure=record.procedure,
                tenant=pending.tenant,
                txn_id=record.txn_id,
                attempt=record.attempt_count,
                partitions=record.final_plan.lock_set(num_partitions).partitions,
                submitted_at_ms=pending.submit_time_ms,
                predicted_remaining_ms=max(0.0, when - now),
            )))
        executing.sort(key=lambda entry: entry[0])
        out = [entry[1] for entry in executing]
        if self.scheduler is not None:
            for pending in self.scheduler.pending_transactions():
                out.append(InFlightTransaction(
                    state="queued",
                    procedure=pending.request.procedure,
                    tenant=pending.tenant,
                    txn_id=None,
                    attempt=0,
                    partitions=tuple(pending.predicted_partitions),
                    submitted_at_ms=pending.submit_time_ms,
                    predicted_remaining_ms=pending.predicted_cost_ms,
                ))
        return out

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def snapshot(self) -> SimulationResult:
        """Materialize the metrics accumulated so far (repeatable, on demand).

        The warm-up window is finalized over the completions recorded up to
        now; driving the core further and snapshotting again recomputes it.
        """
        self.begin()
        return self._build_result()

    def _build_result(self) -> SimulationResult:
        result = SimulationResult(
            strategy=self.strategy.name,
            benchmark=self.benchmark_name,
            num_partitions=self._num_partitions,
            metrics_mode=self.config.metrics_mode,
            **self._counters,
        )
        if self._streaming:
            result.latency_sketch = self._latencies.copy()
        else:
            result.latencies_ms = list(self._latencies)
        for procedure, acc in self._breakdown_acc.items():
            result.breakdowns[procedure] = ProcedureBreakdown(procedure, *acc)
        # Snapshots own their stats: a copy freezes the counters at this
        # point, so phase-over-phase comparisons of saved snapshots stay
        # valid while the session keeps running.
        scheduler_stats = dataclasses.replace(self.scheduler.stats)
        admission_stats = (
            dataclasses.replace(self.admission.stats) if self.admission is not None else None
        )
        # The wait summary is rebuilt fresh for every snapshot, so assigning
        # it never shares state between a frozen copy and the live stats.
        scheduler_stats.queue_wait_by_class = self.scheduler.wait_summary()
        result.scheduler_stats = scheduler_stats
        result.admission_stats = admission_stats
        self._finalize_window(result)
        for tenant in sorted(self._tenant_acc):
            acc = self._tenant_acc[tenant]
            breakdown = TenantBreakdown(
                tenant=tenant,
                submitted=acc["submitted"],
                committed=acc["committed"],
                user_aborted=acc["user_aborted"],
                restarts=acc["restarts"],
                rejected=acc["rejected"],
                duration_ms=result.simulated_duration_ms,
            )
            if self._streaming:
                breakdown.latency_sketch = acc["latencies"].copy()
            else:
                breakdown.latencies_ms = list(acc["latencies"])
            result.tenants[tenant] = breakdown
        # Maintenance (§4.5) and self-tuning activity, surfaced per snapshot.
        houdini = getattr(self.strategy, "houdini", None)
        if houdini is not None:
            result.maintenance = houdini.maintenance.stats_by_procedure()
        if self.selftune is not None:
            result.selftune = self.selftune.snapshot()
        if self.tenancy is not None:
            result.tenancy = self.tenancy.snapshot(self.scheduler)
        return result

    # ------------------------------------------------------------------
    def _replay_timing(
        self,
        record: TransactionRecord,
        submit_time: float,
        partition_free: list[float],
        breakdown_acc: dict[str, list],
    ) -> float:
        """Schedule every attempt of a transaction onto the partitions."""
        num_partitions = self._num_partitions
        cost_model = self.cost_model
        clock = submit_time
        procedure = record.request.procedure
        acc = breakdown_acc.get(procedure)
        if acc is None:
            acc = [0, 0.0, 0.0, 0.0, 0.0, 0.0]
            breakdown_acc[procedure] = acc
        pairs = record.attempt_pairs()
        last_index = len(pairs) - 1
        if last_index > 0:
            timings = cost_model.attempt_timings(pairs, num_partitions)
        else:
            plan, attempt = pairs[0]
            timings = (cost_model.attempt_timing(plan, attempt, num_partitions),)
        for attempt_index, (plan, attempt) in enumerate(pairs):
            timing = timings[attempt_index]
            # The release offsets are keyed by the lock set, in its order.
            release_offsets = timing.release_offsets
            ready = clock + plan.estimation_ms + timing.planning_ms
            start = ready
            for partition_id in release_offsets:
                free_at = partition_free[partition_id]
                if free_at > start:
                    start = free_at
            for partition_id, offset in release_offsets.items():
                partition_free[partition_id] = start + offset
            # Escalated partitions (OP3 safety valve) are acquired late: the
            # transaction stalls until they are free, on top of its own work.
            stall = 0.0
            escalated = attempt.escalated_partitions
            if escalated:
                for partition_id in escalated:
                    if partition_id not in release_offsets:
                        acquire_at = max(start, partition_free[partition_id])
                        stall = max(stall, acquire_at - start)
                        partition_free[partition_id] = start + timing.total_ms + stall
            end = start + timing.total_ms + stall
            clock = end
            if attempt_index < last_index:
                # The attempt was thrown away; the next one starts after a
                # redirect round-trip.
                clock += cost_model.redirect_ms
            acc[_TXNS] += 1
            acc[_EST] += timing.estimation_ms
            acc[_PLAN] += timing.planning_ms
            acc[_EXEC] += timing.execution_ms
            acc[_COORD] += timing.coordination_ms
            acc[_OTHER] += timing.setup_ms
        return clock

    # ------------------------------------------------------------------
    @staticmethod
    def _account_record(record: TransactionRecord, counters: dict) -> bool:
        """Fold one finished transaction into ``counters``; whether it
        committed (what the completion event carries)."""
        attempts = record.attempts
        final = attempts[-1]
        committed = final.outcome is AttemptOutcome.COMMITTED
        if committed:
            counters["committed"] += 1
        else:
            counters["user_aborted"] += 1
        counters["restarts"] += len(attempts) - 1
        for attempt in attempts:
            if attempt.escalated_partitions:
                counters["escalations"] += 1
        if record.undo_disabled:
            counters["undo_disabled"] += 1
        if record.early_prepared_partitions:
            counters["early_prepared"] += 1
        if len(final.touched_partitions.partitions) <= 1:
            counters["single_partition"] += 1
        else:
            counters["distributed"] += 1
        return committed

    def _finalize_window(self, result: SimulationResult) -> None:
        """The post-warm-up measurement window (paper: 60s warm-up).

        Exact mode keeps every completion in a :class:`CompletionLog`, which
        extends its counts by what arrived since the last snapshot; streaming
        mode keeps a bounded :class:`CompletionWindow` histogram, which
        reproduces the same window to within one bucket.
        """
        (
            result.simulated_duration_ms,
            result.window_duration_ms,
            result.window_committed,
        ) = self._completions.window(self.config.warmup_fraction)
