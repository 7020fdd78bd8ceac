"""Workload subsystem: how traffic is generated, recorded, and replayed.

The paper's lifecycle (§3.1) is a loop: sample a workload trace from the
running system, train the Markov models and parameter mappings off-line,
deploy them against live traffic, and keep learning on-line.  This package
holds every piece of that loop that is about *traffic* rather than about
models:

* :class:`WorkloadRandom` — a seeded random source with the OLTP benchmark
  distributions (NURand, weighted mixes); every stream in this
  package is deterministic under its seed.
* :class:`WorkloadGenerator` — per-benchmark request factories (transaction
  mix + parameter distributions).
* :class:`TraceRecorder` / :class:`WorkloadTrace` — record requests by
  really executing them (loops, conditionals and user aborts appear exactly
  as in production) and serialize the result as JSON lines.  Records may
  carry submission timestamps (``at_ms``) so a trace captures *when* work
  arrived, not just what it was.
* :class:`WorkloadSource` and its hierarchy (:mod:`repro.workload.sources`)
  — the declarative answer to "what traffic does a cluster session serve?":

  - :class:`ClosedLoopSource` — the paper's benchmark harness: think-time
    clients that submit a new request per completion, so offered load
    always matches cluster speed (the default; byte-identical to the
    pre-source session path);
  - :class:`OpenLoopSource` — production-shaped traffic: Poisson / uniform
    / bursty arrival processes whose rate is independent of service rate —
    the regime where queues grow and admission control matters;
  - :class:`TraceReplaySource` — replay a recorded trace at original or
    rescaled timestamps, closing the record → train → replay loop;
  - :class:`TenantSource` — labeled multi-tenant streams sharing one
    cluster, with per-tenant metric breakdowns;
  - :class:`ClientCohortSource` — a population of :class:`Cohort` groups
    (closed- or open-loop users) aggregated by Poisson superposition, so a
    million logical users cost O(#cohorts) state — the scale mode's
    workload shape.

Open-loop arrival timestamps are generated in batches
(:mod:`repro.workload.vectorized`) — the same seed always yields the same
arrivals, whatever the batch size.  That module loads when an open-loop
source compiles (``OpenLoopSource.compile``, run at ``Cluster.open``) or
:func:`arrival_times` is called; numpy loads only for a Poisson process,
whose gaps take numpy's ``log``.  Importing this package and serving
closed-loop, replayed, uniform or bursty traffic loads no numpy, and no
arrival source loads ``numpy.random``.

Sources validate strictly, round-trip through ``to_dict`` /
``from_dict`` like the rest of :class:`~repro.session.ClusterSpec`, and
compile into deterministic arrival streams that the session layer feeds to
the simulator as ``EXTERNAL_SUBMIT`` / ``CLIENT_READY`` events.
"""

from .generator import WorkloadGenerator
from .recorder import TraceRecorder
from .rng import WorkloadRandom
from .sources import (
    ARRIVAL_PROCESSES,
    Arrival,
    ClientCohortSource,
    ClosedLoopSource,
    Cohort,
    CompileContext,
    CompiledSource,
    OpenLoopSource,
    TenantSource,
    TraceReplaySource,
    WorkloadSource,
    arrival_times,
)
from .trace import QueryTraceRecord, TransactionTraceRecord, WorkloadTrace

__all__ = [
    "WorkloadRandom",
    "WorkloadGenerator",
    "TraceRecorder",
    "WorkloadTrace",
    "TransactionTraceRecord",
    "QueryTraceRecord",
    "WorkloadSource",
    "ClosedLoopSource",
    "OpenLoopSource",
    "TraceReplaySource",
    "TenantSource",
    "Cohort",
    "ClientCohortSource",
    "Arrival",
    "CompileContext",
    "CompiledSource",
    "ARRIVAL_PROCESSES",
    "arrival_times",
]
