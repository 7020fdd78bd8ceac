"""Declarative workload sources: *what traffic arrives* at a cluster.

The paper's Houdini is trained from recorded traces and deployed against
live production traffic; this module decouples that traffic shape from the
cluster that runs it.  A :class:`WorkloadSource` declares how transaction
requests enter the system, and the session layer compiles it into the event
streams (``EXTERNAL_SUBMIT`` / ``CLIENT_READY``) that drive the steppable
simulator core.  Five shapes exist:

* :class:`ClosedLoopSource` — the paper's setup: N think-time clients per
  partition, each submitting its next request the moment the previous one
  completes.  Load adapts to the cluster's speed (arrival rate = completion
  rate).  This is the default when a spec declares no workload section, and
  it produces results byte-identical to the pre-source session path.
* :class:`OpenLoopSource` — an *arrival process*: requests arrive at wall
  times drawn from a deterministic Poisson / uniform / bursty process built
  on :class:`~repro.workload.rng.WorkloadRandom`, independent of how fast
  the cluster drains them.  This is how overload happens — queues grow
  without bound when the arrival rate exceeds the service rate — and it is
  the workload shape production traffic actually has.
* :class:`TraceReplaySource` — replays a recorded
  :class:`~repro.workload.trace.WorkloadTrace` with its original (or
  rescaled) timestamps: the record → train → replay loop of §3.1, closed.
* :class:`PhasedSource` — a time-phased mixture: each phase contributes its
  own arrival source for a fixed duration (workload shifts as data, not
  code).
* :class:`TenantSource` — a labeled composition of sources sharing one
  cluster; per-tenant metrics are broken out in
  :class:`~repro.sim.metrics.SimulationResult`.

Sources are declarative and serializable.  Each is a dataclass whose
fields declare their own range (:func:`repro.schema.spec`): ``validate()``
raises :class:`~repro.errors.WorkloadError` naming the field, and
``to_dict()`` / :meth:`WorkloadSource.from_dict` (which dispatches on the
``kind`` key over the subclasses) are derived from the same table, so they
round-trip through plain JSON-friendly dicts exactly like the rest of
:class:`~repro.session.ClusterSpec` and an unknown key is an error with a
did-you-mean, never ignored.  Nested sources (a phase, a tenant, a cohort)
may be given in dict form wherever an instance is accepted.  Only structure
is hand-written: exactly-one-of pairs, phase / tenant / cohort shape.
``compile(ctx)`` turns a source into a :class:`CompiledSource` — a
deterministic, resumable stream of :class:`Arrival` records — so the same
source object can open any number of sessions, each with an independent
cursor.
"""

from __future__ import annotations

import heapq
import operator
import zlib
from abc import ABC, abstractmethod
from bisect import bisect_right
from dataclasses import KW_ONLY, dataclass
from typing import TYPE_CHECKING, ClassVar, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .. import schema
from ..errors import WorkloadError
from ..schema import spec
from ..types import ProcedureRequest
from . import vectorized as _vectorized
from .rng import WorkloadRandom
from .trace import TransactionTraceRecord, WorkloadTrace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..benchmarks.base import BenchmarkInstance
    from .generator import WorkloadGenerator

#: Arrival processes OpenLoopSource understands.
ARRIVAL_PROCESSES = ("poisson", "uniform", "bursty")

#: Arrivals materialized per batch by chunk-fed open-loop streams.  Bounds
#: how far request generation runs ahead of what a session actually pulls
#: while still amortizing the per-batch vector-kernel overhead to nothing.
_ARRIVAL_CHUNK = 512

#: Gaps drawn per batch when the iterator-form ``arrival_gaps`` stream
#: internally routes through the vectorized kernel.
_GAP_BATCH = _vectorized.DEFAULT_CHUNK


class Arrival(NamedTuple):
    """One compiled arrival: when, what, and for which tenant."""

    at_ms: float
    request: ProcedureRequest
    tenant: str | None = None


class CompileContext(NamedTuple):
    """What a source needs to turn its declaration into concrete requests."""

    benchmark: "BenchmarkInstance"
    seed: int = 0

    def make_generator(self, seed: int) -> "WorkloadGenerator":
        """A fresh benchmark generator with its own deterministic stream.

        Each open-loop source draws requests from its own generator (seeded
        from the session seed plus the source's seed) so arrival streams are
        independent of the closed-loop clients and of each other.
        """
        instance = self.benchmark
        return instance.bundle.make_generator(
            instance.catalog, instance.config, WorkloadRandom(self.seed * 1_000_003 + seed + 7)
        )


# ----------------------------------------------------------------------
# Compiled streams
# ----------------------------------------------------------------------
def _one_at_a_time(arrivals: Iterator[Arrival]) -> Iterator[Sequence[Arrival]]:
    """Wrap a per-arrival iterator as singleton chunks (preserves laziness)."""
    for arrival in arrivals:
        yield (arrival,)


_AT_MS = operator.itemgetter(0)  # Arrival.at_ms, positionally (hot path)


class CompiledSource:
    """A resumable, deterministic arrival stream consumed in batches.

    The session pulls arrivals in two shapes — the next ``count`` arrivals
    (``run_for(txns=...)``) or every arrival up to a simulated deadline
    (``run_for(sim_seconds=...)``) — and the cursor survives pauses and
    mid-replay reconfiguration.

    Internally the stream is a sequence of chunks (lists of arrivals in
    timestamp order) consumed through a buffer + position cursor, so
    ``take``/``take_until`` slice whole batches instead of doing a
    per-element peek/pop dance.  Construct with either ``arrivals=`` (a
    per-arrival iterator, buffered one element at a time — exactly the old
    lookahead laziness) or ``chunks=`` (an iterator of pre-built arrival
    batches, each sorted by ``at_ms``, as the vectorized open-loop compiler
    produces).
    """

    def __init__(
        self,
        arrivals: Iterator[Arrival] | None = None,
        *,
        chunks: Iterator[Sequence[Arrival]] | None = None,
    ) -> None:
        if (arrivals is None) == (chunks is None):
            raise WorkloadError(
                "CompiledSource needs exactly one of arrivals= or chunks="
            )
        self._chunks = chunks if chunks is not None else _one_at_a_time(arrivals)
        self._buffer: Sequence[Arrival] = ()
        self._pos = 0
        self._exhausted = False
        self._emitted = 0

    # ------------------------------------------------------------------
    @property
    def emitted(self) -> int:
        """Arrivals handed out so far (the stream cursor)."""
        return self._emitted

    @property
    def exhausted(self) -> bool:
        """True once the stream has no further arrivals (open loops never are)."""
        return not self._refill()

    def _refill(self) -> bool:
        """Ensure the buffer has an unconsumed arrival; False at stream end."""
        while self._pos >= len(self._buffer):
            if self._exhausted:
                return False
            try:
                self._buffer = next(self._chunks)
            except StopIteration:
                self._exhausted = True
                self._buffer = ()
                self._pos = 0
                return False
            self._pos = 0
        return True

    def peek(self) -> Arrival | None:
        """The next arrival without consuming it (``None`` when exhausted)."""
        return self._buffer[self._pos] if self._refill() else None

    def pop(self) -> Arrival | None:
        if not self._refill():
            return None
        arrival = self._buffer[self._pos]
        self._pos += 1
        self._emitted += 1
        return arrival

    # ------------------------------------------------------------------
    def take(self, count: int) -> list[Arrival]:
        """The next ``count`` arrivals (fewer if the stream ends first)."""
        out: list[Arrival] = []
        while len(out) < count and self._refill():
            end = min(len(self._buffer), self._pos + count - len(out))
            out.extend(self._buffer[self._pos:end])
            self._emitted += end - self._pos
            self._pos = end
        return out

    def take_until(self, deadline_ms: float) -> list[Arrival]:
        """Every arrival with ``at_ms <= deadline_ms``, in timestamp order."""
        out: list[Arrival] = []
        while self._refill():
            buffer = self._buffer
            if buffer[self._pos].at_ms > deadline_ms:
                break
            if buffer[-1].at_ms <= deadline_ms:
                end = len(buffer)  # whole remaining chunk is in range
            else:
                end = bisect_right(buffer, deadline_ms, self._pos + 1, key=_AT_MS)
            out.extend(buffer[self._pos:end])
            self._emitted += end - self._pos
            self._pos = end
            if end < len(buffer):
                break
        return out


# ----------------------------------------------------------------------
# The source hierarchy
# ----------------------------------------------------------------------
def _source(value):
    """A nested source in either form (dict forms are coerced at construction)."""
    return WorkloadSource.from_dict(value) if isinstance(value, Mapping) else value


def _items(name: str, value) -> list:
    """The elements of a structural field (``phases``, ``cohorts``)."""
    if isinstance(value, (str, Mapping)) or not isinstance(value, Iterable):
        raise WorkloadError(f"{name} must be a list, got {type(value).__name__}")
    return list(value)


class WorkloadSource(ABC):
    """Declarative description of how traffic enters a cluster session.

    Every concrete source is a dataclass whose fields declare their own
    range (:mod:`repro.schema`); validation and the dict form are derived
    from that table, so a subclass writes only what a table cannot say.
    """

    #: Discriminator of the dict form (``to_dict`` / :meth:`from_dict`).
    kind: ClassVar[str] = ""

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Raise :class:`WorkloadError` on the first invalid parameter."""
        schema.check(self, WorkloadError)

    def to_dict(self) -> dict:
        """Plain JSON-friendly dict form, including the ``kind`` key."""
        return {"kind": self.kind, **schema.to_dict(self)}

    @abstractmethod
    def compile(self, ctx: CompileContext) -> CompiledSource:
        """A fresh arrival stream for one session (independent cursor)."""

    # ------------------------------------------------------------------
    @staticmethod
    def from_dict(data: Mapping) -> "WorkloadSource":
        """Rebuild any source from its :meth:`to_dict` form (strict: an
        unknown key raises :class:`WorkloadError` with the closest field)."""
        if not isinstance(data, Mapping):
            raise WorkloadError(
                f"workload source must be a mapping, got {type(data).__name__}"
            )
        kinds = {cls.kind: cls for cls in WorkloadSource.__subclasses__()}
        kind = data.get("kind")
        if kind not in kinds:
            raise WorkloadError(
                f"unknown workload source kind {kind!r}; available: "
                f"{', '.join(sorted(kinds))}"
            )
        return kinds[kind]._from_fields(
            {key: value for key, value in data.items() if key != "kind"}
        )

    @classmethod
    def _from_fields(cls, data: dict) -> "WorkloadSource":
        return schema.from_dict(cls, data, WorkloadError, f"{cls.kind} source")

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self.to_dict() == other.to_dict()


@dataclass(eq=False)
class ClosedLoopSource(WorkloadSource):
    """The paper's closed loop: think-time clients saturating the node.

    ``clients_per_partition`` and ``think_time_ms`` mirror the legacy
    simulator knobs; a spec with no workload section behaves exactly as if
    it declared ``ClosedLoopSource()`` with the spec's own values.
    """

    kind = "closed-loop"

    clients_per_partition: int = spec(4, kind="int", ge=1)
    think_time_ms: float = spec(0.0, kind="float", ge=0)

    def compile(self, ctx: CompileContext) -> CompiledSource:
        # The closed loop emits no arrivals: the simulator's budget-parked
        # clients drive submission (the session layer special-cases this
        # source and never consumes the empty stream).
        return CompiledSource(iter(()))


@dataclass(eq=False)
class OpenLoopSource(WorkloadSource):
    """Open-loop arrivals: requests arrive on a clock, not on completions.

    ``rate_per_sec`` fixes the long-run arrival rate; ``arrival`` picks the
    process shape:

    * ``"poisson"`` — exponential inter-arrival gaps (memoryless, the
      standard open-loop model), deterministic under ``seed``;
    * ``"uniform"`` — a metronome: constant gaps of ``1000/rate`` ms;
    * ``"bursty"`` — groups of ``burst_size`` arrivals packed at 4x the
      rate followed by an idle gap, preserving the long-run rate (the
      shape that stresses admission control and queue policies).

    Requests are drawn from a dedicated benchmark generator (seeded from
    the session seed plus ``seed``), so several open-loop sources — e.g.
    tenants — produce independent deterministic mixes.  ``limit`` bounds
    the stream; ``None`` means unbounded (the session pulls what it needs).
    """

    kind = "open-loop"

    rate_per_sec: float = spec(kind="float", gt=0)
    arrival: str = spec("poisson", choices=ARRIVAL_PROCESSES, noun="arrival process")
    _: KW_ONLY
    seed: int = spec(0, kind="int")
    burst_size: int = spec(8, kind="int", ge=1)
    limit: int | None = spec(None, kind="int", ge=1, optional=True)

    def compile(self, ctx: CompileContext, *, _tenant: str | None = None) -> CompiledSource:
        generator = ctx.make_generator(self.seed)
        gap_seed = ctx.seed * 31 + self.seed
        # Timestamps arrive in pre-built batches; each batch pairs time i
        # with the generator's request i (the two streams are independent).
        time_chunks = _vectorized.arrival_time_chunks(
            self.arrival, self.rate_per_sec,
            seed=gap_seed, burst_size=self.burst_size,
            chunk_size=_ARRIVAL_CHUNK, limit=self.limit,
        )

        def chunk_stream() -> Iterator[list[Arrival]]:
            next_request = generator.next_request
            for times in time_chunks:
                chunk = []
                append = chunk.append
                for at in times:
                    raw = next_request()
                    append(Arrival(
                        at, ProcedureRequest(raw.procedure, raw.parameters), _tenant
                    ))
                yield chunk

        return CompiledSource(chunks=chunk_stream())


@dataclass(eq=False)
class TraceReplaySource(WorkloadSource):
    """Replay a recorded :class:`WorkloadTrace` as live traffic.

    Records with embedded submission timestamps (``at_ms``, stamped by
    :class:`~repro.workload.recorder.TraceRecorder` when recording against
    an arrival process) replay at those times; records without one fall
    back to a metronome of ``default_gap_ms``.  ``speedup`` rescales time
    (2.0 replays twice as fast — the what-if-load-doubles knob).

    Exactly one of ``trace`` (in-memory, serialized inline as ``records``)
    or ``path`` (a JSON-lines file, loaded lazily at compile time) must be
    given.  Replay is deterministic: the same trace yields the same arrival
    stream in every session.  A trace recorded against another benchmark is
    refused at compile time, before any arrival is handed out.
    """

    kind = "trace-replay"

    trace: WorkloadTrace | None = spec(None, nested=WorkloadTrace, optional=True)
    _: KW_ONLY
    speedup: float = spec(1.0, kind="float", gt=0)
    default_gap_ms: float = spec(1.0, kind="float", ge=0)
    limit: int | None = spec(None, kind="int", ge=1, optional=True)
    path: str | None = spec(None, kind="str", optional=True, omit_none=True)

    def validate(self) -> None:
        super().validate()
        if (self.trace is None) == (self.path is None):
            raise WorkloadError(
                "TraceReplaySource needs exactly one of trace= (in-memory) "
                "or path= (JSON-lines file)"
            )

    def to_dict(self) -> dict:
        out = super().to_dict()
        if out.pop("trace") is not None:
            out["records"] = [record.to_json() for record in self.trace]
        return out

    @classmethod
    def _from_fields(cls, data: dict) -> "TraceReplaySource":
        if "records" in data:
            data["trace"] = WorkloadTrace(
                [TransactionTraceRecord.from_json(entry) for entry in data.pop("records")]
            )
        return super()._from_fields(data)

    def _load(self) -> WorkloadTrace:
        if self.trace is not None:
            return self.trace
        try:
            return WorkloadTrace.load(self.path)
        except WorkloadError:
            raise
        except OSError as error:
            raise WorkloadError(
                f"cannot read workload trace {self.path!r}: {error}"
            ) from error

    def compile(self, ctx: CompileContext) -> CompiledSource:
        trace = self._load()
        speedup = self.speedup
        gap = self.default_gap_ms
        limit = self.limit
        # Checked in one pass before any arrival exists: a foreign trace must
        # fail here, not inside the event loop after arrivals were consumed.
        # (A context compiled without a catalog has nothing to check against.)
        catalog = ctx.benchmark.catalog
        if catalog is not None:
            for record in trace:
                if not catalog.has_procedure(record.procedure):
                    raise WorkloadError(
                        f"trace record {record.txn_id} calls {record.procedure!r}, "
                        f"which the {ctx.benchmark.name!r} benchmark does not define "
                        "(was the trace recorded against another benchmark?)"
                    )

        def stream() -> Iterator[Arrival]:
            clock = 0.0
            for index, record in enumerate(trace):
                if limit is not None and index >= limit:
                    return
                at = record.at_ms if record.at_ms is not None else index * gap
                # Timestamps never run backwards, even in a hand-edited trace.
                clock = max(clock, at / speedup)
                yield Arrival(
                    clock,
                    ProcedureRequest(record.procedure, tuple(record.parameters)),
                )

        return CompiledSource(stream())


def _arrival_source(owner: str, source) -> None:
    """Phases and tenants must be arrival sources (structure, not a range)."""
    if not isinstance(source, WorkloadSource):
        raise WorkloadError(
            f"{owner} source must be a WorkloadSource, got {type(source).__name__}"
        )
    if isinstance(source, ClosedLoopSource):
        raise WorkloadError(
            f"{owner}: closed-loop sources have no arrival clock; use "
            "OpenLoopSource or TraceReplaySource streams"
        )
    source.validate()


@dataclass(eq=False)
class PhasedSource(WorkloadSource):
    """Time-phased mixture: each phase contributes one arrival source.

    ``phases`` is a sequence of ``(duration_ms, source)`` pairs; phase
    *i+1* starts when phase *i*'s duration elapses, and each phase's source
    emits only the arrivals that fall inside its window.  The final phase
    may use ``None`` as its duration to run unbounded.  Phases must be
    arrival sources (closed loops have no arrival clock to phase).
    """

    kind = "phased"

    phases: list

    def __post_init__(self) -> None:
        self.phases = [
            (entry.get("duration_ms"), _source(entry.get("source")))
            if isinstance(entry, Mapping) and set(entry) <= {"duration_ms", "source"}
            else entry
            for entry in _items("phases", self.phases)
        ]
        self.validate()

    def validate(self) -> None:
        if not self.phases:
            raise WorkloadError("PhasedSource needs at least one phase")
        last = len(self.phases) - 1
        for index, entry in enumerate(self.phases):
            if not isinstance(entry, (tuple, list)) or len(entry) != 2:
                raise WorkloadError(
                    f"phase {index} must be a (duration_ms, source) pair (or a "
                    f"dict with exactly those keys), got {entry!r}"
                )
            duration, source = entry
            _arrival_source(f"phase {index}", source)
            if duration is None:
                if index != last:
                    raise WorkloadError(
                        f"phase {index}: only the final phase may be unbounded "
                        "(duration None)"
                    )
            elif not isinstance(duration, (int, float)) or duration <= 0:
                raise WorkloadError(
                    f"phase {index} duration_ms must be positive (or None for "
                    f"the final phase), got {duration!r}"
                )

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "phases": [
                {"duration_ms": duration, "source": source.to_dict()}
                for duration, source in self.phases
            ],
        }

    def compile(self, ctx: CompileContext) -> CompiledSource:
        def stream() -> Iterator[Arrival]:
            offset = 0.0
            for duration, source in self.phases:
                compiled = source.compile(ctx)
                while True:
                    arrival = compiled.peek()
                    if arrival is None:
                        break
                    if duration is not None and arrival.at_ms >= duration:
                        break
                    compiled.pop()
                    yield arrival._replace(at_ms=offset + arrival.at_ms)
                if duration is None:
                    return
                offset += duration

        return CompiledSource(stream())


@dataclass(eq=False)
class TenantSource(WorkloadSource):
    """Labeled composition: several tenants share one cluster.

    ``tenants`` maps a tenant name to its arrival source.  The compiled
    stream is a timestamp-ordered merge of the per-tenant streams, each
    arrival labeled with its tenant (ties break on declaration order, which
    keeps merges deterministic).  Per-tenant throughput/latency appear in
    :attr:`~repro.sim.metrics.SimulationResult.tenants` and through
    ``ClusterSession.snapshot_metrics(tenant=...)``.
    """

    kind = "tenants"

    tenants: Mapping[str, WorkloadSource]

    def __post_init__(self) -> None:
        if not isinstance(self.tenants, Mapping):
            raise WorkloadError(
                f"tenants must map a name to a source, got {type(self.tenants).__name__}"
            )
        self.tenants = {name: _source(source) for name, source in self.tenants.items()}
        self.validate()

    def validate(self) -> None:
        if not self.tenants:
            raise WorkloadError("TenantSource needs at least one tenant")
        for name, source in self.tenants.items():
            if not isinstance(name, str) or not name:
                raise WorkloadError(f"tenant names must be non-empty strings, got {name!r}")
            _arrival_source(f"tenant {name!r}", source)

    def compile(self, ctx: CompileContext) -> CompiledSource:
        # Each tenant compiles under a seed derived from its name, so two
        # tenants declared with identical sources still produce independent
        # (but deterministic) streams instead of byte-identical twins.
        compiled = [
            (order, name, source.compile(ctx._replace(
                seed=ctx.seed + (zlib.crc32(name.encode("utf-8")) & 0xFFFF)
            )))
            for order, (name, source) in enumerate(self.tenants.items())
        ]
        return CompiledSource(_merge_labeled(compiled))


def _merge_labeled(
    compiled: list[tuple[int, str | None, CompiledSource]]
) -> Iterator[Arrival]:
    """Timestamp-ordered merge of labeled streams (ties break on order).

    Shared by :class:`TenantSource` and :class:`ClientCohortSource`.  A
    ``None`` label leaves arrivals unlabeled; otherwise the label fills any
    arrival whose own tenant is unset (inner labels — a nested
    TenantSource — win over the outer name).
    """
    heap: list[tuple[float, int, int]] = []
    streams = {}
    for order, name, sub in compiled:
        streams[order] = (name, sub)
        arrival = sub.peek()
        if arrival is not None:
            heap.append((arrival.at_ms, order, 0))
    heapq.heapify(heap)
    sequence = 0
    while heap:
        _, order, _ = heapq.heappop(heap)
        name, sub = streams[order]
        arrival = sub.pop()
        if name is not None and arrival.tenant is None:
            arrival = arrival._replace(tenant=name)
        yield arrival
        nxt = sub.peek()
        if nxt is not None:
            sequence += 1
            heapq.heappush(heap, (nxt.at_ms, order, sequence))


@dataclass
class Cohort:
    """One homogeneous slice of a simulated client population.

    A cohort declares ``users`` identical clients and how each behaves —
    either **open-loop** (``rate_per_user_per_sec``: every user submits on
    its own clock regardless of responses) or **closed-loop**
    (``think_time_ms``: every user waits that long between completion and
    next submission).  Exactly one of the two must be given.

    Cohorts exist so a million-user population costs O(#cohorts) state
    instead of a million live client objects: by Poisson superposition, N
    independent users each arriving at rate *r* are statistically one
    Poisson process at rate ``N*r``, so the whole cohort compiles to a
    single aggregated arrival stream.  Closed-loop cohorts are approximated
    the same way at rate ``users * 1000 / think_time_ms`` — the think-time-
    dominated regime, accurate while response time is small relative to
    think time (i.e. below saturation; past the knee a real closed loop
    would self-throttle where this approximation keeps pushing, which is
    exactly the overload behavior the knee-finder wants to measure).
    """

    name: str = spec(kind="str")
    users: int = spec(kind="int", ge=1)
    _: KW_ONLY
    arrival: str = spec("poisson", choices=ARRIVAL_PROCESSES, noun="arrival process")
    burst_size: int = spec(8, kind="int", ge=1)
    think_time_ms: float | None = spec(None, kind="float", gt=0, optional=True, omit_none=True)
    rate_per_user_per_sec: float | None = spec(
        None, kind="float", gt=0, optional=True, omit_none=True
    )

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        schema.check(self, WorkloadError, f"cohort {self.name!r}: ")
        if (self.think_time_ms is None) == (self.rate_per_user_per_sec is None):
            raise WorkloadError(
                f"cohort {self.name!r} needs exactly one of think_time_ms= "
                "(closed-loop users) or rate_per_user_per_sec= (open-loop users)"
            )

    @property
    def aggregate_rate_per_sec(self) -> float:
        """The cohort's one-stream arrival rate (superposition of its users)."""
        if self.rate_per_user_per_sec is not None:
            return self.users * self.rate_per_user_per_sec
        return self.users * 1000.0 / self.think_time_ms

    to_dict = schema.to_dict

    @classmethod
    def from_dict(cls, data: Mapping) -> "Cohort":
        return schema.from_dict(cls, data, WorkloadError, "cohort")


@dataclass(eq=False)
class ClientCohortSource(WorkloadSource):
    """A client population expressed as weighted cohorts.

    ``cohorts`` partitions the population into homogeneous groups (e.g.
    900k casual browsers at 0.2 txn/s each + 100k power users at 2 txn/s).
    Each cohort compiles to ONE aggregated arrival stream (see
    :class:`Cohort` for the superposition argument), so total state is
    O(#cohorts) no matter how many users are declared — the structural
    trick that makes a ≥1M-user overload study tractable on one host.

    With ``label_tenants`` (the default), arrivals are tagged with their
    cohort name, so per-cohort throughput and latency fall out of the
    existing per-tenant accounting for free; disable it to skip the
    per-arrival labeling and merge bookkeeping when only aggregate metrics
    matter (a single unlabeled cohort compiles straight to its stream).
    """

    kind = "cohorts"

    cohorts: list
    _: KW_ONLY
    seed: int = spec(0, kind="int")
    label_tenants: bool = spec(True, kind="bool")

    def __post_init__(self) -> None:
        self.cohorts = [
            Cohort.from_dict(cohort) if isinstance(cohort, Mapping) else cohort
            for cohort in _items("cohorts", self.cohorts)
        ]
        self.validate()

    def validate(self) -> None:
        super().validate()
        if not self.cohorts:
            raise WorkloadError("ClientCohortSource needs at least one cohort")
        seen: set[str] = set()
        for cohort in self.cohorts:
            if not isinstance(cohort, Cohort):
                raise WorkloadError(
                    f"cohorts must be Cohort instances, got {type(cohort).__name__}"
                )
            cohort.validate()
            if cohort.name in seen:
                raise WorkloadError(f"duplicate cohort name {cohort.name!r}")
            seen.add(cohort.name)

    def total_users(self) -> int:
        """The declared population size across all cohorts."""
        return sum(cohort.users for cohort in self.cohorts)

    def compile(self, ctx: CompileContext) -> CompiledSource:
        compiled = []
        for order, cohort in enumerate(self.cohorts):
            # Per-cohort seed derived from the name, mirroring TenantSource,
            # so identical cohort declarations still get independent streams.
            sub_ctx = ctx._replace(
                seed=ctx.seed + (zlib.crc32(cohort.name.encode("utf-8")) & 0xFFFF)
            )
            label = cohort.name if self.label_tenants else None
            aggregated = OpenLoopSource(
                cohort.aggregate_rate_per_sec,
                cohort.arrival,
                seed=self.seed + order,
                burst_size=cohort.burst_size,
            )
            # Labels are applied at Arrival construction (no per-arrival
            # _replace in the merge) — the merge only orders timestamps.
            compiled.append((order, None, aggregated.compile(sub_ctx, _tenant=label)))
        if len(compiled) == 1:
            return compiled[0][2]
        return CompiledSource(_merge_labeled(compiled))


# ----------------------------------------------------------------------
# Deterministic arrival-gap processes (shared with the trace recorder)
# ----------------------------------------------------------------------
def arrival_gaps(
    process: str,
    rate_per_sec: float,
    *,
    seed: int = 0,
    burst_size: int = 8,
) -> Iterator[float]:
    """Infinite inter-arrival gaps (ms) for one arrival process.

    All three processes preserve the long-run rate ``rate_per_sec`` and are
    fully determined by ``seed`` — the property every replay/determinism
    contract in this package leans on.

    Poisson gaps are drawn in batches through the vectorized kernel (the
    canonical stream; see :mod:`repro.workload.vectorized`), so iterator
    consumers and chunked consumers observe byte-identical gaps.
    """
    if rate_per_sec <= 0:
        raise WorkloadError(f"rate_per_sec must be positive, got {rate_per_sec!r}")
    mean_ms = 1000.0 / rate_per_sec
    if process == "uniform":
        def uniform() -> Iterator[float]:
            while True:
                yield mean_ms
        return uniform()
    if process == "poisson":
        core = WorkloadRandom(seed).core
        def poisson() -> Iterator[float]:
            while True:
                yield from _vectorized.exponential_gap_batch(
                    core, mean_ms, _GAP_BATCH
                ).tolist()
        return poisson()
    if process == "bursty":
        # burst_size arrivals packed at 4x the rate, then an idle gap that
        # restores the long-run rate: one cycle spans burst_size * mean_ms.
        intra = mean_ms / 4.0
        pause = burst_size * mean_ms - (burst_size - 1) * intra
        def bursty() -> Iterator[float]:
            first = True
            while True:
                yield pause if not first else intra
                first = False
                for _ in range(burst_size - 1):
                    yield intra
        return bursty()
    raise WorkloadError(
        f"unknown arrival process {process!r}; available: {', '.join(ARRIVAL_PROCESSES)}"
    )


def arrival_times(
    process: str,
    rate_per_sec: float,
    count: int,
    *,
    seed: int = 0,
    burst_size: int = 8,
) -> list[float]:
    """The first ``count`` absolute arrival times (ms) of a process: the
    vectorized kernel in one shot (byte-identical to accumulating
    :func:`arrival_gaps`)."""
    return _vectorized.vectorized_arrival_times(
        process, rate_per_sec, count, seed=seed, burst_size=burst_size
    )


__all__ = [
    "ARRIVAL_PROCESSES",
    "Arrival",
    "CompileContext",
    "CompiledSource",
    "WorkloadSource",
    "ClosedLoopSource",
    "OpenLoopSource",
    "TraceReplaySource",
    "PhasedSource",
    "TenantSource",
    "Cohort",
    "ClientCohortSource",
    "arrival_gaps",
    "arrival_times",
]
