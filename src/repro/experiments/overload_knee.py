"""Overload knee finder: binary-search the open-loop rate to the latency knee.

The paper evaluates throughput under a *closed* loop, where offered load can
never exceed service rate.  Real front-ends are open-loop: a population of
clients submits at its own pace, and past a critical arrival rate — the
*knee* — queues grow without bound and tail latency departs from the flat
region.  This experiment locates that knee for a benchmark by driving the
simulator with a :class:`~repro.workload.sources.ClientCohortSource` — one
cohort standing in for the whole client population, so a million users cost
O(1) workload state — and probing arrival rates in three phases:

1. **Baseline** — a probe well below the service rate (estimated from one
   closed-loop run) establishes the uncongested p95 latency.
2. **Doubling** — the rate doubles from half the service estimate until a
   probe goes unstable (p95 above ``knee_factor`` x baseline, or committed
   throughput falling below ``sustain_fraction`` of the offered rate).
3. **Bisection** — a fixed number of halvings between the last stable and
   first unstable rates pins the knee.

Every probe is a fresh session over the same trained artifacts (so probes
are independent and deterministic) running with ``metrics_mode="streaming"``
— the bounded-memory sketches of :mod:`repro.sim.sketch` — and is *abandoned*
rather than drained: draining an overloaded probe would execute the entire
backlog, which is precisely the work the knee is meant to avoid.  Peak RSS
is recorded so the scale-mode benchmark can assert bounded memory at
>= 1,000,000 simulated users.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..session import Cluster, ClusterSpec, train
from ..workload import ClientCohortSource, Cohort
from .common import ExperimentScale, format_table

#: A probe is unstable once its p95 exceeds this multiple of the baseline.
KNEE_FACTOR = 4.0
#: ... or once committed throughput falls below this fraction of the rate.
SUSTAIN_FRACTION = 0.8
#: Bisection iterations between the last stable and first unstable rates.
BISECTION_STEPS = 5
#: Safety cap on the doubling phase.
MAX_DOUBLINGS = 8

#: Simulated client population per scale preset (>= 1M beyond small).
USERS_BY_SCALE = {"small": 100_000}
DEFAULT_USERS = 1_000_000


@dataclass
class OverloadKneeResult:
    """The located knee plus every probe that contributed to it."""

    scale: ExperimentScale
    benchmark: str
    users: int
    #: Closed-loop service-rate estimate (txn/s) the search anchored on.
    service_rate: float = 0.0
    #: Offered rate (txn/s) and p95 (ms) of the uncongested baseline probe.
    base_rate: float = 0.0
    base_p95_ms: float = 0.0
    #: The knee: highest probed rate that stayed stable.
    knee_rate: float = 0.0
    p95_at_knee_ms: float = 0.0
    #: Every probe, in execution order.
    probes: list[dict] = field(default_factory=list)
    #: Peak resident set size (MiB) observed over the whole search.
    peak_rss_mib: float = 0.0

    def format(self) -> str:
        headers = ["offered txn/s", "committed txn/s", "p95 (ms)", "phase", "stable"]
        rows = [
            [
                round(p["rate"], 1),
                round(p["throughput"], 1),
                round(p["p95_ms"], 3),
                p["phase"],
                "yes" if p["stable"] else "no",
            ]
            for p in self.probes
        ]
        return (
            f"Overload knee for {self.benchmark} "
            f"({self.users:,} simulated users, one cohort)\n"
            f"closed-loop service estimate: {self.service_rate:.1f} txn/s, "
            f"baseline p95 {self.base_p95_ms:.3f} ms at {self.base_rate:.1f} txn/s\n"
            f"knee: {self.knee_rate:.1f} txn/s "
            f"(p95 {self.p95_at_knee_ms:.3f} ms, "
            f"{self.knee_rate / max(self.service_rate, 1e-9):.2f}x service estimate); "
            f"peak RSS {self.peak_rss_mib:.1f} MiB\n"
            + format_table(headers, rows)
        )


def _peak_rss_mib() -> float:
    """Peak RSS of this process in MiB (0.0 where resource is unavailable)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def default_users(scale: ExperimentScale) -> int:
    """Client-population size for a scale preset (>= 1M beyond small)."""
    return USERS_BY_SCALE.get(scale.name, DEFAULT_USERS)


def run_overload_knee(
    scale: ExperimentScale | None = None,
    benchmark: str = "tatp",
    *,
    users: int | None = None,
    probe_seconds: float = 2.0,
) -> OverloadKneeResult:
    """Locate the open-loop latency knee for ``benchmark``.

    Trains once, then probes arrival rates with fresh single-cohort
    streaming-metrics sessions as described in the module docstring.
    """
    scale = scale or ExperimentScale.from_env()
    if users is None:
        users = default_users(scale)
    result = OverloadKneeResult(scale=scale, benchmark=benchmark, users=users)

    spec = ClusterSpec(
        benchmark=benchmark,
        num_partitions=scale.accuracy_partitions,
        trace_transactions=scale.trace_transactions,
        seed=scale.seed,
        strategy="houdini",
    )
    artifacts = train(spec)

    def probe(rate: float, phase: str) -> dict:
        """One independent open-loop probe at ``rate`` txn/s (abandoned, not
        drained — an overloaded backlog must not be executed to completion)."""
        cohort = Cohort("clients", users, rate_per_user_per_sec=rate / users)
        session = Cluster.open(
            replace(
                spec,
                metrics_mode="streaming",
                workload=ClientCohortSource([cohort], seed=scale.seed, label_tenants=False),
            ),
            artifacts=artifacts,
        )
        snapshot = session.run_for(sim_seconds=probe_seconds)
        throughput = snapshot.committed / probe_seconds
        p95 = snapshot.latency_quantile(0.95)
        stable = True
        if result.base_p95_ms:
            stable = (
                p95 <= KNEE_FACTOR * result.base_p95_ms
                and throughput >= SUSTAIN_FRACTION * rate
            )
        entry = {
            "rate": rate,
            "throughput": throughput,
            "p95_ms": p95,
            "committed": snapshot.committed,
            "backlog": len(session.in_flight()),
            "phase": phase,
            "stable": stable,
        }
        result.probes.append(entry)
        return entry

    # Phase 0: closed-loop run -> service-rate estimate to anchor the search.
    with Cluster.open(spec, artifacts=artifacts) as session:
        closed = session.run_for(txns=scale.simulated_transactions)
    result.service_rate = max(1.0, closed.throughput_txn_per_sec)

    # Phase 1: uncongested baseline.
    result.base_rate = 0.25 * result.service_rate
    base = probe(result.base_rate, "baseline")
    result.base_p95_ms = max(base["p95_ms"], 1e-6)
    base["stable"] = True

    # Phase 2: double until unstable.
    lo, lo_p95 = result.base_rate, result.base_p95_ms
    rate = 0.5 * result.service_rate
    hi = None
    for _ in range(MAX_DOUBLINGS):
        entry = probe(rate, "doubling")
        if entry["stable"]:
            lo, lo_p95 = rate, entry["p95_ms"]
            rate *= 2.0
        else:
            hi = rate
            break
    if hi is None:  # never went unstable: report the last stable rate
        result.knee_rate, result.p95_at_knee_ms = lo, lo_p95
        result.peak_rss_mib = _peak_rss_mib()
        return result

    # Phase 3: fixed-iteration bisection between last stable and unstable.
    for _ in range(BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        entry = probe(mid, "bisection")
        if entry["stable"]:
            lo, lo_p95 = mid, entry["p95_ms"]
        else:
            hi = mid
    result.knee_rate, result.p95_at_knee_ms = lo, lo_p95
    result.peak_rss_mib = _peak_rss_mib()
    return result


def main() -> None:  # pragma: no cover - CLI convenience
    print(run_overload_knee().format())


if __name__ == "__main__":  # pragma: no cover
    main()
