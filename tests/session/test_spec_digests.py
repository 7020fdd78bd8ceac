"""``ClusterSpec.to_dict()`` bytes, pinned by digests recorded at the parent.

``spec_digests.json`` holds the sha256 of ``json.dumps(spec.to_dict())`` (no
``sort_keys``: key order is part of the contract) for the default spec, the
four ``benchmarks/e2e`` specs at seeds 0 and 7, and three hand-built specs
that between them carry every nested config and every source kind.  The
digests were recorded on the commit *before* the dict forms became derived
from the field table (run this file as a script to re-record), so an equal
digest means the derived form emits the hand-written form's bytes.  They
were re-pinned once, when the worker-count field was deleted: the new
digests equal the parent's ``to_dict()`` with that one key popped (key order
kept), ``nested_configs`` built with the one execution backend left.  They
were re-pinned a second time when the sliding maintenance window, the
restart toggle, the accuracy-signal toggle and the phased source were
deleted: ``nested_configs`` is the parent's ``to_dict()`` with those three
keys popped (key order kept), and ``arrival_sources`` composes its sources
as tenants of one ``TenantSource``, recorded on the parent.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.houdini import HoudiniConfig
from repro.scheduling.admission import AdmissionLimits
from repro.scheduling.policies import ShortestPredictedFirstPolicy
from repro.selftune import SelfTuneConfig
from repro.session import ClusterSpec
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

DIGESTS = Path(__file__).with_name("spec_digests.json")
E2E_DIR = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e"
if str(E2E_DIR) not in sys.path:
    sys.path.append(str(E2E_DIR))  # appended: it has a ``tests`` child

from workloads import WORKLOADS  # noqa: E402


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
            per_partition_queues=True,
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


SPECS = {
    "default": ClusterSpec,
    "nested_configs": _nested_configs,
    "arrival_sources": _arrival_sources,
    "cohorts": _cohorts,
    **{
        f"{name}@{seed}": (lambda w=workload, s=seed: w.make_spec(s))
        for name, workload in WORKLOADS.items() for seed in (0, 7)
    },
}


def digest(spec: ClusterSpec) -> str:
    return hashlib.sha256(json.dumps(spec.to_dict()).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(SPECS))
def test_to_dict_bytes_match_the_parent_recording(name):
    recorded = json.loads(DIGESTS.read_text())
    assert set(recorded) == set(SPECS)
    assert digest(SPECS[name]()) == recorded[name]


@pytest.mark.parametrize("name", sorted(SPECS))
def test_dict_form_round_trips_through_json(name):
    spec = SPECS[name]()
    rebuilt = ClusterSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    # A policy instance is normalized to its registry name by ``to_dict``.
    assert rebuilt == replace(spec, policy=spec.to_dict()["policy"])
    assert digest(rebuilt) == digest(spec)


if __name__ == "__main__":  # re-record (only ever against a trusted tree)
    DIGESTS.write_text(json.dumps(
        {name: digest(build()) for name, build in sorted(SPECS.items())}, indent=2
    ) + "\n")
