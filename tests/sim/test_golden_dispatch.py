"""Golden dispatch oracle: the partition-gated dispatcher's results, pinned.

``golden_dispatch.json`` was recorded from the commit *before* the
partition-indexed ready set replaced ``_drain``'s pop-all/requeue scan.
Dispatch order is the contract: how the next dispatchable transaction is
found may change, which transaction it is may not.  Every cell digests the
full ``SimulationResult.to_dict()`` with only the churn counters removed —
they count examinations, not outcomes.  The ungated admission cells have no
release events, hence no examination the scan and the index disagree on:
they are digested whole.

Re-record (only in a change that means to alter dispatch order)::

    PYTHONPATH=src:. python tests/sim/test_golden_dispatch.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.scheduling.admission import AdmissionLimits
from repro.session import Cluster, ClusterSpec
from repro.tenancy import TenancyConfig, TenantPolicy
from repro.workload import OpenLoopSource, TenantSource
from tests.conftest import trained

GOLDEN = Path(__file__).with_name("golden_dispatch.json")
PARTITIONS = 4
SEEDS = (11, 23)
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
CONFIGS: dict[str, tuple[dict, bool, bool]] = {
    "fcfs+tenancy": (dict(tenancy=_tenancy()), True, False),
    "fcfs+tenancy+quota": (dict(tenancy=_tenancy(
        tenants={"gold": TenantPolicy(weight=3.0, quota=3),
                 "free": TenantPolicy(weight=1.0, quota=2)},
        shared_quota=1,
    )), True, False),
    "tenancy+per-partition-queues": (
        dict(tenancy=_tenancy(per_partition_queues=True)), True, False),
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


def _cells() -> list[tuple[str, str, str, int]]:
    return [
        (benchmark, config, loop, seed)
        for benchmark in CAPACITY
        for config in CONFIGS
        for loop in ("closed", "open")
        for seed in SEEDS
    ]


def _cell_id(cell) -> str:
    return "-".join(str(part) for part in cell)


def strip_churn(result: dict) -> dict:
    """Drop the counters that count examinations rather than outcomes."""
    result["scheduler_stats"].pop("requeued")
    result["scheduler_stats"].pop("reordered")
    if result.get("admission_stats"):
        result["admission_stats"].pop("deferred")
    if result.get("tenancy"):
        result["tenancy"]["quota"].pop("blocked")
    return result


def _summarize(result, whole: bool) -> dict:
    data = json.loads(json.dumps(result.to_dict()))
    if not whole:
        strip_churn(data)
    payload = json.dumps(data, sort_keys=True).encode("utf-8")
    return {
        "digest": hashlib.sha256(payload).hexdigest(),
        # Readable landmarks, so a mismatch says roughly what moved.
        "committed": result.committed,
        "rejected": result.rejected,
        "restarts": result.restarts,
        "simulated_duration_ms": result.simulated_duration_ms,
    }


def run_cell(benchmark: str, config: str, loop: str, seed: int) -> dict:
    fields, labeled, whole = CONFIGS[config]
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
        benchmark=benchmark, num_partitions=PARTITIONS, trace_transactions=400,
        seed=seed, learning=False, workload=workload, **fields,
    )
    session = Cluster.open(spec, artifacts=trained(benchmark, PARTITIONS, 400, seed))
    for _ in range(2):
        if loop == "open":
            session.run_for(sim_seconds=0.2)
        else:
            session.run_for(txns=150)
    return _summarize(session.close(), whole)


def run_mispredicted_tpcc() -> dict:
    """Models from a 60-transaction trace: NewOrders restart onto partitions
    the estimate the gate used never named."""
    spec = ClusterSpec(
        benchmark="tpcc", num_partitions=PARTITIONS, trace_transactions=60,
        seed=5, learning=False, policy="shortest-predicted",
        tenancy=_tenancy(),
    )
    session = Cluster.open(spec)
    session.run_for(txns=300)
    return _summarize(session.close(), False)


def record() -> dict:
    golden = {_cell_id(cell): run_cell(*cell) for cell in _cells()}
    golden["tpcc-mispredicted"] = run_mispredicted_tpcc()
    return golden


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("cell", _cells(), ids=_cell_id)
def test_cell_matches_parent(cell, golden):
    assert run_cell(*cell) == golden[_cell_id(cell)]


def test_mispredicted_tpcc_matches_parent(golden):
    expected = golden["tpcc-mispredicted"]
    assert expected["restarts"] > 0, "the case must actually mispredict"
    assert run_mispredicted_tpcc() == expected


def test_golden_covers_exactly_the_matrix(golden):
    assert set(golden) == {_cell_id(cell) for cell in _cells()} | {"tpcc-mispredicted"}


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"recorded {GOLDEN}")
