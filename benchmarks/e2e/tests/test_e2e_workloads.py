"""Three-segment smoke of every workload: deterministic, conserving, honest set-up."""

import pytest

import run
import spans
from workloads import WORKLOADS

SEGMENTS = 3


def _smoke(workload, seed=3):
    session, timer = run.timed_setup(workload, seed)
    measured = run.measure(session, workload, SEGMENTS)
    return session, timer, measured


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_twice_gives_equal_simulated_results(name):
    workload = WORKLOADS[name]
    session, timer, first = _smoke(workload)
    _, _, second = _smoke(workload)
    assert first["result"].to_dict() == second["result"].to_dict()
    counts = run.account(session, workload, first)
    assert all(counts["checks"].values()), counts["checks"]
    assert counts["attempted"] > 0 and counts["failed"] == 0
    assert len(first["walls"]) == SEGMENTS + 1  # the closing drain is timed too
    assert len(first["kernels"]) == SEGMENTS + 2
    assert len(timer.walls) == len(run.SETUP_STAGES)
    assert first["ref_s"] > 0 and all(value > 0 for value in timer.ref_seconds())
    within = run.completions_within(first["result"], workload.latency_limit_ms)
    assert 0 <= within <= counts["completed"]
    assert run.completions_within(first["result"], float("inf")) == counts["completed"]


def test_staged_setup_is_what_cluster_open_trains():
    """Timing the stages separately must not change what gets built."""
    from repro.session import Cluster

    workload = WORKLOADS["tatp_closed"]
    _, _, staged = _smoke(workload)
    session = Cluster.open(workload.make_spec(3))
    workload.seed_requests(session, 3)
    for _ in range(SEGMENTS):
        session.run_for(**workload.segment_kwargs())
    assert session.close().to_dict() == staged["result"].to_dict()


def test_traced_run_matches_untraced_and_restores_classes(tmp_path):
    workload = WORKLOADS["tatp_tenants_overload"]
    targets = [pair for point in spans.SPAN_POINTS for pair in spans.resolve(point)]
    before = [vars(owner)[method] for owner, method in targets]
    seconds = SEGMENTS * run.protocol()["trace_segment_divisor"] / workload.segments_per_second
    outcome = run.run_traced(workload, 3, seconds, spans_dir=tmp_path)
    assert [vars(owner)[method] for owner, method in targets] == before
    assert outcome["info"]["segments"] == SEGMENTS
    assert all(outcome["checks"].values()), outcome["checks"]
    assert set(outcome["metrics"]) == set(run.declared("per_layer"))
    metrics = outcome["metrics"]
    assert metrics["tenancy.calls_per_txn"] > 0
    assert metrics["txn.calls_per_txn"] == pytest.approx(1.0)
    assert sum(metrics[f"{layer}.self_share"] for layer in spans.LAYERS) == pytest.approx(1.0)
    assert (tmp_path / f"{workload.name}.spans.json").stat().st_size > 0


def test_seconds_scale_segments_deterministically():
    for workload in WORKLOADS.values():
        assert workload.segments(10) == round(10 * workload.segments_per_second)
        assert workload.segments(0.001) == 1
