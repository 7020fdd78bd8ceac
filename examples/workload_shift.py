"""Autonomous recovery from a workload shift (self-tuning, §4.5 closed loop).

The models are trained on a workload where NewOrder transactions order few
items; the live workload then shifts to many-item orders.  **No operator
intervenes.**  The self-tuning subsystem (``repro.selftune``) watches the
live transition stream, notices that the observed paths have diverged from
the model's expectations, retrains the NewOrder model in the background from
the recorded tail, and hot-swaps it into the running session — prediction
accuracy degrades after the shift and recovers on its own.

The whole loop is deterministic: the scenario runs twice with the same seed
and asserts the two final metric snapshots are byte-identical, swaps and
all.

Run with::

    python examples/workload_shift.py

Set ``REPRO_SHIFT_QUICK=1`` for the reduced-scale CI variant.
"""

import os

from repro.benchmarks.tpcc import TpccGenerator
from repro.markov import build_models_from_trace
from repro.selftune import SelfTuneConfig
from repro.session import Cluster, ClusterSpec, record_trace, train
from repro.workload import WorkloadRandom

QUICK = os.environ.get("REPRO_SHIFT_QUICK", "") not in ("", "0")

TRAIN_TRACE = 600 if QUICK else 1200
SMALL_TRACE = 500 if QUICK else 800
PHASE1_TXNS = 200 if QUICK else 300
PHASE2_TXNS = 500 if QUICK else 700

SELFTUNE = SelfTuneConfig(
    check_interval_txns=25,
    window_transitions=300,
    divergence_threshold=0.3,
    min_observations=20,
    retrain_tail_txns=128,
    retrain_min_tail_txns=64,
    retrain_latency_ms=5.0,
    cooldown_txns=96,
)


class SmallOrderGenerator(TpccGenerator):
    """NewOrder-heavy mix whose orders contain only 2-4 items."""

    def _make_neworder(self):
        request = super()._make_neworder()
        w_id, d_id, c_id, i_ids, i_w_ids, i_qtys = request.parameters
        keep = self.rng.integer(2, 4)
        return type(request)(
            procedure="neworder",
            parameters=(w_id, d_id, c_id, i_ids[:keep], i_w_ids[:keep], i_qtys[:keep]),
        )


class LargeOrderGenerator(TpccGenerator):
    """The shifted workload: every order contains 12-15 items."""

    def _make_neworder(self):
        request = super()._make_neworder()
        w_id, d_id, c_id, i_ids, i_w_ids, i_qtys = request.parameters
        repeat = 15 // max(1, len(i_ids)) + 1
        i_ids, i_w_ids, i_qtys = (tuple(v * repeat)[:15] for v in (i_ids, i_w_ids, i_qtys))
        return type(request)(
            procedure="neworder",
            parameters=(w_id, d_id, c_id, i_ids, i_w_ids, i_qtys),
        )


def run_scenario(verbose: bool = False) -> dict:
    """Train on small orders, shift to large mid-run, return final metrics."""
    artifacts = train(ClusterSpec(
        benchmark="tpcc", num_partitions=4, trace_transactions=TRAIN_TRACE, seed=8
    ))
    instance = artifacts.benchmark
    # Train the models from a *small-order* workload only.
    instance.generator = SmallOrderGenerator(
        instance.catalog, instance.config, WorkloadRandom(9)
    )
    small_trace = record_trace(instance, SMALL_TRACE)
    artifacts.trace = small_trace
    artifacts.models = build_models_from_trace(instance.catalog, small_trace)

    spec = ClusterSpec(
        benchmark="tpcc", num_partitions=4, strategy="houdini", seed=8,
        selftune=SELFTUNE,
    )
    session = Cluster.open(spec, artifacts=artifacts)

    # Phase 1: traffic still matches the training distribution.
    trained_phase = session.run_for(txns=PHASE1_TXNS)
    accuracy_before = trained_phase.maintenance["neworder"]["last_accuracy"]

    # Phase 2: the live workload shifts to large orders.  Only the traffic
    # changes — everything that follows (detection, retraining, swapping)
    # is the self-tuner acting on its own.
    session.reconfigure(
        generator=LargeOrderGenerator(instance.catalog, instance.config, WorkloadRandom(10))
    )
    session.run_for(txns=PHASE2_TXNS)
    threshold = session.houdini.config.maintenance_accuracy_threshold
    final = session.close()

    if verbose:
        st = final.selftune
        neworder = st["procedures"].get("neworder", {})
        maintenance = final.maintenance["neworder"]
        print(f"NewOrder accuracy before the shift: {accuracy_before:.3f}")
        print(f"Self-tuner: {st['drifts_detected']} drift verdict(s), "
              f"{st['retrains_started']} retrain(s) started, "
              f"{st['retrains_completed']} completed, {st['swaps']} hot swap(s)")
        if neworder.get("last_verdict"):
            verdict = neworder["last_verdict"]
            print(f"Last NewOrder verdict: divergence={verdict['divergence']:.3f} "
                  f"accuracy={verdict['accuracy']:.3f} "
                  f"drifted={verdict['drifted']}")
        print(f"NewOrder accuracy at close: {maintenance['last_accuracy']:.3f} "
              f"(threshold {threshold})")
    return final.to_dict()


def main() -> None:
    first = run_scenario(verbose=True)

    selftune = first["selftune"]
    assert selftune["drifts_detected"] >= 1, "no drift was detected"
    assert selftune["retrains_started"] >= 1, "no background retrain started"
    assert selftune["retrains_completed"] >= 1, "no background retrain completed"
    assert selftune["swaps"] >= 1, "no hot model swap happened"
    accuracy = first["maintenance"]["neworder"]["last_accuracy"]
    assert accuracy >= 0.75, (
        f"NewOrder accuracy did not recover above the maintenance "
        f"threshold: {accuracy:.3f}"
    )
    print("autonomous recovery ok: drift detected, model retrained and "
          "swapped, accuracy back above the threshold")

    second = run_scenario()
    assert first == second, "same seed + schedule must be byte-identical"
    print("reproducibility ok: second run is byte-identical, swaps and all")


if __name__ == "__main__":
    main()
