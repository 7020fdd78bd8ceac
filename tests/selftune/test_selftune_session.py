"""Session-level integration tests for the self-tuning loop.

The acceptance contracts of the subsystem:

* a mid-run hot model swap preserves byte-determinism — two same-seed runs
  of a workload-shift scenario (detect → retrain → swap happening inside)
  produce identical ``SimulationResult.to_dict()`` bytes;
* ``ClusterSpec(selftune=...)`` round-trips through ``to_dict`` /
  ``from_kwargs`` and validates its prerequisites (Houdini strategy, global
  provider, learning on);
* ``reconfigure(selftune=...)`` enables the loop mid-session and
  ``reconfigure(selftune=None)`` detaches it.
"""

from __future__ import annotations

import pytest

from repro.benchmarks.tpcc import TpccGenerator
from repro.errors import SessionError
from repro.houdini import HoudiniConfig
from repro.markov import build_models_from_trace
from repro.selftune import SelfTuneConfig, SelfTuneManager
from repro.session import Cluster, ClusterSpec, record_trace
from repro.workload import WorkloadRandom
from tests.conftest import trained


class SmallOrderGenerator(TpccGenerator):
    """NewOrder mix whose orders contain only 2-4 items."""

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


_SELFTUNE = SelfTuneConfig(
    check_interval_txns=20,
    window_transitions=240,
    divergence_threshold=0.3,
    min_observations=16,
    retrain_tail_txns=96,
    retrain_min_tail_txns=48,
    retrain_latency_ms=5.0,
    cooldown_txns=64,
)


def _shift_scenario() -> dict:
    """Train on small orders, shift to large mid-run, let the loop act."""
    artifacts = trained("tpcc", 4, 400, 21)
    instance = artifacts.benchmark
    instance.generator = SmallOrderGenerator(
        instance.catalog, instance.config, WorkloadRandom(22)
    )
    trace = record_trace(instance, 400)
    artifacts.trace = trace
    artifacts.models = build_models_from_trace(instance.catalog, trace)
    session = Cluster.open(
        ClusterSpec(
            benchmark="tpcc", num_partitions=4, strategy="houdini", seed=21,
            selftune=_SELFTUNE,
        ),
        artifacts=artifacts,
    )
    session.run_for(txns=120)
    session.reconfigure(generator=LargeOrderGenerator(
        instance.catalog, instance.config, WorkloadRandom(23)
    ))
    session.run_for(txns=380)
    return session.close().to_dict()


#: The reference run, computed once and shared by the swap and determinism
#: tests (every run trains from scratch).
_REFERENCE: list = []


def _reference() -> dict:
    if not _REFERENCE:
        _REFERENCE.append(_shift_scenario())
    return _REFERENCE[0]


class TestHotSwapDeterminism:
    def test_scenario_actually_swaps(self):
        selftune = _reference()["selftune"]
        assert selftune["drifts_detected"] >= 1
        assert selftune["retrains_started"] >= 1
        assert selftune["retrains_completed"] >= 1
        assert selftune["swaps"] >= 1
        neworder = selftune["procedures"]["neworder"]
        assert neworder["swaps"] >= 1
        assert neworder["last_swap_at_ms"] is not None

    def test_same_seed_runs_are_byte_identical(self):
        assert _shift_scenario() == _reference()

    def test_a_swap_under_precompute_tables_off_keeps_planning(self):
        """A retrained model gets probability tables even when the Houdini
        config turns precomputation off: the first plan after the first swap
        reads the begin vertex's table."""
        spec = ClusterSpec(
            benchmark="tatp", num_partitions=2, trace_transactions=100,
            houdini=HoudiniConfig(
                confidence_threshold=0.0, op4_floor=0.0, precompute_tables=False),
            selftune=SelfTuneConfig(
                check_interval_txns=1, window_transitions=1, min_observations=1,
                retrain_tail_txns=1, retrain_min_tail_txns=1, retrain_latency_ms=0.0,
                cooldown_txns=0),
        )
        session = Cluster.open(spec)
        assert session.run_for(txns=20).total_transactions == 20
        assert session.close().to_dict()["selftune"]["swaps"] >= 1


class TestSpecValidation:
    def test_spec_roundtrips_with_selftune(self):
        spec = ClusterSpec(selftune=_SELFTUNE)
        again = ClusterSpec.from_kwargs(**spec.to_dict())
        assert again.selftune == _SELFTUNE
        assert again.to_dict() == spec.to_dict()

    def test_field_dict_is_coerced(self):
        spec = ClusterSpec(selftune={"check_interval_txns": 10})
        assert isinstance(spec.selftune, SelfTuneConfig)
        assert spec.selftune.check_interval_txns == 10

    def test_unknown_selftune_field_rejected(self):
        with pytest.raises(SessionError, match="selftune"):
            ClusterSpec(selftune={"check_interval": 10})

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            ({"strategy": "oracle"}, "Houdini strategy"),
            ({"strategy": "houdini-partitioned",
              "model_provider": "partitioned"}, "global model provider"),
            ({"learning": False}, "learning"),
        ],
    )
    def test_prerequisites_enforced(self, kwargs, match):
        with pytest.raises(SessionError, match=match):
            ClusterSpec(selftune=_SELFTUNE, **kwargs)

    def test_invalid_config_values_rejected(self):
        with pytest.raises(ValueError, match="divergence_threshold"):
            SelfTuneConfig(divergence_threshold=1.5)
        with pytest.raises(ValueError, match="check_interval_txns"):
            SelfTuneConfig(check_interval_txns=0)
        with pytest.raises(ValueError, match="retrain_min_tail_txns"):
            SelfTuneConfig(retrain_tail_txns=10, retrain_min_tail_txns=20)


class TestLiveReconfigure:
    def _session(self, **spec_kwargs):
        artifacts = trained("tatp", 4, 200, 3)
        spec_kwargs.setdefault("strategy", "houdini")
        return Cluster.open(
            ClusterSpec(benchmark="tatp", num_partitions=4, **spec_kwargs),
            artifacts=artifacts,
        )

    def test_enable_then_detach_mid_session(self):
        session = self._session()
        assert session.selftune is None
        session.run_for(txns=50)

        session.reconfigure(selftune={"check_interval_txns": 10})
        assert isinstance(session.selftune, SelfTuneManager)
        assert session.houdini._selftune is session.selftune
        result = session.run_for(txns=50)
        assert result.selftune is not None
        assert result.selftune["procedures"], "loop observed no procedures"

        session.reconfigure(selftune=None)
        assert session.selftune is None
        assert session.houdini._selftune is None
        final = session.close()
        assert final.selftune is None

    def test_selftune_requires_houdini_strategy(self):
        session = self._session(strategy="oracle")
        with pytest.raises(SessionError, match="Houdini strategy"):
            session.reconfigure(selftune={})
        session.close()

    def test_selftune_rejects_wrong_type(self):
        session = self._session()
        with pytest.raises(SessionError, match="SelfTuneConfig"):
            session.reconfigure(selftune=7)
        session.close()
