"""Property: one ring of attempt paths decides what the two copies decided.

The self-tuning manager keeps each attempt's path once, in a per-procedure
ring: the retraining tail is the ring's last ``retrain_tail_txns`` paths,
and the drift window is the trailing ``window_transitions`` pairs of the
paths since the last swap, scored with maintenance's ``worst_overlap``.
The oracle is the record it replaced, kept in ``tests/selftune/reference.py``:
a tail ``deque(maxlen=retrain_tail_txns)`` of paths plus a ``DriftDetector``
window of pairs cleared at every swap, scored by its own overlap loop.

Both managers run over separately owned copies of one small model and are
fed the same Hypothesis-drawn stream: attempt paths of 1-30 pairs (known and
unknown states, commit or abort), maintenance accuracies, and swap points (the
transaction clock jumps by the retrain latency, so a pending retrain lands
at the next attempt).  Configurations come from ``strategy_for
(SelfTuneConfig)``, folded into reach of a short stream — windows larger
than the pairs the tail holds included.  After every attempt the two must
agree on the verdict (divergence and accuracy bits, window, drifted), the
pending job (times and paths) and the whole snapshot.

Tier-1 runs a fixed-seed budget; CI's ``selftune-smoke`` job runs
``--hypothesis-profile=long``.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.markov import MarkovModel
from repro.markov.vertex import ABORT_KEY, BEGIN_KEY, COMMIT_KEY, VertexKey
from repro.selftune import SelfTuneConfig, SelfTuneManager
from repro.selftune.manager import _ProcedureState
from repro.types import PartitionSet
from tests.conftest import SelfTuneHost, add_path, to_steps
from tests.property.test_property_schema import strategy_for
from tests.selftune.reference import ReferenceManager

PROCEDURE = "Proc"
#: The trained model both sides start from: (path, aborted) records.
CORPUS = [
    ([("A", 0, False), ("B", 1, True)], False),
    ([("A", 0, False), ("B", 2, True)], False),
    ([("A", 1, False)], False),
    ([("A", 0, False)], True),
]


def _key(name, partition, previous=()):
    return VertexKey.query(name, 0, PartitionSet.of([partition]), PartitionSet.of(previous))


#: States a path may visit: the corpus's own, and ``Z`` it never saw.
STATES = [_key("A", 0), _key("A", 1), _key("B", 1, [0]), _key("B", 2, [0]), _key("Z", 0)]

#: A path's states between begin and its terminal: 1-30 pairs.
paths = st.tuples(st.lists(st.sampled_from(STATES), max_size=29), st.booleans())
operations = st.one_of(
    st.tuples(st.just("attempt"), paths),
    st.tuples(st.just("attempt"), paths),
    st.tuples(st.just("attempt"), paths),
    st.tuples(st.just("swap"), st.none()),
    st.tuples(st.just("swap"), st.none()),
    st.tuples(st.just("accuracy"), st.sampled_from([0.2, 0.74, 0.75, 1.0])),
)
scripts = st.lists(operations, min_size=8, max_size=60)

#: Count fields folded into reach of a short stream (modulo, so small
#: drawn values stay as drawn).
REACH = {
    "check_interval_txns": 4,
    "window_transitions": 160,
    "min_observations": 6,
    "retrain_tail_txns": 8,
}


def within_reach(config: SelfTuneConfig) -> SelfTuneConfig:
    changes = {name: 1 + (getattr(config, name) - 1) % bound for name, bound in REACH.items()}
    changes["cooldown_txns"] = config.cooldown_txns % 8
    changes["retrain_min_tail_txns"] = min(
        config.retrain_min_tail_txns, changes["retrain_tail_txns"]
    )
    return replace(config, **changes)


configs = strategy_for(SelfTuneConfig).map(within_reach)


def trained_model() -> MarkovModel:
    model = MarkovModel(PROCEDURE, 3)
    for raw_path, aborted in CORPUS:
        add_path(model, to_steps(raw_path), aborted=aborted)
    model.process()
    return model


def record(manager) -> dict:
    """What one side decided so far."""
    state = manager._states[PROCEDURE]
    verdict, job = state.verdict, state.job
    return {
        "verdict": None if verdict is None else (
            verdict["divergence"].hex(), verdict["accuracy"].hex(),
            verdict["window"], verdict["drifted"],
        ),
        "job": None if job is None else (job.started_at_ms, job.ready_at_ms, job.paths),
        "snapshot": manager.snapshot(),
    }


def run(config: SelfTuneConfig, script) -> None:
    now = [0.0]
    hosts = [SelfTuneHost({PROCEDURE: trained_model()}) for _ in range(2)]
    new = SelfTuneManager(hosts[0], config, clock=lambda: now[0])
    old = ReferenceManager(hosts[1], config, clock=lambda: now[0])
    for operation, argument in script:
        if operation == "attempt":
            states, aborted = argument
            keys = [BEGIN_KEY, *states, ABORT_KEY if aborted else COMMIT_KEY]
            path = list(zip(keys, keys[1:]))
            for manager in (new, old):
                manager.observe(PROCEDURE, path)
            assert record(new) == record(old)
        elif operation == "swap":
            now[0] += config.retrain_latency_ms
        else:
            for host in hosts:
                live = host.provider.model_for_procedure(PROCEDURE)
                host.maintenance.for_model(live).stats.last_accuracy = argument


@given(configs, scripts)
@settings(deadline=None, derandomize=True,
          max_examples=max(150, settings.default.max_examples // 2))
def test_one_ring_decides_what_the_tail_and_the_detector_decided(config, script):
    run(config, script)


# ----------------------------------------------------------------------
# The property is only worth its budget if it catches the bugs it is for.
# Each mutation gets a script the unmutated code passes.
# ----------------------------------------------------------------------
def _window_spanning_swaps(self, limit):
    pairs = [pair for path in self.paths for pair in path]
    return pairs[-limit:]


def _retention_by_path_count(self, path, config):
    self.paths.append(path)
    self.pairs += len(path)
    self.observations += 1
    while len(self.paths) > config.retrain_tail_txns:
        self.pairs -= len(self.paths.popleft())


_ATTEMPT = ("attempt", ([STATES[1], STATES[4]], False))


class TestMutationsAreCaught:
    def test_pre_swap_pairs_left_in_the_window(self, monkeypatch):
        # Every attempt checks and drifts; the first job lands at the second
        # attempt, and the third attempt's window is its own path alone.
        config = SelfTuneConfig(
            check_interval_txns=1, window_transitions=50, divergence_threshold=0.01,
            min_observations=1, retrain_tail_txns=4, retrain_min_tail_txns=1,
            retrain_latency_ms=0.0, cooldown_txns=0,
        )
        script = [_ATTEMPT] * 3
        run(config, script)
        monkeypatch.setattr(_ProcedureState, "window", _window_spanning_swaps)
        with pytest.raises(AssertionError):
            run(config, script)

    def test_retention_by_path_count_only(self, monkeypatch):
        # The window (50 pairs) outgrows the one-path tail.
        config = SelfTuneConfig(
            check_interval_txns=3, window_transitions=50, retrain_tail_txns=1,
            retrain_min_tail_txns=1,
        )
        script = [_ATTEMPT] * 3
        run(config, script)
        monkeypatch.setattr(_ProcedureState, "record", _retention_by_path_count)
        with pytest.raises(AssertionError):
            run(config, script)
