"""Vertex keys are hash-consed: one live object per execution state.

Every dict in the model, the walker's inner loop, the run-time monitor and
the learner is keyed by :class:`VertexKey`, and equality/hashing are the
object defaults — so two distinct objects for one state would be a *wrong
answer*, not a slowdown.  These tests pin every way a key comes into being
to the canonical object, the table's weakness (it must not pin discarded
models), the frozen successor order, and the counted gate: no Python-level
frame is spent hashing or comparing keys.

``python_calls`` read, at the parent commit (value-hashed keys, a
Python-level ``__hash__``), 1393.4 calls per transaction of which 334.1 were
``_vertex_key_hash``; with identity keys it reads 1014.6 and 0.  A function
of the code and the seed, not of the host.
"""

from __future__ import annotations

import copy
import gc
import hashlib
import json
import multiprocessing
import pickle
import sys
import types
import weakref

import pytest

from repro.houdini import EstimateCache, GlobalModelProvider, HoudiniConfig, PathEstimate
from repro.houdini.maintenance import MaintenanceRegistry
from repro.markov import ABORT_KEY, BEGIN_KEY, COMMIT_KEY, MarkovModel, VertexKey, VertexKind
from repro.markov import vertex as vertex_module
from repro.markov.serialization import (
    model_from_dict,
    model_to_dict,
    vertex_key_from_dict,
    vertex_key_to_dict,
)
from repro.selftune import ModelSwapController
from repro.selftune.retrain import retrain_model
from repro.session import Cluster, ClusterSpec, train
from repro.types import PartitionSet

from tests.conftest import to_steps

SPECIALS = (BEGIN_KEY, COMMIT_KEY, ABORT_KEY)


def _query_key() -> VertexKey:
    # Multi-partition sets are not interned: every call passes fresh objects.
    return VertexKey.query("Q", 2, PartitionSet.of([1, 3]), PartitionSet.of([0, 1]))


def _model(prefix: str = "Q") -> MarkovModel:
    model = MarkovModel("Proc", 4)
    for _ in range(3):
        model.add_path(to_steps([(f"{prefix}1", 0, False), (f"{prefix}2", 0, True)]), False)
    model.add_path(to_steps([(f"{prefix}1", 0, False), (f"{prefix}2", 1, True)]), True)
    model.process()
    return model


def _keys(model: MarkovModel) -> list[VertexKey]:
    return [vertex.key for vertex in model.vertices()]


def _table_names() -> set[str]:
    return {probe[0] for probe in vertex_module._QUERY_KEYS}


class TestOneObjectPerState:
    def test_query_returns_the_same_object(self):
        assert _query_key() is _query_key()
        assert _query_key() is not VertexKey.query(
            "Q", 3, PartitionSet.of([1, 3]), PartitionSet.of([0, 1])
        )

    def test_equality_and_hash_are_the_object_defaults(self):
        assert VertexKey.__eq__ is object.__eq__
        assert VertexKey.__hash__ is object.__hash__
        assert not hasattr(vertex_module, "_vertex_key_hash")
        assert not hasattr(_query_key(), "_hash")

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_lands_on_the_canonical_object(self, protocol):
        for key in (_query_key(), *SPECIALS):
            assert pickle.loads(pickle.dumps(key, protocol)) is key

    def test_copy_and_deepcopy_return_the_key_itself(self):
        for key in (_query_key(), *SPECIALS):
            assert copy.copy(key) is key
            assert copy.deepcopy(key) is key
        nested = {"path": [_query_key(), COMMIT_KEY]}
        assert all(a is b for a, b in zip(copy.deepcopy(nested)["path"], nested["path"]))

    def test_dict_round_trip_returns_the_key_itself(self):
        for key in (_query_key(), *SPECIALS):
            assert vertex_key_from_dict(vertex_key_to_dict(key)) is key

    def test_direct_construction_is_rejected(self):
        """The pinned choice: ``VertexKey(...)`` raises rather than
        canonicalising — there is no spelling that yields a second object."""
        with pytest.raises(TypeError, match="hash-consed"):
            VertexKey(kind=VertexKind.BEGIN)
        with pytest.raises(TypeError, match="hash-consed"):
            VertexKey(VertexKind.QUERY, "Q", 0, PartitionSet.of([0]), PartitionSet.of([]))

    def test_keys_are_immutable(self):
        key = _query_key()
        with pytest.raises(AttributeError):
            key.counter = 9
        with pytest.raises(AttributeError):
            key.extra = 1
        assert key is _query_key() and key.counter == 2

    def test_a_serialized_model_indexes_the_same_key_objects(self):
        model = _model()
        restored = model_from_dict(model_to_dict(model))
        assert all(a is b for a, b in zip(_keys(model), _keys(restored), strict=True))
        for key in _keys(model):
            pairs = zip(model.successors(key), restored.successors(key), strict=True)
            assert all(a[0] is b[0] for a, b in pairs)
        assert all(a is b for a, b in zip(_keys(model), _keys(copy.deepcopy(model)), strict=True))

    def test_a_model_sent_to_a_forked_worker_and_back_indexes_the_same_key_objects(self):
        """The sharded backend's transport: a forked child, a pickling pipe."""
        model = _model()
        context = multiprocessing.get_context("fork")
        ours, theirs = context.Pipe()
        child = context.Process(target=_echo_model, args=(theirs,))
        child.start()
        try:
            ours.send(model)
            assert ours.poll(30), "worker did not answer"
            same_in_child, returned = ours.recv()
        finally:
            child.join(30)
            if child.is_alive():
                child.kill()
        assert not child.is_alive() and child.exitcode == 0
        assert same_in_child
        assert all(a is b for a, b in zip(_keys(model), _keys(returned), strict=True))
        assert returned.find_vertex(_keys(model)[-1]) is not None


def _echo_model(conn) -> None:
    model = conn.recv()
    # The worker's own table must hand back the very keys the model arrived with.
    canonical = all(copy.copy(key) is key for key in _keys(model))
    conn.send((canonical, model))
    conn.close()


class TestSuccessorOrderIsFrozen:
    """``sort_token`` breaks probability ties, so it decides result bytes.
    The digests were recorded at the parent commit (value-hashed keys), over
    privately trained models (the shared fixtures keep learning all session)."""

    PARENT = {
        "tpcc": ("1c3098e19f547100f0f998d79950548f11851cccbaffb56fc60ae757499e2447", 902),
        "tatp": ("e4640735e1de50f63026c20ca6a6dba0ae13b25e60970e37e9abbf23a36e8a35", 65),
    }

    @pytest.mark.parametrize("benchmark_name", sorted(PARENT))
    def test_vertex_and_successor_order_match_the_parent(self, benchmark_name):
        models = train(ClusterSpec(
            benchmark=benchmark_name, num_partitions=4, trace_transactions=600, seed=11
        )).models
        rows = [
            [name, vertex.key.sort_token,
             [[key.sort_token, repr(p)] for key, p in models[name].successors(vertex.key)]]
            for name in sorted(models)
            for vertex in models[name].vertices()
        ]
        digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
        assert (digest, len(rows)) == self.PARENT[benchmark_name]


class TestTheTableHoldsItsKeysWeakly:
    def test_a_dropped_model_and_its_estimates_release_their_keys(self):
        model = _model("Ephemeral")
        estimate = PathEstimate(procedure="Proc", vertices=_keys(model))
        alive = [weakref.ref(key) for key in _keys(model) if key.is_query]
        assert len(alive) == 3
        assert {"Ephemeral1", "Ephemeral2"} <= _table_names()
        del model
        gc.collect()
        assert all(ref() is not None for ref in alive)  # the estimate holds them
        del estimate
        gc.collect()
        assert all(ref() is None for ref in alive)
        assert not {"Ephemeral1", "Ephemeral2"} & _table_names()
        # The singletons are module-level and stay.
        assert MarkovModel("Proc", 4).begin is BEGIN_KEY

    def test_a_reborn_state_gets_one_new_canonical_key(self):
        first = VertexKey.query("Reborn", 0, PartitionSet.of([0]), PartitionSet.of([]))
        token = first.sort_token
        del first
        gc.collect()
        assert "Reborn" not in _table_names()
        second = VertexKey.query("Reborn", 0, PartitionSet.of([0]), PartitionSet.of([]))
        assert second.sort_token == token
        assert second is VertexKey.query("Reborn", 0, PartitionSet.of([0]), PartitionSet.of([]))

    def test_retrain_and_hot_swap_leave_no_key_of_the_retired_model(self):
        old = _model("Retired")
        kept, gone = (key for key in _keys(old) if key.name == "Retired2")
        tail = [tuple(zip(path, path[1:])) for path in [
            [BEGIN_KEY, next(k for k in _keys(old) if k.name == "Retired1"), kept, COMMIT_KEY]
        ] * 5]
        houdini = types.SimpleNamespace(
            provider=GlobalModelProvider({"Proc": old}),
            estimate_cache=EstimateCache(HoudiniConfig()),
            maintenance=MaintenanceRegistry(HoudiniConfig()),
        )
        houdini.maintenance.for_model(old).record_transitions(tail[0])
        new = retrain_model(old, tail)
        assert ModelSwapController(houdini).swap("Proc", new) is old
        kept, gone = weakref.ref(kept), weakref.ref(gone)
        del old
        gc.collect()
        # Only the retired model knew the aborting state; the tail's states
        # live on in the retrained model.
        assert gone() is None and kept() is not None
        assert new.find_vertex(kept()) is not None
        del new, houdini, tail
        gc.collect()
        assert kept() is None
        assert not {"Retired1", "Retired2"} & _table_names()


def python_calls(transactions: int) -> tuple[float, float]:
    """Python-level ``call`` events per transaction over a learning-on TPC-C
    run: ``(all, those spent hashing or comparing vertex keys)``."""
    spec = ClusterSpec(
        benchmark="tpcc", num_partitions=16, strategy="houdini",
        trace_transactions=300, seed=0, learning=True,
    )
    session = Cluster.open(spec)
    counts = {"calls": 0, "key": 0}

    def profiler(frame, event, _argument):
        if event == "call":
            counts["calls"] += 1
            code = frame.f_code
            if code.co_filename.endswith("markov/vertex.py") and code.co_name in (
                "__hash__", "__eq__", "_vertex_key_hash"
            ):
                counts["key"] += 1

    sys.setprofile(profiler)
    try:
        session.run_for(txns=transactions)
    finally:
        sys.setprofile(None)
        session.close()
    return counts["calls"] / transactions, counts["key"] / transactions


class TestCountedGate:
    PARENT_CALLS, PARENT_KEY_CALLS, GATE = 1393.4, 334.1, 1050.0

    def test_no_python_frame_hashes_or_compares_a_key(self):
        calls, key_calls = python_calls(300)
        assert key_calls == 0 < self.PARENT_KEY_CALLS
        assert calls <= self.GATE < self.PARENT_CALLS, calls
