"""Span nesting, self-time arithmetic and class-attribute restoration."""

import pytest

import spans


def _recorder_with(table):
    """A recorder holding hand-written ``(layer, start, end, parent)`` spans."""
    recorder = spans.SpanRecorder()
    ids = {}
    for layer, start, end, parent in table:
        if layer not in ids:
            ids[layer] = recorder.add_target(f"T.{layer}", layer)
        recorder.target_ids.append(ids[layer])
        recorder.starts.append(start)
        recorder.ends.append(end)
        recorder.parents.append(parent)
    return recorder


def test_self_time_subtracts_direct_children_only():
    recorder = _recorder_with([
        (spans.ROOT_LAYER, 0.0, 10.0, -1),   # 0: root
        ("txn", 1.0, 7.0, 0),                # 1
        ("engine", 2.0, 5.0, 1),             # 2
        ("storage", 3.0, 4.0, 2),            # 3
        ("workload", 8.0, 9.0, 0),           # 4
    ])
    assert recorder.self_times() == [3.0, 3.0, 2.0, 1.0, 1.0]
    layered = recorder.by_layer()
    assert layered["root_s"] == 10.0
    assert layered["layers"]["txn"] == {"calls": 1, "self_s": 3.0}
    assert layered["layers"][spans.ROOT_LAYER] == {"calls": 1, "self_s": 3.0}
    total = sum(entry["self_s"] for entry in layered["layers"].values())
    assert total == pytest.approx(layered["root_s"])


def test_wrapped_calls_nest_and_survive_exceptions():
    recorder = spans.SpanRecorder()

    class Toy:
        def outer(self, fail=False):
            self.inner()
            if fail:
                raise RuntimeError("boom")
            return self.inner() + 1

        def inner(self):
            return 1

    outer_id = recorder.add_target("Toy.outer", "txn")
    inner_id = recorder.add_target("Toy.inner", "engine")
    Toy.outer = recorder.wrap(Toy.outer, outer_id)
    Toy.inner = recorder.wrap(Toy.inner, inner_id)
    toy = Toy()
    assert toy.outer() == 2 and len(recorder) == 0  # inactive: pass-through
    recorder.active = True
    assert toy.outer() == 2
    with pytest.raises(RuntimeError):
        toy.outer(fail=True)
    assert toy.inner() == 1  # the failed span must not stay "current"
    recorder.active = False
    assert list(recorder.parents) == [-1, 0, 0, -1, 3, -1]
    assert list(recorder.target_ids) == [outer_id, inner_id, inner_id,
                                         outer_id, inner_id, inner_id]
    assert all(end >= start for start, end in zip(recorder.starts, recorder.ends))
    assert all(own >= 0 for own in recorder.self_times())
    assert recorder.by_layer()["calls"] == {"Toy.outer": 2, "Toy.inner": 4}


def test_instrument_restores_class_attributes_identically():
    targets = [pair for point in spans.SPAN_POINTS for pair in spans.resolve(point)]
    assert len(targets) >= 30
    before = [vars(owner)[method] for owner, method in targets]
    recorder = spans.SpanRecorder()
    with spans.instrument(recorder):
        during = [vars(owner)[method] for owner, method in targets]
        assert all(new is not old for new, old in zip(during, before))
        assert all(new.__wrapped__ is old for new, old in zip(during, before))
    after = [vars(owner)[method] for owner, method in targets]
    assert all(new is old for new, old in zip(after, before))
    assert len(recorder.targets) == len(targets)


def test_instrument_restores_after_an_error():
    point = spans.SPAN_POINTS[0]
    (owner, method), *_ = spans.resolve(point)
    original = vars(owner)[method]
    with pytest.raises(KeyError):
        with spans.instrument(spans.SpanRecorder()):
            raise KeyError("inside")
    assert vars(owner)[method] is original


def test_every_layer_has_a_span_point_and_generators_are_covered():
    assert len(spans.LAYERS) == 12 and spans.LAYERS[-1] == spans.ROOT_LAYER
    generators = spans.resolve(next(p for p in spans.SPAN_POINTS if p.overriders))
    names = {owner.__name__ for owner, _ in generators}
    assert {"TatpGenerator", "TpccGenerator", "SmallBankGenerator"} <= names


def test_stale_span_point_is_reported():
    stale = spans.SpanPoint("txn", "repro.txn.coordinator", "TransactionCoordinator",
                            ("no_such_method",))
    with pytest.raises(AttributeError, match="no_such_method"):
        spans.resolve(stale)
