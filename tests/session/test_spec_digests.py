"""``ClusterSpec`` dict forms round-trip through JSON, byte for byte.

The specs are the ones the ``spec_digests`` golden of :mod:`tests.oracles`
pins: the default spec, the four ``benchmarks/e2e`` specs at seeds 0 and 7,
and three hand-built specs that between them carry every nested config and
every source kind.  Its digests were recorded on the commit *before* the
dict forms became derived from the field table, so an equal digest means
the derived form emits the hand-written form's bytes.  They were re-pinned
when the worker-count field, the sliding maintenance window, the restart
toggle, the accuracy-signal toggle, the phased source and the per-partition
tenant queues were deleted, each time equal to the parent's ``to_dict()``
with the deleted keys popped (key order kept).
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.session import ClusterSpec
from tests.oracles import SPECS, spec_digest


@pytest.mark.parametrize("name", sorted(SPECS))
def test_dict_form_round_trips_through_json(name):
    spec = SPECS[name]()
    rebuilt = ClusterSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    # A policy instance is normalized to its registry name by ``to_dict``.
    assert rebuilt == replace(spec, policy=spec.to_dict()["policy"])
    assert spec_digest(rebuilt) == spec_digest(spec)
