"""Golden parameter-mapping oracle: what the builder derives, bit for bit.

``golden_mappings.json`` was recorded from the commit *before* the builder
stopped comparing value pairs and started counting trace structure.  How the
builder counts may change; which entries it accepts, in which order it adds
them to each :class:`ParameterMapping`, every coefficient to the last bit,
which entry wins each query-parameter slot and the procedure order of the
set may not.  ``mapping_set_to_dict`` sorts what it writes, so the digest is
taken over the in-memory objects instead (``reference.mapping_state``).  The
traces are the ones ``session.train`` records for these arguments (16
partitions, seed 0).

Re-record (only in a change that means to alter what the builder derives)::

    PYTHONPATH=src:. python tests/mapping/test_golden_mappings.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.mapping import ParameterMappingSet, build_parameter_mappings
from repro.session import build_benchmark, record_trace
from tests.mapping.reference import mapping_state

GOLDEN = Path(__file__).with_name("golden_mappings.json")
PARTITIONS = 16
SEED = 0
#: ``(benchmark, trace transactions)``; TPC-C at the e2e benchmark's 4,000 too.
CASES = (
    ("tpcc", 1500), ("tpcc", 4000), ("tatp", 1500), ("smallbank", 1500),
    ("auctionmark", 1500),
)


def mapping_digest(mappings: ParameterMappingSet) -> dict:
    state = mapping_state(mappings)
    return {
        "entries": sum(len(entries) for _, _, entries, _ in state),
        "digest": hashlib.sha256(repr(state).encode("utf-8")).hexdigest(),
    }


def case_key(benchmark: str, transactions: int) -> str:
    return f"{benchmark}-{transactions}"


def build_case(benchmark: str, transactions: int) -> dict:
    instance = build_benchmark(benchmark, PARTITIONS, seed=SEED)
    trace = record_trace(instance, transactions)
    return mapping_digest(build_parameter_mappings(instance.catalog, trace))


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name,transactions", CASES)
def test_mappings_match_parent(name, transactions, golden):
    assert build_case(name, transactions) == golden[case_key(name, transactions)]


def test_golden_covers_every_case(golden):
    assert set(golden) == {case_key(*case) for case in CASES}
    assert all(entry["entries"] > 0 for entry in golden.values())


if __name__ == "__main__":
    recorded = {case_key(*case): build_case(*case) for case in CASES}
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {GOLDEN}")
