"""A session's results depend on its seed alone.

Every case of :mod:`tests.sim.rerun_cases` — each execution strategy on
each benchmark, and one session per event-loop shape — must give
byte-identical ``SimulationResult.to_dict()``:

* when it is run again in the same process, from fresh artifacts, which
  catches state that leaks from one session into the next (a process-global
  counter, a cache that outlives its session);
* when it is run in a fresh interpreter under ``PYTHONHASHSEED`` 1 and 2,
  which catches results that follow the iteration order of a ``set`` or of
  hashed keys.  A second run in the same process cannot see such a bug: it
  shares the first run's hash seed.

Each case also shows that it exercises what its name says; otherwise the
comparisons above could pass on a session that never took that path.

The same results pin the dict form, whose keys and key order come from
the result classes' field tables: the ``rerun_digests`` golden of
:mod:`tests.oracles` holds every case's digest, and ``to_dict`` → JSON →
``from_dict`` → ``to_dict`` gives the same bytes for every case (exact
metrics, tenants, and the maintenance, selftune and tenancy blocks among
them).

The two hash-seed interpreters also produce the ``golden_writes`` golden:
the bytes of every file the system writes (artifact bundles, a recorded
trace, a DOT model, ``simulate --json``) must be the same under hash seed
1, hash seed 2, in this process and in the recorded file.  Two in-process
mutations of a writer show that a change to a file's order moves its
digest.
"""

from __future__ import annotations

import functools
import json

import pytest

from repro.artifacts import ArtifactBundle
from repro.sim import SimulationResult
from repro.workload.trace import TransactionTraceRecord
from tests.oracles import (
    ORACLES,
    ROOT,
    bundle_digests,
    produced,
    record_digest,
    spawn_producers,
)
from tests.sim.rerun_cases import CASES, SHAPES, digest, first_run

HASH_SEEDS = ("1", "2")
WRITES = ORACLES["golden_writes"]


@functools.cache
def _digests_under_hash_seeds() -> dict[str, dict[str, dict[str, str]]]:
    """``{hash seed: {golden: {case: digest}}}`` for ``rerun_digests`` and
    ``golden_writes``, one fresh interpreter per seed, run side by side."""
    src = ROOT / "src"
    runs = {
        seed: spawn_producers(["rerun_digests", "golden_writes"], src, PYTHONHASHSEED=seed)
        for seed in HASH_SEEDS
    }
    return {seed: produced(process, src) for seed, process in runs.items()}


class TestSameSeedRerun:
    @pytest.mark.parametrize("name", CASES)
    def test_a_second_run_in_one_process_is_byte_identical(self, name):
        assert digest(CASES[name]()) == digest(first_run(name))


class TestHashSeed:
    @pytest.mark.parametrize("name", CASES)
    def test_results_do_not_follow_the_hash_seed(self, name):
        expected = digest(first_run(name))
        for seed, digests in _digests_under_hash_seeds().items():
            assert digests["rerun_digests"][name] == expected, f"PYTHONHASHSEED={seed}"


class TestWrittenFiles:
    @pytest.mark.parametrize("case", WRITES.cases)
    def test_a_written_file_follows_neither_the_hash_seed_nor_the_process(self, case):
        recorded = WRITES.recorded()[case]
        assert WRITES.produce(case) == recorded, "in this process"
        for seed, goldens in _digests_under_hash_seeds().items():
            assert goldens["golden_writes"][case] == recorded, f"PYTHONHASHSEED={seed}"

    def test_procedures_written_in_reverse_move_the_metadata_digest(self, monkeypatch):
        metadata = ArtifactBundle.metadata
        monkeypatch.setattr(ArtifactBundle, "metadata", lambda bundle: {
            **metadata(bundle), "procedures": metadata(bundle)["procedures"][::-1],
        })
        digests = bundle_digests.__wrapped__("tatp")
        recorded = WRITES.recorded()
        assert digests["metadata.json"] != recorded["bundle-tatp-metadata.json"]
        assert digests["models.json"] == recorded["bundle-tatp-models.json"]

    def test_trace_keys_reordered_move_the_trace_digest(self, monkeypatch):
        to_json = TransactionTraceRecord.to_json
        monkeypatch.setattr(TransactionTraceRecord, "to_json",
                            lambda record: dict(reversed(to_json(record).items())))
        assert record_digest.__wrapped__() != WRITES.recorded()["record-tatp"]


class TestEachCaseTakesItsPath:
    @pytest.mark.parametrize("name", [name for name in CASES if name not in SHAPES])
    def test_a_strategy_run_finishes_its_budget(self, name):
        result = first_run(name)
        assert result["strategy"] == name.split("-", 1)[1]
        assert result["committed"] + result["user_aborted"] == 200

    def test_learning_feeds_the_models(self):
        maintenance = first_run("learning_closed_loop")["maintenance"]
        assert sum(m["transitions_observed"] for m in maintenance.values()) > 0

    def test_tenancy_sheds_only_the_tenant_over_its_slo(self):
        arrivals = first_run("tenancy_with_shedding")["tenancy"]["arrivals"]
        assert arrivals["free"]["shed"] > 0
        assert arrivals["gold"]["shed"] == 0

    def test_the_gated_loop_defers_and_reorders(self):
        result = first_run("gated_open_loop")
        assert result["admission_stats"]["deferred"] > 0
        assert result["scheduler_stats"]["reordered"] > 0

    def test_the_selftune_run_swaps_a_model(self):
        assert first_run("selftune_hot_swap")["selftune"]["swaps"] >= 1

    def test_out_of_loop_submits_are_executed(self):
        result = first_run("out_of_loop_submit")
        assert result["committed"] + result["user_aborted"] == 150 + 3 + 100


class TestDictForm:
    @pytest.mark.parametrize("name", CASES)
    def test_the_dict_form_round_trips_through_json(self, name):
        """Every byte but the recomputed ``derived`` block, which sums the
        breakdowns in map order: the simulator fills the map as procedures
        first complete and the dict form lists it by name, so that one sum
        may differ in its last bits.  Rebuilt once, the form is a fixed
        point, ``derived`` included."""
        document = json.dumps(first_run(name))
        rebuilt = SimulationResult.from_dict(json.loads(document)).to_dict()
        original = json.loads(document)
        derived, rederived = original.pop("derived"), rebuilt.pop("derived")
        assert json.dumps(rebuilt) == json.dumps(original)
        assert rederived == pytest.approx(derived, rel=1e-12)
        again = json.dumps(SimulationResult.from_dict(
            json.loads(json.dumps({**rebuilt, "derived": rederived}))).to_dict())
        assert again == json.dumps({**rebuilt, "derived": rederived})
