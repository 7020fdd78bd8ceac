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
the result classes' field tables: every case's digest equals the one in
``rerun_digests.json`` (recorded before those tables replaced the
hand-written ``to_dict``; re-record only for a change that is meant to move
result bytes, by running ``tests.sim.rerun_cases`` as above into that
file), and ``to_dict`` → JSON → ``from_dict`` → ``to_dict`` gives the same
bytes for every case (exact metrics, tenants, and the maintenance,
selftune and tenancy blocks among them).
"""

from __future__ import annotations

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.sim import SimulationResult
from tests.sim.rerun_cases import CASES, SHAPES, digest

ROOT = Path(__file__).resolve().parents[2]
HASH_SEEDS = ("1", "2")
RECORDED = json.loads((Path(__file__).parent / "rerun_digests.json").read_text())


@functools.cache
def _first_run(name: str) -> dict:
    return CASES[name]()


@functools.cache
def _digests_under_hash_seeds() -> dict[str, dict[str, str]]:
    """``{hash seed: {case: digest}}``, one fresh interpreter per seed,
    run side by side."""
    runs = {}
    for seed in HASH_SEEDS:
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH", "")]
        )
        runs[seed] = subprocess.Popen(
            [sys.executable, "-m", "tests.sim.rerun_cases"],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )
    digests = {}
    for seed, process in runs.items():
        out, err = process.communicate(timeout=600)
        assert process.returncode == 0, err
        digests[seed] = json.loads(out)
    return digests


class TestSameSeedRerun:
    @pytest.mark.parametrize("name", CASES)
    def test_a_second_run_in_one_process_is_byte_identical(self, name):
        assert digest(CASES[name]()) == digest(_first_run(name))


class TestHashSeed:
    @pytest.mark.parametrize("name", CASES)
    def test_results_do_not_follow_the_hash_seed(self, name):
        expected = digest(_first_run(name))
        for seed, digests in _digests_under_hash_seeds().items():
            assert digests[name] == expected, f"PYTHONHASHSEED={seed}"


class TestEachCaseTakesItsPath:
    @pytest.mark.parametrize("name", [name for name in CASES if name not in SHAPES])
    def test_a_strategy_run_finishes_its_budget(self, name):
        result = _first_run(name)
        assert result["strategy"] == name.split("-", 1)[1]
        assert result["committed"] + result["user_aborted"] == 200

    def test_learning_feeds_the_models(self):
        maintenance = _first_run("learning_closed_loop")["maintenance"]
        assert sum(m["transitions_observed"] for m in maintenance.values()) > 0

    def test_tenancy_sheds_only_the_tenant_over_its_slo(self):
        arrivals = _first_run("tenancy_with_shedding")["tenancy"]["arrivals"]
        assert arrivals["free"]["shed"] > 0
        assert arrivals["gold"]["shed"] == 0

    def test_the_gated_loop_defers_and_reorders(self):
        result = _first_run("gated_open_loop")
        assert result["admission_stats"]["deferred"] > 0
        assert result["scheduler_stats"]["reordered"] > 0

    def test_the_selftune_run_swaps_a_model(self):
        assert _first_run("selftune_hot_swap")["selftune"]["swaps"] >= 1

    def test_out_of_loop_submits_are_executed(self):
        result = _first_run("out_of_loop_submit")
        assert result["committed"] + result["user_aborted"] == 150 + 3 + 100


class TestDictForm:
    def test_every_case_is_recorded(self):
        assert list(RECORDED) == list(CASES)

    @pytest.mark.parametrize("name", CASES)
    def test_the_digest_equals_the_recorded_one(self, name):
        assert digest(_first_run(name)) == RECORDED[name]

    @pytest.mark.parametrize("name", CASES)
    def test_the_dict_form_round_trips_through_json(self, name):
        """Every byte but the recomputed ``derived`` block, which sums the
        breakdowns in map order: the simulator fills the map as procedures
        first complete and the dict form lists it by name, so that one sum
        may differ in its last bits.  Rebuilt once, the form is a fixed
        point, ``derived`` included."""
        document = json.dumps(_first_run(name))
        rebuilt = SimulationResult.from_dict(json.loads(document)).to_dict()
        original = json.loads(document)
        derived, rederived = original.pop("derived"), rebuilt.pop("derived")
        assert json.dumps(rebuilt) == json.dumps(original)
        assert rederived == pytest.approx(derived, rel=1e-12)
        again = json.dumps(SimulationResult.from_dict(
            json.loads(json.dumps({**rebuilt, "derived": rederived}))).to_dict())
        assert again == json.dumps({**rebuilt, "derived": rederived})
