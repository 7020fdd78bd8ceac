"""``BENCHMARK.json`` against the driver's contract, and ``protocol.json``."""

import json
import re

import run
import spans
from workloads import WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")


def _contract():
    path = run.REPO_ROOT / "BENCHMARK.json"
    assert path.stat().st_size <= 64 * 1024
    return json.loads(path.read_text(encoding="utf-8"))


def test_top_level_keys_and_command():
    contract = _contract()
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert contract["paths"] == ["benchmarks/e2e"]
    assert all(PATH.fullmatch(path) and not path.startswith("/") and ".." not in path
               for path in contract["paths"])
    command = contract["command"]
    assert 1 <= len(command) <= 32 and all(len(part) <= 200 for part in command)
    assert command == ["python3", "benchmarks/e2e/run.py"]
    assert isinstance(contract["run_seconds"], int) and 1 <= contract["run_seconds"] <= 60


def test_workloads_match_the_code():
    workloads = _contract()["workloads"]
    assert 2 <= len(workloads) <= 8
    assert [entry["name"] for entry in workloads] == list(WORKLOADS)
    for entry in workloads:
        assert set(entry) == {"name", "why"}
        assert NAME.fullmatch(entry["name"])
        assert entry["why"] == WORKLOADS[entry["name"]].why
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]


def test_metrics_are_named_bounded_and_unique():
    contract = _contract()
    end_to_end, per_layer = contract["end_to_end"], contract["per_layer"]
    assert 1 <= len(end_to_end) <= 16 and 1 <= len(per_layer) <= 128
    for entry in end_to_end:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in per_layer:
        assert set(entry) == {"name", "unit", "better"}
    names = [entry["name"] for entry in end_to_end + per_layer]
    names += [entry["name"] for entry in contract["workloads"]]
    assert len(names) == len(set(names))
    for entry in end_to_end + per_layer:
        assert NAME.fullmatch(entry["name"]), entry["name"]
        assert UNIT.fullmatch(entry["unit"]), entry["unit"]
        assert entry["better"] in ("lower", "higher")
    setup = next(entry for entry in end_to_end if entry["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(entry["bound"] for entry in end_to_end)


def test_every_layer_reports_its_three_metrics():
    per_layer = run.declared("per_layer")
    for layer in spans.LAYERS:
        for suffix in ("calls_per_txn", "self_share", "self_ref_us_per_txn"):
            assert f"{layer}.{suffix}" in per_layer
    for stage in run.SETUP_STAGES:
        assert f"setup.{stage}_ref_s" in per_layer


def test_protocol_holds_the_constants_and_pins():
    protocol = run.protocol()
    assert protocol["calib_ref_s"] == 0.0023
    assert protocol["disturbed_p90_over_p10"] == 1.8
    assert protocol["window_segments"] >= 1 and protocol["setup_repeats"] >= 3
    pinned = protocol["pinned"]
    assert pinned["seconds"] == _contract()["run_seconds"]
    assert set(pinned["workloads"]) == set(WORKLOADS)
    for entry in pinned["workloads"].values():
        assert entry["sim_txn_per_s"] > 0 and entry["committed"] > 0
    assert {"nproc", "python", "commit", "values"} <= set(protocol["baseline"])
