"""Every golden of :mod:`tests.oracles`, and its recorder.

One test per case compares what the working tree produces with the recorded
file.  Per golden, one test checks that the file holds exactly the golden's
cases and one that its bytes are what the recorder writes.  One test per
landmark checks what the recording must show besides its values.  The rest
check the recorder: ``diff`` names what moved, and ``record --rev`` records
at the named revision.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from tests.oracles import ORACLES, ROOT, _moved, main

CASES = [(oracle, case) for oracle in ORACLES.values() for case in oracle.cases]
LANDMARKS = [(oracle, name) for oracle in ORACLES.values() for name in oracle.landmarks]


@pytest.mark.parametrize(
    "oracle,case", CASES, ids=[f"{oracle.name}-{case}" for oracle, case in CASES]
)
def test_case_matches_its_golden(oracle, case):
    assert oracle.produce(case) == oracle.recorded()[case]


@pytest.mark.parametrize("oracle", ORACLES.values(), ids=list(ORACLES))
def test_golden_holds_exactly_its_cases(oracle):
    """The file's keys are the cases, in case order where the file keeps
    order."""
    golden = oracle.recorded()
    assert set(golden) == set(oracle.cases)
    if not oracle.sort_keys:
        assert list(golden) == list(oracle.cases)


@pytest.mark.parametrize("oracle", ORACLES.values(), ids=list(ORACLES))
def test_golden_file_is_what_record_writes(oracle):
    """The file's bytes are what ``record`` writes for its values, so a
    ``record`` that moves no value leaves the file unchanged."""
    assert oracle.file.read_text(encoding="utf-8") == oracle.text(oracle.recorded())


@pytest.mark.parametrize(
    "oracle,landmark", LANDMARKS, ids=[f"{oracle.name}-{name}" for oracle, name in LANDMARKS]
)
def test_golden_shows_its_landmark(oracle, landmark):
    oracle.landmarks[landmark](oracle.recorded())


def test_diff_is_silent_when_nothing_moved():
    golden = {"a": {"digest": "0"}, "b": 1}
    assert _moved("g", golden, dict(golden)) == []


def test_diff_names_each_case_that_moved_and_how():
    before = {"kept": 1, "scalar": 1, "fields": {"x": 1, "y": 2}, "dropped": 0}
    after = {"kept": 1, "scalar": 2, "fields": {"x": 1, "y": 3, "z": 0}, "added": 0}
    assert _moved("g", before, after) == [
        "g scalar: 1 -> 2",
        "g fields: y, z",
        "g dropped: only before",
        "g added: only after",
    ]


def test_diff_of_the_working_tree_against_its_file_finds_nothing(capsys):
    assert main(["diff", "spec_digests"]) == 0
    assert capsys.readouterr().out.strip() == "no case moved"


def test_an_unknown_golden_is_refused(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["record", "spec_digests", "no_such_golden"])
    assert exit_.value.code == 2
    assert "no_such_golden" in capsys.readouterr().err


def test_the_recorder_records_at_the_named_revision(tmp_path):
    """A throwaway repository: this tree as one commit, then a commit that
    changes a spec default.  ``spec_digests`` recorded at the first commit
    must equal this tree's file, and must differ from the one recorded at
    the second."""
    repo = tmp_path / "repo"
    for part in ("src", "tests", "benchmarks/e2e"):
        shutil.copytree(ROOT / part, repo / part,
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))

    def git(*args: str) -> str:
        return subprocess.run(
            ["git", "-c", "user.name=oracle", "-c", "user.email=oracle@localhost",
             "-c", "commit.gpgsign=false", *args],
            cwd=repo, check=True, capture_output=True, text=True,
        ).stdout.strip()

    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "base")
    base = git("rev-parse", "HEAD")
    session = repo / "src" / "repro" / "session.py"
    text = session.read_text(encoding="utf-8")
    changed = text.replace("num_partitions: int = spec(8,", "num_partitions: int = spec(9,")
    assert changed != text
    session.write_text(changed, encoding="utf-8")
    git("commit", "-q", "-am", "change a spec default")

    golden = repo / "tests" / "session" / "spec_digests.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(repo / "src"), str(repo), os.environ.get("PYTHONPATH", "")]
    ))

    def record(rev: str) -> dict:
        subprocess.run(
            [sys.executable, "-m", "tests.oracles", "record", "spec_digests", "--rev", rev],
            cwd=repo, env=env, check=True, capture_output=True,
        )
        return json.loads(golden.read_text(encoding="utf-8"))

    at_base, at_head = record(base), record("HEAD")
    assert at_base == ORACLES["spec_digests"].recorded()
    assert at_head["default"] != at_base["default"]
