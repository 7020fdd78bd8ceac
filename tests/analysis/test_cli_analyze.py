"""CLI surface of ``repro analyze``: exit codes, JSON mode, integration."""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

from repro.cli import main

REPRO_PACKAGE = Path(__file__).resolve().parents[2] / "src" / "repro"

DIRTY = """
import time


def stamp():
    return time.time()
"""


def _write(tmp_path, source):
    target = tmp_path / "mod.py"
    target.write_text(textwrap.dedent(source), encoding="utf-8")
    return target


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        _write(tmp_path, "def ok():\n    return 1\n")
        assert main(["analyze", str(tmp_path)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        _write(tmp_path, DIRTY)
        assert main(["analyze", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "[determinism]" in out

    def test_unknown_rule_exits_two(self, tmp_path, capsys):
        _write(tmp_path, DIRTY)
        assert main(["analyze", str(tmp_path), "--rule", "frobnicate"]) == 2
        assert "usage error" in capsys.readouterr().err

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "nope")]) == 2

    def test_rule_selection_scopes_the_run(self, tmp_path):
        _write(tmp_path, DIRTY)
        assert main(["analyze", str(tmp_path), "--rule", "cache-poke"]) == 0


class TestBaselineFlow:
    def test_update_baseline_then_strict_clean(self, tmp_path, capsys):
        _write(tmp_path, DIRTY)
        baseline = tmp_path / "baseline.json"
        args = ["analyze", str(tmp_path), "--baseline", str(baseline)]
        assert main(args) == 1
        assert main(args + ["--update-baseline"]) == 0
        assert baseline.exists()
        capsys.readouterr()
        assert main(args + ["--strict"]) == 0
        assert "1 baselined" in capsys.readouterr().out

    def test_stale_baseline_fails_strict_only(self, tmp_path):
        _write(tmp_path, DIRTY)
        baseline = tmp_path / "baseline.json"
        args = ["analyze", str(tmp_path), "--baseline", str(baseline)]
        assert main(args + ["--update-baseline"]) == 0
        _write(tmp_path, "def ok():\n    return 1\n")
        assert main(args) == 0
        assert main(args + ["--strict"]) == 1


class TestJsonMode:
    def test_json_document_shape(self, tmp_path, capsys):
        _write(tmp_path, DIRTY)
        assert main(["analyze", str(tmp_path), "--json"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["summary"]["findings"] == 1
        (finding,) = document["findings"]
        assert finding["rule"] == "determinism"
        assert finding["path"] == "mod.py"
        assert set(document["rules"]) == {
            "determinism", "version-bump", "cache-poke",
            "serialization", "stale-contract",
        }


class TestIntegration:
    def test_repro_package_is_strict_clean(self, capsys):
        """The whole of src/repro passes the analyzer — the standing gate."""
        assert main(["analyze", str(REPRO_PACKAGE), "--strict", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["summary"]["findings"] == 0
        assert document["summary"]["stale_baseline"] == 0
        assert document["files_scanned"] > 100
