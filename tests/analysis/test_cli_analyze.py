"""CLI surface of ``repro analyze``: exit codes and the package scan."""

from __future__ import annotations

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

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "nope")]) == 2


class TestIntegration:
    def test_repro_package_is_clean(self, capsys):
        """The whole of src/repro passes the analyzer — the standing gate."""
        assert main(["analyze", str(REPRO_PACKAGE)]) == 0
        summary = capsys.readouterr().out.strip().splitlines()[-1]
        files = int(summary.split(" file(s)")[0])
        assert files > 100
        assert summary.endswith("1 rule(s): 0 finding(s)")
