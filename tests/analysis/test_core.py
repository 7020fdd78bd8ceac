"""The analyzer driver: bad paths and where a finding points."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import AnalysisError, all_rules, run_analysis

SNIPPET = """import time


def stamp():
    return time.time()
"""


class TestDriver:
    def test_unknown_path_raises(self):
        with pytest.raises(AnalysisError):
            run_analysis([Path("/no/such/path")], all_rules())

    def test_findings_sorted_and_located(self, tmp_path):
        (tmp_path / "mod.py").write_text(SNIPPET, encoding="utf-8")
        report = run_analysis([tmp_path], all_rules())
        finding = report.findings[0]
        assert finding.path == "mod.py"
        assert finding.line == 5
        assert finding.symbol == "stamp"
        assert finding.format().startswith("mod.py:5:")
