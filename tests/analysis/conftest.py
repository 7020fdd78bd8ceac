"""Fixtures for the analyzer tests: run rules over inline fixture snippets."""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.analysis import RULE_CLASSES, run_analysis


@pytest.fixture
def check(tmp_path):
    """Run selected rules over named source snippets; return the findings.

    Usage::

        findings = check({"mod.py": "..."}, rule="determinism")

    The snippet is dedented, written under ``tmp_path`` and scanned with
    ``tmp_path`` as the root, so finding paths match the given names.
    """

    def _check(sources: dict[str, str], rule: str | None = None):
        for name, body in sources.items():
            target = tmp_path / name
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(textwrap.dedent(body), encoding="utf-8")
        rules = [cls() for cls in RULE_CLASSES if rule in (None, cls.id)]
        report = run_analysis([Path(tmp_path)], rules)
        return report.findings

    return _check
