"""Fixtures for the analyzer tests: run rules over inline fixture snippets."""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.analysis import run_analysis, rules_by_id


@pytest.fixture
def check(tmp_path):
    """Run selected rules over named source snippets; return the findings.

    Usage::

        findings = check({"mod.py": "..."}, rule="determinism")

    File names may contain directories (``analysis/contracts.py``) so the
    path-suffix-scoped rules can be exercised.  The snippet is dedented,
    written under ``tmp_path`` and scanned with ``tmp_path`` as the root,
    so finding paths match the given names.
    """

    def _check(sources: dict[str, str], rule: str | None = None):
        for name, body in sources.items():
            target = tmp_path / name
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(textwrap.dedent(body), encoding="utf-8")
        rules = rules_by_id([rule] if rule else None)
        report = run_analysis([Path(tmp_path)], rules)
        return report.findings

    return _check
