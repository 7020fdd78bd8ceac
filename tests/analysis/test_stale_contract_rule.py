"""Fixtures for the ``stale-contract`` rule: a registry entry whose class or
attribute no longer exists in the scanned tree is a finding."""

from __future__ import annotations

import pytest

from repro.analysis import contracts

REGISTRY = "analysis/contracts.py"
TREE = {
    REGISTRY: """
        PROTECTED_CACHES = {
            "_entries": ("EstimateCache", "lookup()/store()"),
            "_walk_tables": ("PathEstimator", "walk_record()"),
        }
    """,
    "houdini/cache.py": """
        class EstimateCache:
            def __init__(self):
                self._entries = {}
    """,
    "houdini/estimator.py": """
        class PathEstimator:
            def __init__(self):
                self._compiled = {}
    """,
    "markov/model.py": """
        class MarkovModel:
            def __init__(self):
                self._vertices = {}
                self._edges = {}
                self.version = 0
    """,
}


@pytest.fixture
def registries(monkeypatch):
    monkeypatch.setattr(contracts, "PROTECTED_CACHES", {
        "_entries": ("EstimateCache", "lookup()/store()"),
    })
    monkeypatch.setattr(contracts, "VERSIONED_CLASSES", {
        "MarkovModel": {
            "tracked": frozenset({"_vertices", "_edges"}),
            "version": "version", "hint": "",
        },
    })
    return contracts


class TestStaleContract:
    def test_live_entries_are_clean(self, check, registries):
        assert check(TREE, rule="stale-contract") == []

    def test_entry_for_a_deleted_attribute_is_a_finding(self, check, registries):
        registries.PROTECTED_CACHES["_walk_tables"] = ("PathEstimator", "walk_record()")
        findings = check(TREE, rule="stale-contract")
        assert len(findings) == 1
        assert findings[0].path == REGISTRY and findings[0].line == 4
        assert "PathEstimator._walk_tables" in findings[0].message
        assert "never assigns" in findings[0].message

    def test_entry_for_a_deleted_class_is_a_finding(self, check, registries):
        registries.PROTECTED_CACHES["_records"] = ("CompiledWalkTable", "records()")
        findings = check(TREE, rule="stale-contract")
        assert len(findings) == 1
        assert "class CompiledWalkTable is not defined" in findings[0].message

    def test_versioned_class_attributes_are_checked_too(self, check, registries):
        registries.VERSIONED_CLASSES["MarkovModel"]["tracked"] = frozenset(
            {"_vertices", "_edges", "_reverse"}
        )
        findings = check(TREE, rule="stale-contract")
        assert [f.message.split(":")[0] for f in findings] == [
            "stale VERSIONED_CLASSES entry MarkovModel._reverse"
        ]

    def test_a_tree_without_the_registry_is_not_judged(self, check, registries):
        """Scanning a loose file says nothing about the package's contracts."""
        registries.PROTECTED_CACHES["_walk_tables"] = ("PathEstimator", "walk_record()")
        tree = {name: body for name, body in TREE.items() if name != REGISTRY}
        assert check(tree, rule="stale-contract") == []

    def test_strict_cli_fails_on_a_dangling_entry(self, registries, capsys):
        """The shipped package is clean; the same scan with one dangling
        entry in the registry exits non-zero."""
        from pathlib import Path

        import repro
        from repro.cli import main

        package = str(Path(repro.__file__).resolve().parent)
        registries.PROTECTED_CACHES["_walk_tables"] = ("PathEstimator", "walk_record()")
        assert main(["analyze", package, "--strict", "--rule", "stale-contract"]) == 1
        assert "stale PROTECTED_CACHES entry PathEstimator._walk_tables" in (
            capsys.readouterr().out
        )
