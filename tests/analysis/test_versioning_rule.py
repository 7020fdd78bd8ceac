"""Positive/negative fixtures for the ``version-bump`` rule."""

from __future__ import annotations


class TestVersionedMutations:
    def test_mutation_without_bump_flagged(self, check):
        findings = check({"mod.py": """
            class MarkovModel:
                def __init__(self):
                    self._vertices = {}
                    self.version = 0

                def sneak(self, key, value):
                    self._vertices[key] = value
        """}, rule="version-bump")
        assert len(findings) == 1
        assert "MarkovModel.sneak" in findings[0].message

    def test_direct_bump_allowed(self, check):
        findings = check({"mod.py": """
            class MarkovModel:
                def __init__(self):
                    self._vertices = {}
                    self.version = 0

                def add(self, key, value):
                    self._vertices[key] = value
                    self.version += 1
        """}, rule="version-bump")
        assert findings == []

    def test_transitive_bump_through_helper_allowed(self, check):
        findings = check({"mod.py": """
            class MarkovModel:
                def __init__(self):
                    self._edges = {}
                    self.version = 0

                def _bump(self):
                    self.version += 1

                def add(self, key, value):
                    self._edges[key] = value
                    self._bump()
        """}, rule="version-bump")
        assert findings == []

    def test_alias_mutation_flagged(self, check):
        findings = check({"mod.py": """
            class MarkovModel:
                def __init__(self):
                    self._edges = {}
                    self.version = 0

                def sneak(self, key, value):
                    edges = self._edges
                    edges[key] = value
        """}, rule="version-bump")
        assert len(findings) == 1

    def test_mutating_method_call_flagged(self, check):
        findings = check({"mod.py": """
            class MarkovModel:
                def __init__(self):
                    self._vertices = {}
                    self.version = 0

                def wipe(self):
                    self._vertices.clear()
        """}, rule="version-bump")
        assert len(findings) == 1

    def test_init_exempt(self, check):
        findings = check({"mod.py": """
            class MarkovModel:
                def __init__(self, seed_vertices):
                    self._vertices = {}
                    self._vertices["root"] = seed_vertices
                    self.version = 0
        """}, rule="version-bump")
        assert findings == []

    def test_read_only_access_allowed(self, check):
        findings = check({"mod.py": """
            class MarkovModel:
                def __init__(self):
                    self._vertices = {}
                    self.version = 0

                def get(self, key):
                    return self._vertices[key]
        """}, rule="version-bump")
        assert findings == []

    def test_unregistered_class_ignored(self, check):
        findings = check({"mod.py": """
            class SomethingElse:
                def __init__(self):
                    self._vertices = {}

                def sneak(self, key, value):
                    self._vertices[key] = value
        """}, rule="version-bump")
        assert findings == []
