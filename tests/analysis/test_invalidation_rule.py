"""Positive/negative fixtures for the ``cache-poke`` rule."""

from __future__ import annotations


class TestCachePoke:
    def test_poke_from_outside_flagged(self, check):
        findings = check({"mod.py": """
            def flush(cache):
                cache._entries.clear()
        """}, rule="cache-poke")
        assert len(findings) == 1
        assert "EstimateCache" in findings[0].message
        assert "invalidate" in findings[0].message

    def test_contract_method_allowed(self, check):
        findings = check({"mod.py": """
            def flush(cache):
                cache.invalidate()
        """}, rule="cache-poke")
        assert findings == []

    def test_owner_class_allowed(self, check):
        findings = check({"mod.py": """
            class EstimateCache:
                def __init__(self):
                    self._entries = {}

                def invalidate(self):
                    self._entries.clear()

                def merge(self, other):
                    self._entries.update(other._entries)
        """}, rule="cache-poke")
        assert findings == []

    def test_same_named_private_attr_of_other_class_allowed(self, check):
        # HashIndex has its *own* ``_entries``; a name collision is not a
        # poke as long as the class only touches its own attribute.
        findings = check({"mod.py": """
            class HashIndex:
                def __init__(self):
                    self._entries = {}

                def insert(self, key, value):
                    self._entries[key] = value
        """}, rule="cache-poke")
        assert findings == []

    def test_poke_into_foreign_object_from_class_flagged(self, check):
        findings = check({"mod.py": """
            class Scheduler:
                def reset(self, model):
                    model._successor_views.clear()
        """}, rule="cache-poke")
        assert len(findings) == 1
        assert "MarkovModel" in findings[0].message

    def test_schedule_cache_poke_flagged(self, check):
        findings = check({"mod.py": """
            def tweak(cost_model):
                cost_model._schedule_cache = {}
        """}, rule="cache-poke")
        assert len(findings) == 1
