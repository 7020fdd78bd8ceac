"""Positive/negative fixtures for the ``serialization`` rule."""

from __future__ import annotations


class TestFromDictPresence:
    def test_missing_from_dict_flagged(self, check):
        findings = check({"mod.py": """
            class Snapshot:
                def to_dict(self):
                    return {"state": 1}
        """}, rule="serialization")
        assert len(findings) == 1
        assert "no from_dict" in findings[0].message

    def test_paired_methods_allowed(self, check):
        findings = check({"mod.py": """
            class Snapshot:
                def to_dict(self):
                    return {"state": self.state}

                @classmethod
                def from_dict(cls, data):
                    return cls(state=data["state"])
        """}, rule="serialization")
        assert findings == []

    def test_inherited_from_dict_allowed(self, check):
        findings = check({"mod.py": """
            class Base:
                @classmethod
                def from_dict(cls, data):
                    return cls(**data)

            class Child(Base):
                def to_dict(self):
                    return {"kind": "child"}
        """}, rule="serialization")
        assert findings == []

    def test_cross_module_base_resolution(self, check):
        findings = check({
            "base.py": """
                class Base:
                    @classmethod
                    def from_dict(cls, data):
                        return cls(**data)
            """,
            "child.py": """
                from .base import Base

                class Child(Base):
                    def to_dict(self):
                        return {"kind": "child"}
            """,
        }, rule="serialization")
        assert findings == []


class TestKeyParity:
    def test_serialized_but_not_restored_flagged(self, check):
        findings = check({"mod.py": """
            class Snapshot:
                def to_dict(self):
                    return {"state": self.state, "extra": self.extra}

                @classmethod
                def from_dict(cls, data):
                    return cls(state=data["state"])
        """}, rule="serialization")
        assert len(findings) == 1
        assert "'extra'" in findings[0].message

    def test_restored_but_never_serialized_flagged(self, check):
        findings = check({"mod.py": """
            class Snapshot:
                def to_dict(self):
                    return {"state": self.state}

                @classmethod
                def from_dict(cls, data):
                    return cls(state=data["state"], extra=data["extra"])
        """}, rule="serialization")
        assert len(findings) == 1
        assert "'extra'" in findings[0].message

    def test_dynamic_from_dict_skips_parity(self, check):
        findings = check({"mod.py": """
            class Snapshot:
                def to_dict(self):
                    return {"state": self.state, "extra": self.extra}

                @classmethod
                def from_dict(cls, data):
                    return cls(**{k: v for k, v in data.items()})
        """}, rule="serialization")
        assert findings == []

    def test_derived_key_exempt(self, check):
        findings = check({"mod.py": """
            class Snapshot:
                def to_dict(self):
                    return {"state": self.state, "derived": self.recompute()}

                @classmethod
                def from_dict(cls, data):
                    return cls(state=data["state"])
        """}, rule="serialization")
        assert findings == []

    def test_abstract_to_dict_skips_parity(self, check):
        findings = check({"mod.py": """
            import abc

            class Base(abc.ABC):
                @abc.abstractmethod
                def to_dict(self):
                    '''Subclasses serialize themselves.'''

                @staticmethod
                def from_dict(data):
                    return _KINDS[data["kind"]](data)
        """}, rule="serialization")
        assert findings == []

    def test_subscript_write_keys_counted(self, check):
        findings = check({"mod.py": """
            class Snapshot:
                def to_dict(self):
                    out = {"state": self.state}
                    out["extra"] = self.extra
                    return out

                @classmethod
                def from_dict(cls, data):
                    return cls(state=data["state"], extra=data.get("extra"))
        """}, rule="serialization")
        assert findings == []


class TestSchemaDerivedToDict:
    """A ``to_dict`` derived from the field table: ``from_dict`` is still
    required, key parity is structural and not compared."""

    def test_class_body_assignment_without_from_dict_flagged(self, check):
        findings = check({"mod.py": """
            from repro import schema

            class Limits:
                to_dict = schema.to_dict
        """}, rule="serialization")
        assert len(findings) == 1
        assert "no from_dict" in findings[0].message

    def test_class_body_assignment_with_from_dict_allowed(self, check):
        findings = check({"mod.py": """
            from repro import schema

            class Limits:
                to_dict = schema.to_dict

                @classmethod
                def from_dict(cls, data):
                    return schema.from_dict(cls, data, ValueError, "limits")
        """}, rule="serialization")
        assert findings == []

    def test_method_over_schema_to_dict_skips_parity(self, check):
        # The literal ``policy`` key is written on top of the derived dict;
        # from_dict never mentions it, and that is not a finding.
        findings = check({"mod.py": """
            from repro import schema

            class Spec:
                def to_dict(self):
                    out = schema.to_dict(self)
                    out["policy"] = self.policy.name
                    return out

                @classmethod
                def from_dict(cls, data):
                    return schema.from_dict(cls, data, ValueError)
        """}, rule="serialization")
        assert findings == []

    def test_method_over_schema_to_dict_still_needs_from_dict(self, check):
        findings = check({"mod.py": """
            from repro import schema

            class Spec:
                def to_dict(self):
                    return {"kind": "spec", **schema.to_dict(self)}
        """}, rule="serialization")
        assert len(findings) == 1
        assert "no from_dict" in findings[0].message

    def test_unrelated_to_dict_assignment_is_not_a_to_dict(self, check):
        findings = check({"mod.py": """
            class Spec:
                to_dict = None
        """}, rule="serialization")
        assert findings == []
