"""The analyzer's rules: each is a :class:`~repro.analysis.core.Rule`
subclass in this package, listed in :data:`RULE_CLASSES`."""

from __future__ import annotations

from ..core import Rule
from .determinism import DeterminismRule

RULE_CLASSES: tuple[type[Rule], ...] = (DeterminismRule,)


def all_rules() -> list[Rule]:
    return [cls() for cls in RULE_CLASSES]


__all__ = ["RULE_CLASSES", "all_rules", "DeterminismRule"]
