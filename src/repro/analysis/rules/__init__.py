"""Rule registry for :mod:`repro.analysis`.

Rules register themselves here; :func:`all_rules` instantiates the full
set and :func:`rules_by_id` resolves a ``--rule`` selection.  Adding a
rule is: write a :class:`~repro.analysis.core.Rule` subclass in this
package, append it to :data:`RULE_CLASSES`.
"""

from __future__ import annotations

from ..core import AnalysisError, Rule
from .determinism import DeterminismRule
from .invalidation import CachePokeRule
from .serialization import SerializationRule
from .stale_contract import StaleContractRule
from .versioning import VersionBumpRule

RULE_CLASSES: tuple[type[Rule], ...] = (
    DeterminismRule,
    VersionBumpRule,
    CachePokeRule,
    SerializationRule,
    StaleContractRule,
)


def all_rules() -> list[Rule]:
    return [cls() for cls in RULE_CLASSES]


def rules_by_id(ids: list[str] | None = None) -> list[Rule]:
    """Instantiate the selected rules (all when ``ids`` is falsy)."""
    if not ids:
        return all_rules()
    known = {cls.id: cls for cls in RULE_CLASSES}
    selected: list[Rule] = []
    for rule_id in ids:
        cls = known.get(rule_id)
        if cls is None:
            raise AnalysisError(
                f"unknown rule '{rule_id}' (known: {', '.join(sorted(known))})"
            )
        selected.append(cls())
    return selected


__all__ = [
    "RULE_CLASSES",
    "all_rules",
    "rules_by_id",
    "DeterminismRule",
    "VersionBumpRule",
    "CachePokeRule",
    "SerializationRule",
    "StaleContractRule",
]
