"""AST-based invariant analyzer for the repro codebase.

``repro analyze`` enforces two contracts that the byte-equivalence suites
only see in code they run: determinism (no hidden clocks or entropy, no
set order leaking into ordered output) and the Markov-model version-bump
contract.  See :mod:`repro.analysis.contracts` for the registries the
rules read and :mod:`repro.analysis.rules` for the rules.
"""

from .core import (
    AnalysisError,
    AnalysisReport,
    Finding,
    ModuleInfo,
    Rule,
    collect_files,
    run_analysis,
)
from .rules import RULE_CLASSES, all_rules

__all__ = [
    "AnalysisError",
    "AnalysisReport",
    "Finding",
    "ModuleInfo",
    "Rule",
    "RULE_CLASSES",
    "all_rules",
    "collect_files",
    "run_analysis",
]
