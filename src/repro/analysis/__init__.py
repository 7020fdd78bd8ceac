"""AST-based invariant analyzer for the repro codebase.

``repro analyze`` enforces a contract that the byte-equivalence suites only
see in code they run: determinism (no hidden clocks or entropy, no set
order leaking into ordered output).  See :mod:`repro.analysis.contracts`
for the registries the rule reads and :mod:`repro.analysis.rules` for the
rule.
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
