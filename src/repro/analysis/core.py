"""Analyzer core: findings, rules, suppression, baseline and the driver.

The analyzer parses every ``.py`` file under the requested paths once,
builds a :class:`ProjectIndex` (modules plus a cross-module class map for
rules that resolve base classes or peer modules), then runs each enabled
:class:`Rule` over each module.  Findings pass through two filters before
they are reported:

* **suppression pragmas** — a ``# repro: allow(<rule>[, <rule>...])``
  comment on the finding's line (or on a comment-only line directly above
  it) silences that rule for that line;
* **the committed baseline** — a JSON file of grandfathered findings
  matched by :meth:`Finding.fingerprint` (rule, path, symbol and message —
  deliberately *not* the line number, so unrelated edits don't churn it).

Everything left is a live finding.  ``--strict`` additionally fails on
stale baseline entries, keeping the grandfather list honest.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from ..errors import ReproError


class AnalysisError(ReproError):
    """Unusable analyzer input (bad path, unknown rule, corrupt baseline)."""


# ----------------------------------------------------------------------
# Findings
# ----------------------------------------------------------------------
@dataclass
class Finding:
    """One rule violation at one site."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    #: Dotted context (``Class.method`` / ``function`` / ``<module>``).
    symbol: str = "<module>"

    def fingerprint(self) -> tuple[str, str, str, str]:
        """Baseline identity: stable across unrelated line drift."""
        return (self.rule, self.path, self.symbol, self.message)

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: [{self.rule}] {self.symbol}: {self.message}"

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "symbol": self.symbol,
            "message": self.message,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Finding":
        return cls(
            rule=data["rule"],
            path=data["path"],
            line=int(data.get("line", 0)),
            col=int(data.get("col", 0)),
            symbol=data.get("symbol", "<module>"),
            message=data["message"],
        )


# ----------------------------------------------------------------------
# Modules and the project index
# ----------------------------------------------------------------------
_PRAGMA = re.compile(r"#\s*repro:\s*allow\(\s*([^)]*?)\s*\)")


@dataclass
class ModuleInfo:
    """One parsed source file plus the derived lookups rules share."""

    path: Path
    #: Path shown in findings and used by baselines/suppressions: posix,
    #: relative to the scan root (``sim/simulator.py`` style).
    display_path: str
    source: str
    tree: ast.Module
    #: line number -> set of rule ids allowed on that line.
    suppressions: dict[int, set[str]] = field(default_factory=dict)
    #: child AST node -> parent (filled once, shared by every rule).
    parents: dict[ast.AST, ast.AST] = field(default_factory=dict)
    #: Dotted module name best-effort (``repro.sim.simulator``) used
    #: to resolve relative imports; empty for loose fixture files.
    dotted: str = ""

    @classmethod
    def parse(cls, path: Path, display_path: str, dotted: str = "") -> "ModuleInfo":
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
        info = cls(
            path=path, display_path=display_path, source=source,
            tree=tree, dotted=dotted,
        )
        info._collect_suppressions()
        info._collect_parents()
        return info

    def _collect_suppressions(self) -> None:
        lines = self.source.splitlines()
        pragma_lines: dict[int, set[str]] = {}
        for number, text in enumerate(lines, start=1):
            match = _PRAGMA.search(text)
            if not match:
                continue
            rules = {part.strip() for part in match.group(1).split(",") if part.strip()}
            pragma_lines[number] = rules
            # A comment-only pragma line covers the statement below it.
            if text.strip().startswith("#"):
                pragma_lines.setdefault(number + 1, set()).update(rules)
        self.suppressions = pragma_lines

    def _collect_parents(self) -> None:
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                self.parents[child] = parent

    # ------------------------------------------------------------------
    def suppressed(self, rule: str, line: int) -> bool:
        return rule in self.suppressions.get(line, ())

    def enclosing_class(self, node: ast.AST) -> ast.ClassDef | None:
        current = self.parents.get(node)
        while current is not None:
            if isinstance(current, ast.ClassDef):
                return current
            current = self.parents.get(current)
        return None

    def symbol_for(self, node: ast.AST) -> str:
        """``Class.method`` / ``Class`` / ``function`` / ``<module>``."""
        parts: list[str] = []
        current: ast.AST | None = node
        while current is not None:
            if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                parts.append(current.name)
            current = self.parents.get(current)
        if not parts:
            return "<module>"
        return ".".join(reversed(parts))

    def import_map(self) -> dict[str, str]:
        """Local name -> dotted target for every top-level-ish import.

        ``import time`` maps ``time -> time``; ``from time import time``
        maps ``time -> time.time``; relative imports resolve against
        :attr:`dotted` when known.  Cached on first use.
        """
        cached = getattr(self, "_import_map", None)
        if cached is not None:
            return cached
        mapping: dict[str, str] = {}
        package_parts = self.dotted.split(".")[:-1] if self.dotted else []
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    mapping[local] = target
            elif isinstance(node, ast.ImportFrom):
                base = self._resolve_from(node, package_parts)
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    mapping[local] = f"{base}.{alias.name}" if base else alias.name
        self._import_map = mapping
        return mapping

    @staticmethod
    def _resolve_from(node: ast.ImportFrom, package_parts: list[str]) -> str:
        if node.level == 0:
            return node.module or ""
        if not package_parts:
            # Loose file: keep the relative module tail for matching.
            return node.module or ""
        base_parts = package_parts[: len(package_parts) - (node.level - 1)]
        if node.module:
            base_parts = base_parts + node.module.split(".")
        return ".".join(base_parts)

    def resolved_imports(self) -> list[tuple[str, ast.AST]]:
        """``(dotted module, import node)`` pairs (absolute, best-effort)."""
        out: list[tuple[str, ast.AST]] = []
        package_parts = self.dotted.split(".")[:-1] if self.dotted else []
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                out.extend((alias.name, node) for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                base = self._resolve_from(node, package_parts)
                if base:
                    out.append((base, node))
                    out.extend((f"{base}.{alias.name}", node) for alias in node.names)
                else:
                    out.extend((alias.name, node) for alias in node.names)
        return out


@dataclass
class ClassInfo:
    """Cross-module class record for base-class resolution."""

    name: str
    module: ModuleInfo
    node: ast.ClassDef
    base_names: tuple[str, ...]

    def methods(self) -> dict[str, ast.FunctionDef]:
        return {
            item.name: item
            for item in self.node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        }


class ProjectIndex:
    """Every parsed module plus a name -> class map for cross-file rules."""

    def __init__(self, modules: list[ModuleInfo]) -> None:
        self.modules = modules
        self.classes: dict[str, ClassInfo] = {}
        for module in modules:
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ClassDef):
                    bases = tuple(
                        base.id if isinstance(base, ast.Name)
                        else base.attr if isinstance(base, ast.Attribute)
                        else ""
                        for base in node.bases
                    )
                    # First definition wins; duplicate class names across
                    # modules are rare and only soften the lookup.
                    self.classes.setdefault(
                        node.name, ClassInfo(node.name, module, node, bases)
                    )

    def class_defines(self, class_name: str, method: str, _seen: set[str] | None = None) -> bool:
        """Whether ``class_name`` or any resolvable ancestor defines ``method``."""
        seen = _seen if _seen is not None else set()
        if class_name in seen:
            return False
        seen.add(class_name)
        info = self.classes.get(class_name)
        if info is None:
            return False
        if method in info.methods():
            return True
        return any(
            base and self.class_defines(base, method, seen)
            for base in info.base_names
        )


# ----------------------------------------------------------------------
# Rules
# ----------------------------------------------------------------------
class Rule:
    """One named invariant check.

    Subclasses set :attr:`id` / :attr:`summary` and implement
    :meth:`check` (per module) and/or :meth:`check_project` (once, for
    cross-module contracts).  Yield :class:`Finding` objects; suppression
    and baseline filtering happen in the driver.
    """

    id: str = ""
    summary: str = ""

    def check(self, module: ModuleInfo, project: ProjectIndex) -> Iterator[Finding]:
        return iter(())

    def check_project(self, project: ProjectIndex) -> Iterator[Finding]:
        return iter(())

    # Helper shared by subclasses.
    def finding(self, module: ModuleInfo, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule=self.id,
            path=module.display_path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            message=message,
            symbol=module.symbol_for(node),
        )


# ----------------------------------------------------------------------
# Baseline
# ----------------------------------------------------------------------
BASELINE_VERSION = 1


def load_baseline(path: Path) -> list[Finding]:
    """Read a committed baseline file; an absent file is an empty baseline."""
    if not path.exists():
        return []
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(data, dict) or "findings" not in data:
            raise ValueError("baseline must be an object with a 'findings' list")
        return [Finding.from_dict(entry) for entry in data["findings"]]
    except (ValueError, KeyError, TypeError) as error:
        raise AnalysisError(f"unreadable baseline {path}: {error}") from error


def save_baseline(path: Path, findings: Iterable[Finding]) -> None:
    ordered = sorted(findings, key=lambda f: (f.path, f.rule, f.line))
    document = {
        "version": BASELINE_VERSION,
        "findings": [
            {"rule": f.rule, "path": f.path, "symbol": f.symbol, "message": f.message}
            for f in ordered
        ],
    }
    path.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
@dataclass
class AnalysisReport:
    """Outcome of one analyzer run (already suppression/baseline filtered)."""

    findings: list[Finding]
    suppressed: list[Finding]
    baselined: list[Finding]
    #: Baseline entries that matched nothing — stale grandfathers.
    stale_baseline: list[Finding]
    files_scanned: int
    rules_run: tuple[str, ...]

    def clean(self, *, strict: bool = False) -> bool:
        if self.findings:
            return False
        if strict and self.stale_baseline:
            return False
        return True

    def to_dict(self) -> dict:
        return {
            "version": BASELINE_VERSION,
            "files_scanned": self.files_scanned,
            "rules": list(self.rules_run),
            "findings": [f.to_dict() for f in self.findings],
            "suppressed": [f.to_dict() for f in self.suppressed],
            "baselined": [f.to_dict() for f in self.baselined],
            "stale_baseline": [f.to_dict() for f in self.stale_baseline],
            "summary": {
                "findings": len(self.findings),
                "suppressed": len(self.suppressed),
                "baselined": len(self.baselined),
                "stale_baseline": len(self.stale_baseline),
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AnalysisReport":
        return cls(
            findings=[Finding.from_dict(f) for f in data.get("findings", [])],
            suppressed=[Finding.from_dict(f) for f in data.get("suppressed", [])],
            baselined=[Finding.from_dict(f) for f in data.get("baselined", [])],
            stale_baseline=[Finding.from_dict(f) for f in data.get("stale_baseline", [])],
            files_scanned=int(data.get("files_scanned", 0)),
            rules_run=tuple(data.get("rules", ())),
        )


def collect_files(paths: Iterable[Path]) -> list[tuple[Path, Path]]:
    """Expand files/directories to ``(file, scan_root)`` pairs."""
    out: list[tuple[Path, Path]] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for file in sorted(path.rglob("*.py")):
                out.append((file, path))
        elif path.is_file():
            out.append((path, path.parent))
        else:
            raise AnalysisError(f"no such file or directory: {path}")
    return out


def _dotted_for(file: Path) -> str:
    """Best-effort dotted module name (looks for a ``repro`` ancestor)."""
    parts = file.with_suffix("").parts
    for anchor in ("repro",):
        if anchor in parts:
            index = parts.index(anchor)
            return ".".join(parts[index:])
    return ""


def run_analysis(
    paths: Iterable[Path],
    rules: Iterable[Rule],
    *,
    baseline: Iterable[Finding] = (),
) -> AnalysisReport:
    """Parse ``paths``, run ``rules``, filter suppressions and baseline."""
    rules = list(rules)
    modules: list[ModuleInfo] = []
    for file, root in collect_files(paths):
        try:
            display = file.relative_to(root).as_posix()
        except ValueError:
            display = file.name
        modules.append(ModuleInfo.parse(file, display, dotted=_dotted_for(file)))
    project = ProjectIndex(modules)

    raw: list[Finding] = []
    for rule in rules:
        for module in modules:
            raw.extend(rule.check(module, project))
        raw.extend(rule.check_project(project))
    raw.sort(key=lambda f: (f.path, f.line, f.col, f.rule))

    by_display = {module.display_path: module for module in modules}
    live: list[Finding] = []
    suppressed: list[Finding] = []
    for finding in raw:
        module = by_display.get(finding.path)
        if module is not None and module.suppressed(finding.rule, finding.line):
            suppressed.append(finding)
        else:
            live.append(finding)

    baseline_prints = {entry.fingerprint() for entry in baseline}
    matched_prints: set[tuple[str, str, str, str]] = set()
    findings: list[Finding] = []
    baselined: list[Finding] = []
    for finding in live:
        print_ = finding.fingerprint()
        if print_ in baseline_prints:
            matched_prints.add(print_)
            baselined.append(finding)
        else:
            findings.append(finding)
    stale = [
        entry for entry in baseline if entry.fingerprint() not in matched_prints
    ]
    return AnalysisReport(
        findings=findings,
        suppressed=suppressed,
        baselined=baselined,
        stale_baseline=stale,
        files_scanned=len(modules),
        rules_run=tuple(rule.id for rule in rules),
    )
