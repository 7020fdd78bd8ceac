"""Analyzer core: findings, parsed modules, the rule base and the driver.

The analyzer parses every ``.py`` file under the requested paths once, then
runs each :class:`Rule` over each module.  Every finding is reported; there
is no suppression pragma and no baseline of grandfathered findings — a
finding is fixed, or the rule that raised it is wrong.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from ..errors import ReproError


class AnalysisError(ReproError):
    """Unusable analyzer input (a path that does not exist)."""


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

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: [{self.rule}] {self.symbol}: {self.message}"


# ----------------------------------------------------------------------
# Modules
# ----------------------------------------------------------------------
@dataclass
class ModuleInfo:
    """One parsed source file plus the derived lookups rules share."""

    path: Path
    #: Path shown in findings: posix, relative to the scan root
    #: (``sim/simulator.py`` style).
    display_path: str
    tree: ast.Module
    #: child AST node -> parent (filled once, shared by every rule).
    parents: dict[ast.AST, ast.AST] = field(default_factory=dict)
    #: Dotted module name best-effort (``repro.sim.simulator``) used
    #: to resolve relative imports; empty for loose fixture files.
    dotted: str = ""

    @classmethod
    def parse(cls, path: Path, display_path: str, dotted: str = "") -> "ModuleInfo":
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        info = cls(path=path, display_path=display_path, tree=tree, dotted=dotted)
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                info.parents[child] = parent
        return info

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
        """Local name -> dotted target for every import in the module.

        ``import time`` maps ``time -> time``; ``from time import time``
        maps ``time -> time.time``; relative imports resolve against
        :attr:`dotted` when known.
        """
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


# ----------------------------------------------------------------------
# Rules
# ----------------------------------------------------------------------
class Rule:
    """One named invariant check: subclasses set :attr:`id` and yield
    :class:`Finding` objects from :meth:`check`, once per module."""

    id: str = ""

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        raise NotImplementedError

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
# Driver
# ----------------------------------------------------------------------
@dataclass
class AnalysisReport:
    """Outcome of one analyzer run."""

    findings: list[Finding]
    files_scanned: int
    rules_run: tuple[str, ...]


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
    if "repro" in parts:
        return ".".join(parts[parts.index("repro"):])
    return ""


def run_analysis(paths: Iterable[Path], rules: Iterable[Rule]) -> AnalysisReport:
    """Parse ``paths`` and run ``rules`` over every module."""
    rules = list(rules)
    modules: list[ModuleInfo] = []
    for file, root in collect_files(paths):
        try:
            display = file.relative_to(root).as_posix()
        except ValueError:
            display = file.name
        modules.append(ModuleInfo.parse(file, display, dotted=_dotted_for(file)))
    findings = [
        finding
        for rule in rules
        for module in modules
        for finding in rule.check(module)
    ]
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return AnalysisReport(
        findings=findings,
        files_scanned=len(modules),
        rules_run=tuple(rule.id for rule in rules),
    )
