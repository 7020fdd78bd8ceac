"""No two test files share a basename.

``tests/`` and ``benchmarks/`` hold no ``__init__.py``, and pytest's default
``prepend`` import mode imports each test file as a top-level module named
after its basename.  Two ``test_*.py`` files with one basename in different
directories therefore stop collection of the whole suite ("import file
mismatch": one error, no test run).  This check names the clashing files;
it reads ``benchmarks/e2e/tests`` like every other directory and writes
nothing.
"""

from __future__ import annotations

from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEARCHED = (ROOT / "tests", ROOT / "benchmarks")


def clashing_basenames(roots=SEARCHED) -> dict[str, list[str]]:
    """Every ``test_*.py`` basename found more than once under ``roots``,
    with the paths that carry it (relative to the first root's parent)."""
    base = roots[0].parent
    paths_by_name: dict[str, list[str]] = defaultdict(list)
    for root in roots:
        for path in sorted(root.rglob("test_*.py")):
            paths_by_name[path.name].append(str(path.relative_to(base)))
    return {name: paths for name, paths in paths_by_name.items() if len(paths) > 1}


def test_no_two_test_files_share_a_basename():
    assert clashing_basenames() == {}


def test_a_planted_twin_is_named(tmp_path):
    for directory in ("tests/mapping", "tests/markov", "benchmarks/e2e/tests"):
        (tmp_path / directory).mkdir(parents=True)
    (tmp_path / "tests/mapping/test_build_cost.py").write_text("")
    (tmp_path / "tests/markov/test_build_cost.py").write_text("")
    (tmp_path / "benchmarks/e2e/tests/test_e2e_schema.py").write_text("")
    roots = (tmp_path / "tests", tmp_path / "benchmarks")
    assert clashing_basenames(roots) == {
        "test_build_cost.py": [
            "tests/mapping/test_build_cost.py", "tests/markov/test_build_cost.py",
        ],
    }
