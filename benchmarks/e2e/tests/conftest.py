"""Make the benchmark's modules importable by their file names.

Appended, not prepended: this directory has a ``tests`` child, and ahead of
the repository root it would shadow the repository's own ``tests`` package.
"""

import sys
from pathlib import Path

E2E_DIR = Path(__file__).resolve().parents[1]
for path in (E2E_DIR.parents[1] / "src", E2E_DIR):
    if str(path) not in sys.path:
        sys.path.append(str(path))
