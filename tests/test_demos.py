"""The quick demos run to completion against the current library, and
the package's public names match what it exports and what the README uses.

Demos 03 and 07 train and stream for 13-17 s each and stay out of the
suite to keep its wall time down.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import primcount

ROOT = Path(__file__).resolve().parents[1]
QUICK_DEMOS = [
    "01_synthesize_dataset.py",
    "02_windows_and_targets.py",
    "04_count_primitives.py",
    "05_alignment_metrics.py",
    "06_pointwise_baseline.py",
]


@pytest.mark.parametrize("demo", QUICK_DEMOS)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_public_imports_match_all():
    tree = ast.parse((ROOT / "src" / "primcount" / "__init__.py").read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    public = {name for name in imported if not name.startswith("_")}
    assert public | {"__version__"} == set(primcount.__all__)


def test_readme_imports_are_exported():
    block = re.search(r"from primcount import \(([^)]*)\)", (ROOT / "README.md").read_text())
    assert block, "README has no `from primcount import (...)` block"
    names = {n.strip() for n in block.group(1).split(",")} - {""}
    assert names <= set(primcount.__all__)
