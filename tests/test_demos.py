"""The quick demos run to completion against the current library.

Demos 03 and 07 train and stream for 13-17 s each and stay out of the
suite to keep its wall time down.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

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
