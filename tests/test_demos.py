"""Smoke tests for the demos and the package's public names.

Each demo runs as a separate process with small arguments and must exit 0;
the demos import package internals, so a renamed or removed name shows here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import mtdsim

ROOT = Path(__file__).resolve().parent.parent
DEMOS = {
    "planner_vs_exact.py": [],
    "regret_linearity.py": ["--runs", "50"],
    "web_evolving_comparison.py": ["--iterations", "1"],
    "network_node_shutdown.py": ["--iterations", "1"],
}


def test_every_demo_is_smoke_tested():
    assert sorted(DEMOS) == sorted(p.name for p in (ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", sorted(DEMOS))
def test_demo_runs(demo):
    src = str(ROOT / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo), *DEMOS[demo]],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_public_names_resolve():
    missing = [name for name in mtdsim.__all__ if not hasattr(mtdsim, name)]
    assert missing == []
