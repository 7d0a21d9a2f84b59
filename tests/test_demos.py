import subprocess
import sys
from pathlib import Path

import pytest

from helpers import ENV

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    # a deprecated call anywhere in a demo fails it
    proc = subprocess.run([sys.executable, "-W", "error::DeprecationWarning", str(demo)],
                          capture_output=True, text=True, env=ENV, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_benchmark_reference_counts():
    # perfbench/sanity.py exits 1 unless X -> full:5 has 120 families and
    # 1,500 cone records, Y -> 5 labels into the X lattice 0 and 330, and
    # the latter's expansion within entry bound 6 has 9 matrices
    proc = subprocess.run([sys.executable, "perfbench/sanity.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
