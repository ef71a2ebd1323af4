"""The demo scripts run to completion against the package in src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# every demo; limiting_scheme_mc, the Monte Carlo one, takes about 10 s on 2 cores
FAST_DEMOS = [
    "ap_commutation",
    "averaging_limit",
    "invariant_preservation",
    "limiting_scheme_mc",
    "uniform_accuracy_sweep",
    "weak_error_orders",
]


@pytest.mark.parametrize("name", FAST_DEMOS)
def test_demo_exits_0(name):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py")],
                          env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
