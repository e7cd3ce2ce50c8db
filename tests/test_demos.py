"""Every demo script runs to completion against the current package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# Lines a demo must print; H(0.85, 0.15) = 0.6098 and H(0.55, 0.45) = 0.9928.
EXPECTED = {"02_exponent_curves.py": "rates in (0.6098, 0.9928) are workable"}


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(path)], capture_output=True, text=True,
        env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert EXPECTED.get(path.name, "") in proc.stdout
