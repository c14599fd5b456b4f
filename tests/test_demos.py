"""Each demo runs to completion in its own process and exits 0."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ("adaptive_compression", "prepare_inputs", "progressive_encoding")


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_zero(demo):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH"))
                           if p)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{demo}.py")],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
