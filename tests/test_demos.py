"""Run the demo scripts end to end against this checkout.

Each demo runs as a subprocess with this checkout's ``src`` first on
``PYTHONPATH`` and must exit 0; together they take a few seconds.
``05_conjecture_scan.py`` is left out: it takes about 5 s, and its path
(``conjecture_scan`` over many small subspaces) is already covered by
acceptance criterion 7; CI runs it as a step of its own.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ["01_unit_decompositions.py", "02_prescribed_norms.py",
         "03_ellipsoid_bounds.py", "04_volume_bounds.py"]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    result = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
