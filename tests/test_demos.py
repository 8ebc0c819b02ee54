"""Run the demo scripts and README's Quick start end to end against this
checkout.

Each demo runs as a subprocess with this checkout's ``src`` first on
``PYTHONPATH`` and must exit 0; together they take a few seconds.  pytest's
``filterwarnings`` does not reach a subprocess, so ``PYTHONWARNINGS`` makes
an overflow or underflow warning there an error, as it is in the tests.
``05_conjecture_scan.py`` is left out: it takes about 5 s, and its path
(``conjecture_scan`` over many small subspaces) is already covered by
acceptance criterion 7; CI runs it as a step of its own.  Its closing line
is checked in process, on 5-trial scans.
"""

import dataclasses
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import framegeo

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ["01_unit_decompositions.py", "02_prescribed_norms.py",
         "03_ellipsoid_bounds.py", "04_volume_bounds.py"]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONWARNINGS"] = "error::RuntimeWarning"
    result = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("candidate", [False, True], ids=["none", "one"])
def test_conjecture_scan_demo_claims_no_candidate_only_when_none_was_found(
        monkeypatch, capsys, candidate):
    # a 5-trial scan stands in for the demo's 2000-trial ones, and one scan is
    # made to report a candidate
    real = framegeo.conjecture_scan

    def scan(n, k, trials, seed):
        found = {"n": n, "k": k} if candidate and (n, k) == (4, 3) else None
        return dataclasses.replace(real(n, k, 5, seed), counterexample=found)

    monkeypatch.setattr(framegeo, "conjecture_scan", scan)
    runpy.run_path(str(ROOT / "demos" / "05_conjecture_scan.py"))
    out = capsys.readouterr().out
    assert ("candidate below the soft bound" in out) == candidate
    assert ("no candidate found" in out) != candidate


def test_readme_quick_start_runs(capsys):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(block, "README.md Quick start", "exec"), namespace)
    report = namespace["report"]
    assert report.proved_ok
    printed = capsys.readouterr().out
    assert str(report.ratios) in printed and str(report.passes) in printed
