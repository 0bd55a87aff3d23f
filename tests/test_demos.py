"""Every demo script runs to completion against the library in ``src/``,
so a renamed or deleted public name cannot break a demo unnoticed."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import radiolab as rl

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    src = str(Path(rl.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, cwd=demo.parent,
    )
    assert proc.returncode == 0, proc.stderr
