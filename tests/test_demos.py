"""Every demo script, and the README's "Library in one minute" block, runs
to completion against the library in ``src/``, so a renamed or deleted
public name cannot break a demo or leave the README stale unnoticed."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import radiolab as rl

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(args, cwd):
    src = str(Path(rl.__file__).resolve().parent.parent)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, cwd=cwd,
    )


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    proc = run_python([str(demo)], demo.parent)
    assert proc.returncode == 0, proc.stderr


def test_readme_library_block_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library in one minute\n+```python\n(.*?)```", readme, re.S)
    assert block is not None, "README has no 'Library in one minute' python block"
    proc = run_python(["-c", block.group(1)], tmp_path)
    assert proc.returncode == 0, proc.stderr
