"""Every demo runs to completion on the public API."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SLOW = {"05_density_analysis.py"}  # 7-11 s on a 2-core desk machine; the others take under 1 s


@pytest.mark.parametrize(
    "demo",
    [
        pytest.param(demo, id=demo.stem, marks=[pytest.mark.slow] if demo.name in SLOW else [])
        for demo in sorted((ROOT / "demos").glob("*.py"))
    ],
)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_start_runs(tmp_path):
    # the library quick start in README.md runs as written, so no removed
    # name can linger in it
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", blocks[0]], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
