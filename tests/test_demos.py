"""Smoke test: every narrative script in ``demos/``, and the README's
library quickstart, runs to completion.

Each script runs as its own process in a fresh working directory, with the
``rydphon`` package under test first on its import path.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import rydphon

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = ROOT / "README.md"
SRC = str(Path(rydphon.__file__).resolve().parent.parent)


def test_demos_are_found():
    assert len(DEMOS) >= 7


@pytest.mark.parametrize("demo", [*DEMOS, README], ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    if demo == README:  # its python block; it writes model.json, so it runs from tmp_path
        demo = tmp_path / "quickstart.py"
        demo.write_text(re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
