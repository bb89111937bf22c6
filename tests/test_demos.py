"""Smoke test: every narrative script in ``demos/`` runs to completion.

Each demo runs as its own process in a fresh working directory, with the
``rydphon`` package under test first on its import path.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import rydphon

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))
SRC = str(Path(rydphon.__file__).resolve().parent.parent)


def test_demos_are_found():
    assert len(DEMOS) >= 7


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
