"""The examples are the documented callers of the public API: the quick
ones run end to end in a fresh process and exit cleanly."""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script", ["quickstart.py", "custom_framework.py",
                                    "forward_vs_reverse.py"])
def test_example_runs(script, tmp_path):
    env = dict(os.environ, REPRO_CACHE_DIR=str(tmp_path),
               PYTHONPATH=os.pathsep.join(
                   [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, str(ROOT / "examples" / script)],
                          capture_output=True, text=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
