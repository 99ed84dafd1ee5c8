"""Smoke tests: the example scripts run end to end against the public API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["toy_tradeoff.py"],
        ["heuristic_benchmark.py", "--instances", "1", "--d", "4", "--K", "4", "--T", "10",
         "--patience", "5"],
    ],
    ids=["toy_tradeoff", "heuristic_benchmark"],
)
def test_script_runs(argv, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
