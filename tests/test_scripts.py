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
        ["bench.py", "--rows", "50"],
        ["bench.py", "--topic", "tradeoff", "--K", "4", "--K-max", "2"],
        ["bench.py", "--topic", "local"],
        ["bench.py", "--topic", "heuristic", "--K", "4"],
        ["bench.py", "--topic", "pinned", "--K", "6", "--K-max", "5"],
        ["bench.py", "--topic", "direct", "--K", "4", "--K-max", "3"],
        ["bench.py", "--topic", "direct", "--K", "3", "--K-max", "2", "--against", str(ROOT)],
    ],
    ids=["toy_tradeoff", "bench", "bench_tradeoff", "bench_local", "bench_heuristic",
         "bench_pinned", "bench_direct", "bench_direct_against"],
)
def test_script_runs(argv, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
