"""Smoke tests: the example scripts run end to end against the public API."""

import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# A tree for bench.py --against whose exact_path moves every step's value.
OTHER_PATHS = """\
import pathlens

globals().update({k: v for k, v in vars(pathlens).items() if not k.startswith("__")})


def exact_path(stats, base, config):
    path = pathlens.exact_path(stats, base, config)
    return pathlens.CoordinatePath(path.base, [(i, v + 1.0) for i, v in path.steps])
"""


def run_script(argv, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


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
        ["bench.py", "--rows", "50", "--against", str(ROOT)],
        ["bench.py", "--topic", "tradeoff", "--K", "4", "--K-max", "2", "--against", str(ROOT)],
        ["bench.py", "--topic", "local", "--against", str(ROOT)],
        ["bench.py", "--topic", "heuristic", "--K", "4", "--against", str(ROOT)],
        ["bench.py", "--topic", "pinned", "--K", "6", "--K-max", "5", "--against", str(ROOT)],
        ["bench.py", "--topic", "cli", "--K-max", "2", "--against", str(ROOT)],
    ],
    ids=["toy_tradeoff", "bench", "bench_tradeoff", "bench_local", "bench_heuristic",
         "bench_pinned", "bench_direct", "bench_direct_against", "bench_against",
         "bench_tradeoff_against", "bench_local_against", "bench_heuristic_against",
         "bench_pinned_against", "bench_cli_against"],
)
def test_script_runs(argv, tmp_path):
    proc = run_script(argv, tmp_path)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["--topic", "tradeoff", "--K", "4", "--K-max", "2"],
        ["--topic", "heuristic", "--K", "4"],
        ["--topic", "pinned", "--K", "6", "--K-max", "5"],
        ["--topic", "direct", "--K", "3", "--K-max", "2"],
    ],
    ids=["tradeoff", "heuristic", "pinned", "direct"],
)
def test_bench_refuses_another_path(argv, tmp_path):
    tree = tmp_path / "tree"
    (tree / "src" / "pathlens").mkdir(parents=True)
    (tree / "src" / "pathlens" / "__init__.py").write_text(OTHER_PATHS, encoding="utf-8")
    proc = run_script(["bench.py", *argv, "--against", str(tree)], tmp_path)
    assert proc.returncode != 0
    assert "exact_path, " in proc.stderr and "found" in proc.stderr, proc.stderr
    assert not list(tmp_path.glob("BENCH_*.json"))


def test_bench_cli_records_peak_rss(tmp_path):
    # Each cli row records its subprocess's peak RSS; pareto at K = 10^6 is
    # over the budget, so it exits 3 and writes no artifact.
    proc = run_script(["bench.py", "--topic", "cli", "--K-max", "2"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "BENCH_cli.json").read_text(encoding="utf-8"))
    records = {(r["instance"]["layer"], r["instance"]["K"]): r for r in report["instances"]}
    assert list(records) == [("pathlens pareto", 2), ("pathlens pareto", 10**6),
                             ("pathlens path exact", 6)]
    assert all(0 < r["peak_rss_mb"] < 1e4 for r in records.values())
    assert [r["exit"] for r in records.values()] == [0, 3, 0]
    empty = hashlib.sha256(b"").hexdigest()
    assert records["pathlens pareto", 10**6]["artifacts_sha256"] == [empty, empty]
    assert empty not in records["pathlens pareto", 2]["artifacts_sha256"]
    assert "peak RSS" in proc.stdout


def test_bench_direct_rejects_k1(tmp_path):
    # At K = 1 the direct topic's zero-first schedule would be all zeros.
    proc = run_script(["bench.py", "--topic", "direct", "--K", "1"], tmp_path)
    assert proc.returncode == 2
    assert "--K and --K-max must be at least 2" in proc.stderr
    assert not list(tmp_path.glob("BENCH_*.json"))


def test_bench_against_records_ratio_p50(tmp_path):
    # ratio_p50 is the median over rounds of this tree's run over the other
    # tree's run of the same round, and it is the ratio the script prints.
    proc = run_script(["bench.py", "--rows", "50", "--against", str(ROOT)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "BENCH_ingestion.json").read_text(encoding="utf-8"))
    for record in report["instances"]:
        ratio = statistics.median(a / b for a, b in zip(record["runs_s"],
                                                         record["against_runs_s"]))
        assert record["ratio_p50"] == ratio
        assert f"(ratio p50 {ratio:.2f}x)" in proc.stdout


def test_bench_tradeoff_records_solved_rows(tmp_path):
    # Each sweep row records its front's digest and how many of its
    # (lambda, K) rows reached the exact search, for both trees; the kernel
    # row records its objective bits, pattern and broken flag, which both
    # trees must match for the script to write.
    proc = run_script(["bench.py", "--topic", "tradeoff", "--K", "3", "--K-max", "3",
                       "--against", str(ROOT)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "BENCH_tradeoff.json").read_text(encoding="utf-8"))
    sweeps = [r for r in report["instances"] if r["instance"]["layer"] == "sweep"]
    assert [r["instance"]["workers"] for r in sweeps] == [1, 2]
    for record in sweeps:
        assert record["rows"] == record["against_rows"] == 61 * 3
        assert 0 < record["rows_solved"] == record["against_rows_solved"] < record["rows"]
        assert len(record["front_sha256"]) == 64
    assert sweeps[0]["front_sha256"] == sweeps[1]["front_sha256"]
    (kernel,) = [r for r in report["instances"] if r["instance"]["layer"] == "_enum_fast"]
    (objective,), (pattern,), (broken,) = kernel["objective"], kernel["pattern"], kernel["broken"]
    assert repr(float(objective)) == objective and float(objective) > 0
    assert len(pattern) == 3 and set(pattern) <= set(range(6)) and broken is False


def test_bench_pinned_records_kernel_outcome(tmp_path):
    # The pinned topic's kernel row records the pinned _enum_fast's objective
    # bits, pattern and broken flag. At K = d the fit, which changes every
    # coordinate, is reached only by changing each coordinate once.
    proc = run_script(["bench.py", "--topic", "pinned", "--K", "6", "--K-max", "5",
                       "--against", str(ROOT)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "BENCH_pinned.json").read_text(encoding="utf-8"))
    (kernel,) = [r for r in report["instances"] if r["instance"]["layer"] == "_enum_fast"]
    assert kernel["instance"]["d"] == kernel["instance"]["K"] == 6
    (objective,), (pattern,), (broken,) = kernel["objective"], kernel["pattern"], kernel["broken"]
    assert repr(float(objective)) == objective and float(objective) > 0
    assert sorted(pattern) == list(range(6)) and broken is False
    assert "ratio_p50" in kernel
    # exact_path pinned at K = d = 5 and 7, where each coordinate changes once.
    subsets = [r for r in report["instances"] if r["instance"]["layer"] == "exact_path"
               and r["instance"]["K"] == r["instance"]["d"]]
    assert [r["instance"]["d"] for r in subsets] == [6, 5, 7]
    for record in subsets:
        d = record["instance"]["d"]
        assert sorted(i for i, _ in record["steps"]) == list(range(d)) and record["loss"] > 0
        assert "ratio_p50" in record


def test_bench_local_rows_carry_their_schedules(tmp_path):
    # Each local row records its own schedule; the last two put weight on
    # the first and last models only, one free and one pinned to the fit.
    proc = run_script(["bench.py", "--topic", "local"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "BENCH_local.json").read_text(encoding="utf-8"))
    rows = [r["instance"] for r in report["instances"]]
    assert {r["schedule"] for r in rows[:-2]} == {"geometric(gamma=1)"}
    assert [(r["schedule"], r["endpoint"]) for r in rows[-2:]] == [
        ("explicit(1,0,0,0,0,0,0,0,1)", "free"), ("explicit(1,0,0,0,0,1)", "ols")]
