"""Tests of the benchmark itself: its checks must catch bad outputs, its
span tree must hold together, and a tiny run must emit every metric.

    python3 -m pytest bench
"""

import json
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pathlens as pl  # noqa: E402
import pathlens.cli  # noqa: E402,F401
import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


class TinyExplain(workloads.Explain):
    INSTANCES, K_MAX = 2, 5


class TinySearch(workloads.Search):
    MAIN_K, MAIN_N, ZERO_K, ZERO_N, ILL_N = 4, 1, 3, 1, 2


class TinyFront(workloads.Front):
    ROWS, K = 2000, 3


TINY = {"explain": TinyExplain, "search": TinySearch, "front": TinyFront}


def ready(wl, tmp_path, seed=3):
    wl.setup(pl, seed)
    wl.prepare(tmp_path)
    calls = wl.batch(pl)
    wl.collect(calls)
    return calls


def shifted(path, step=0, by=1e-3):
    steps = list(path.steps)
    i, value = steps[step]
    steps[step] = (i, value + by)
    return pl.CoordinatePath(path.base, tuple(steps))


def test_checks_pass_on_program_output(tmp_path):
    for name in ("explain", "front"):
        wl = TINY[name]()
        calls = ready(wl, tmp_path)
        wl.check(pl, calls)
        assert all(c.error is None and not c.problems for c in calls), name


def test_perturbed_explanation_fails(tmp_path):
    wl = TinyExplain()
    calls = ready(wl, tmp_path)
    calls[0].output = shifted(calls[0].output, step=-1)
    wl.check(pl, calls)
    assert any("endpoint missed" in p for p in calls[0].problems)
    assert not calls[1].problems


def test_perturbed_exact_path_fails(tmp_path):
    wl = TinySearch()
    calls = ready(wl, tmp_path)
    exact = next(c for c in calls if c.slice == "main" and c.op == "exact_path")
    exact.output = shifted(exact.output, step=0)
    wl.check(pl, calls)
    assert any("not stationary" in p for p in exact.problems)


def test_oracle_catches_a_worse_pattern():
    rng = workloads._rng(0, 9, 0)
    inst = workloads.make_instance(pl, rng, 100, 3)
    alpha = np.array([1.0, 0.0, 1.0])
    sched = pl.WeightSchedule.explicit(alpha)
    best = pl.exact_path(inst.stats, inst.base, pl.OptimizerConfig(K=3, schedule=sched))
    loss = workloads.loss_of(inst, best, alpha)
    assert checks.oracle_problems(inst.moments, loss, alpha) == []
    assert checks.oracle_problems(inst.moments, loss * (1 + 1e-9), alpha)


def test_dominated_front_point_fails(tmp_path):
    wl = TinyFront()
    calls = ready(wl, tmp_path)
    payload = json.loads(calls[0].artifacts[0])
    points = payload["points"]
    # Repeat the last step of a point's path: same model, same cost, a
    # larger loss, so the copy is dominated by the original.
    pt = next(p for p in points if p["K"] >= 1)
    worse = json.loads(json.dumps(pt))
    worse["path"]["steps"].append(worse["path"]["steps"][-1])
    worse["K"] += 1
    worse["interp_loss"] += worse["cost"]
    points.append(worse)
    points.sort(key=lambda p: p["interp_loss"])
    problems = checks.front_problems(wl.moments, {"points": points}, wl.names, 1.0)
    assert len(problems) == 1
    assert problems[0].startswith(f"point {points.index(worse) + 1} is dominated by point")


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_emits_every_metric(name, trace):
    result, record = run.run(TINY[name](), 5, 0.01, trace, SPEC, setup_runs=1)
    kind = "per_layer" if trace else "end_to_end"
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in SPEC[kind]
    }
    assert all(np.isfinite(v["value"]) for v in result["metrics"].values())
    assert result["correct"], record
    assert result["attempted"] >= 1
    for key in ("nproc", "python", "numpy", "blas", "blas_threads"):
        assert key in record["machine"]
    if trace:
        assert record["samples"]["traced_batches"] >= 1


def test_end_to_end_metrics_are_positive():
    result, _ = run.run(TinyFront(), 5, 0.01, False, SPEC, setup_runs=1)
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_sweep_worker_spans_attach_to_sweep(tmp_path):
    wl = TinyFront()
    ready(wl, tmp_path)
    tracer = spans.Tracer()
    with tracer:
        wl.sweep_once(pl, 2)
    t = tracer.table()
    assert t.problems() == []
    tradeoffs = t.ids("pareto.solve_tradeoff")
    (sweep,) = t.ids("pareto.sweep")
    assert tradeoffs.size == 61
    assert np.all(t.parent[tradeoffs] == sweep)
    assert np.any(t.thread[tradeoffs] != t.thread[sweep])
    assert np.all(t.self_time <= t.duration)
    assert np.all(t.self_time >= 0)


def test_span_checks_catch_orphans_and_overruns():
    def table(parent, thread, start, end):
        n = len(parent)
        return spans.SpanTable(["pareto.sweep", "pareto.solve_tradeoff"],
                               np.array([0] + [1] * (n - 1), dtype=np.int32),
                               np.array(parent), np.array(thread, dtype=np.int32),
                               np.array(start, float), np.array(end, float),
                               np.zeros(n), np.zeros(n, bool))

    assert table([-1, 0, 0], [0, 1, 2], [0, 1, 1.5], [3, 2, 2.5]).problems() == []
    # A worker's span without a parent, as a plain thread pool would leave it.
    assert table([-1, -1], [0, 1], [0, 1], [3, 2]).problems()
    # A child that outlives its parent.
    assert table([-1, 0], [0, 0], [0, 1], [3, 4]).problems()
    # Overlapping children in worker threads: self time uses their union.
    t = table([-1, 0, 0], [0, 1, 2], [0, 1, 1.5], [4, 2, 2.5])
    assert t.self_time[0] == pytest.approx(2.5)


def test_plain_thread_pool_orphans_worker_spans(tmp_path):
    wl = TinyFront()
    ready(wl, tmp_path)
    tracer = spans.Tracer()
    with tracer:  # uninstalling restores pareto's own pool
        pl.pareto.ThreadPoolExecutor = ThreadPoolExecutor
        wl.sweep_once(pl, 2)
    assert any("no parent span" in p for p in tracer.table().problems())


def test_exits_2_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "explain", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 2
    assert out.stdout == ""
