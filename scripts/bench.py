#!/usr/bin/env python3
"""Time pathlens layer by layer and write the medians to BENCH_<topic>.json.

Seven topics, chosen with --topic. A topic is a list of rows, each one timed
call on a seeded instance; BENCH_<topic>.json in the current directory gets
one record per row: the instance, the median seconds over REPEATS runs with
the runs themselves, and, where the call returns a path, its loss and steps.

ingestion (the default): load_csv, standardize and compute_stats, a row each,
on seeded CSVs written to a temporary directory (by default 100k rows x 21
and x 7 columns, the last column the target, and the x 7 file again with a
whitespace-only last line).

tradeoff: sweep on a seeded instance (d = 6, n = 100) with K_max = 6 over
the default 61-value lambda grid, gamma = 1, with one worker and with two,
each recording the digest of its front and how many of the 61 K_max
(lambda, K) rows it sent to the exact search (the rest a best-subset cost
floor rules out); the exact search's fast kernel _enum_fast with one
weight row of unit weights at d = 6, K = 10 (60.5M patterns), recording
its objective, pattern and broken flag; and exact_path on the same
instance, free, under gamma = 1, one step shorter than the kernel (K = 9
and 10.1M patterns by default, as the benchmark's search workload runs it).
--K-max and --K shrink them for a quick run.

local: local_improvement on seeded instances (n = 100), each row under its
own schedule. Under unit weights: q = 2 pinned to the least-squares fit at
d = 5, T = 100, with K = 6 and with K = 5 (the target's complexity, as the
benchmark's explain workload runs it, which leaves only C(5, 2) = 10
position sets); q = 2 and q = 1 free at d = 6, K = 9, T = 100 (as its
search workload does); q = 2 and q = 1 free at d = 6, K = 10, T = 600,
patience 120 (the setting of acceptance criterion 4). Under weight on the
first and last models only, alpha = (1, 0, ..., 0, 1), q = 2, T = 100: free
at d = 6, K = 9, and pinned to the fit at d = 5, K = 6; these check how a
search's windows start when it is not screened.

heuristic: exact_path and local_improvement on 20 seeded instances (seeds
0-19, n = 100, d = 6, K = 10, gamma = 1), the local search at q = 1 and 2
(T = 600, patience 120, search seed 1000 q + instance seed), whose rows also
record the optimality gap to the exact loss. --K shrinks the paths for a
quick run.

pinned: the exact search pinned to the least-squares fit, under unit
weights, on seeded instances (n = 100): exact_path at d = 6, K = 8 (1.7M
patterns), next to _enum_direct, the batched enumerator it replaced for
pinned endpoints, on the same instance (its pattern's steps solved once by
solve_patterns, as exact_path does), and the fast kernel _enum_fast
alone, with one weight row, recording its objective, pattern and broken
flag, as the tradeoff topic's kernel row does; best_explanation at d = 5,
K_max = 6 (as the benchmark's explain workload runs it) and 7; and
best_explanation on the d = 6 instance with K_max = 8, the exact_path
row's length. --K and --K-max shrink them for a quick run.

direct: the searches that once ran through the general enumerator
_enum_direct, all with a free endpoint, on seeded instances (n = 100): a
near-collinear d = 6 instance (the last feature repeats the first up to
1e-7 noise, gram condition number 3.5e14) at K = 7 under geometric(1)
weights, which the factor recursion serves; unit-step exact_path at d = 4,
K = 5 and 6, which the dynamic program over lattice states serves, each
also with the tracemalloc peak of one run; _enum_direct itself, its
pattern's steps solved once by solve_patterns, on a zero-weight schedule
(0, 1, 1, ...) at d = 5, K = 7; and exact_path, which runs _enum_direct
and then solves the winning pattern, on the benchmark's
search workload's zero-weight schedule (1, 0, 0, 0, 1) at d = 6, K = 5, and
on alpha = e_6 (weight on the last model only, best-subset selection) at
d = 6 and 8. --K (default 7) shrinks the first, the _enum_direct and the
e_6 rows (to e_K), --K-max (default 6) the longer unit row, for a quick run.

cli: the command line end to end, as subprocesses (python -m pathlens.cli,
so the import counts), on a moments JSON of the tradeoff instance (d = 6):
pathlens pareto --K 6 --gamma 1, pathlens pareto --K 1000000 --gamma 1
(over the budget, so it exits 3 and writes nothing) and pathlens path exact
--K 6 (pinned to the least-squares fit), each recording its exit code and
the digests of its artifacts, and, per tree and not compared, the peak RSS
of one run (os.wait4). --K-max and --K set the first and last K.

--against DIR imports DIR/src/pathlens (for example a checkout of the parent
commit) as a second package and builds every row on both trees. Each row
runs once per tree first, and the script refuses to write if the trees'
results differ: a faster search that returns another path is a bug. The
timed runs then go in rounds that alternate the order of the trees and of
the rows, so that a slow stretch of the host hits both trees and every row
alike, and each row also records the other tree's median and runs, and
ratio_p50, the median over rounds of the ratio between the two trees'
back-to-back runs, which stays put when the host switches speed for a few
rounds, where the ratio of the two medians need not:

    PYTHONPATH=src python3 scripts/bench.py --topic tradeoff --against ../parent

BLAS threads are left as the environment sets them (the machine record
notes OPENBLAS_NUM_THREADS); set it to 1 for numbers comparable with the
benchmark in bench/, which pins it.
"""

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

import pathlens

# (columns, text after the last row). numpy's reader rejects a
# whitespace-only line, so load_csv parses that file with its row loop.
INSTANCES = ((21, ""), (7, ""), (7, " \n"))
REPEATS = 12  # a multiple of the four rounds in which measure() balances the order
SEED = 0


class Row(NamedTuple):
    """One timed call, run(). outcome maps run()'s result to the fields the
    row records and compares between trees; peak asks for the tracemalloc
    peak of one run; probe(), run once per tree, returns fields recorded for
    each tree (the other's prefixed against_) but not compared."""

    instance: dict
    run: Callable
    outcome: Callable | None = None
    peak: bool = False
    probe: Callable | None = None


def write_csv(path: Path, rows: int, cols: int, seed: int, tail: str):
    """A seeded regression CSV: cols - 1 correlated features, then the target y."""
    rng = np.random.default_rng([seed, rows, cols])
    d = cols - 1
    X = rng.standard_normal((rows, d)) @ (np.eye(d) + 0.3 * rng.standard_normal((d, d)))
    y = X @ rng.standard_normal(d) + rng.standard_normal(rows)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join([f"x{i + 1}" for i in range(d)] + ["y"]) + "\n")
        np.savetxt(fh, np.column_stack([X, y]), delimiter=",", fmt="%.17g")
        fh.write(tail)


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def path_outcome(pl, stats, schedule) -> Callable:
    """What a row whose call returns a path records: its loss and steps."""
    return lambda path: {"loss": pl.weighted_loss(stats, path, schedule),
                         "steps": [[i, v] for i, v in path.steps]}


def ingestion_rows(pl, args) -> list:
    rows = []
    for k, (cols, tail) in enumerate(INSTANCES):
        path = args.tmp / f"data_{k}.csv"
        write_csv(path, args.rows, cols, SEED, tail)
        ds = pl.load_csv(path, "y")
        std, _ = pl.standardize(ds)
        instance = {"rows": args.rows, "cols": cols, "tail": tail, "seed": SEED,
                    "csv_bytes": path.stat().st_size}
        rows += [Row({"layer": "load_csv", **instance}, partial(pl.load_csv, path, "y")),
                 Row({"layer": "standardize", **instance}, partial(pl.standardize, ds)),
                 Row({"layer": "compute_stats", **instance}, partial(pl.compute_stats, std))]
    return rows


def tradeoff_stats(pl, d: int, seed: int = SEED, noise: float | None = None, n: int = 100):
    """Standardized moments of seeded correlated data, built by the package
    pl; with `noise`, the last feature repeats the first up to that much
    standard normal noise."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d)) @ (np.eye(d) + 0.3 * rng.standard_normal((d, d)))
    if noise is not None:
        X[:, -1] = X[:, 0] + noise * rng.standard_normal(n)
    beta = rng.standard_normal(d)
    y = X @ beta + rng.standard_normal(n) * 0.5 * np.std(X @ beta)
    X = (X - X.mean(axis=0)) / X.std(axis=0)
    y = (y - y.mean()) / y.std()
    return pl.compute_stats(pl.Dataset(X, y, tuple(f"x{i + 1}" for i in range(d))))


def tradeoff_rows(pl, args) -> list:
    d = 6
    stats = tradeoff_stats(pl, d)
    base = pl.LinearModel.zeros(stats.feature_names)
    schedule = pl.WeightSchedule.geometric(1.0)
    grid = pl.default_lambda_grid()
    instance = {"seed": SEED, "n": 100, "d": d}
    rows = []
    for workers in (1, 2):
        run = partial(pl.sweep, stats, base, schedule, grid, args.K_max, workers=workers)
        rows.append(Row({"layer": "sweep", **instance, "K_max": args.K_max, "lambdas": len(grid),
                         "workers": workers, "schedule": schedule.describe()},
                        run, partial(front_outcome, pl), probe=partial(solved_rows, pl, run)))
    rows.append(Row({"layer": "_enum_fast", **instance, "K": args.K, "rows": 1,
                     "schedule": "unit weights"},
                    partial(pl.optimizers._enum_fast, stats, np.zeros(d), args.K,
                            np.ones((1, args.K))), kernel_outcome))
    cfg = pl.OptimizerConfig(K=args.K - 1, schedule=schedule, budget=10**8)
    rows.append(Row({"layer": "exact_path", **instance, "K": cfg.K, "endpoint": "free",
                     "schedule": schedule.describe()},
                    partial(pl.exact_path, stats, base, cfg), path_outcome(pl, stats, schedule)))
    return rows


def kernel_outcome(result) -> dict:
    """What an _enum_fast row records: each weight row's objective (as repr,
    so that equal records mean equal bits), pattern and broken flag."""
    values, patterns, broken = result
    return {"objective": [repr(float(v)) for v in values], "pattern": patterns.tolist(),
            "broken": broken.tolist()}


def front_outcome(pl, report) -> dict:
    """What a sweep row records: its point count and its front JSON's digest."""
    text = json.dumps(pl.pareto.front_to_json(report), indent=2, sort_keys=True)
    return {"points": len(report.points),
            "front_sha256": hashlib.sha256(text.encode("utf-8")).hexdigest()}


def solved_rows(pl, run: Callable) -> dict:
    """The (lambda, K) rows one run of a sweep sends to exact_paths, of all
    of them."""
    solved = []
    exact_paths = pl.pareto.exact_paths

    def spy(stats, base, alphas, *rest):
        solved.append(len(alphas))
        return exact_paths(stats, base, alphas, *rest)

    pl.pareto.exact_paths = spy
    try:
        report = run()
    finally:
        pl.pareto.exact_paths = exact_paths
    total = len(report.metadata["lambda_grid"]) * report.metadata["K_max"]
    return {"rows_solved": sum(solved), "rows": total}


def cli_rows(pl, args) -> list:
    """pathlens pareto (twice) and path exact as subprocesses of the tree that
    holds pl, each with the probe of its peak RSS."""
    src = Path(pl.__file__).resolve().parents[1]
    work = args.tmp / pl.__name__
    work.mkdir()
    stats = tradeoff_stats(pl, 6)
    moments = work / "moments.json"
    moments.write_text(json.dumps({"gram": stats.gram.tolist(), "cross": stats.cross.tolist(),
                                   "tsm": stats.target_second_moment,
                                   "names": list(stats.feature_names)}), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(src)}

    def row(instance, argv, outs):
        argv = [sys.executable, "-m", "pathlens.cli", *argv]

        def run():
            proc = subprocess.run(argv, env=env, capture_output=True, check=False)
            return proc.returncode, [out.read_bytes() if out.exists() else b"" for out in outs]

        def peak():  # ru_maxrss is in KiB on Linux
            proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL,
                                    stderr=subprocess.DEVNULL)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            return {"peak_rss_mb": usage.ru_maxrss / 1024.0}

        return Row({**instance, "seed": SEED, "n": 100, "d": 6, "input": "moments",
                    "schedule": "gamma=1"}, run, outcome, probe=peak)

    def outcome(result):
        code, blobs = result
        return {"exit": code, "artifacts_sha256": [hashlib.sha256(b).hexdigest() for b in blobs]}

    common = ["--moments", str(moments), "--gamma", "1"]
    rows = []
    for K, stem in ((args.K_max, work / "front"), (10**6, work / "huge")):  # 10^6: over budget
        rows.append(row({"layer": "pathlens pareto", "K": K},
                        ["pareto", *common, "--K", str(K), "--out", str(stem)],
                        [stem.with_suffix(".json"), stem.with_suffix(".csv")]))
    path = work / "path.json"
    return rows + [row({"layer": "pathlens path exact", "K": args.K, "endpoint": "ols"},
                       ["path", "exact", *common, "--K", str(args.K), "--out", str(path)], [path])]


# (d, K, q, T, patience, endpoint, search seed, explicit weights or None for
# geometric(gamma = 1), that is unit weights)
LOCAL_INSTANCES = ((5, 6, 2, 100, None, "ols", 0, None), (5, 5, 2, 100, None, "ols", 0, None),
                   (6, 9, 2, 100, None, "free", 1000, None),
                   (6, 10, 2, 600, 120, "free", 1000, None),
                   (6, 9, 1, 100, None, "free", 1000, None),
                   (6, 10, 1, 600, 120, "free", 2000, None),
                   (6, 9, 2, 100, None, "free", 1000, (1, 0, 0, 0, 0, 0, 0, 0, 1)),
                   (5, 6, 2, 100, None, "ols", 0, (1, 0, 0, 0, 0, 1)))


def local_rows(pl, args) -> list:
    rows = []
    for d, K, q, T, patience, endpoint, seed, weights in LOCAL_INSTANCES:
        schedule = (pl.WeightSchedule.geometric(1.0) if weights is None
                    else pl.WeightSchedule.explicit(weights))
        stats = tradeoff_stats(pl, d)
        base = pl.LinearModel.zeros(stats.feature_names)
        cfg = pl.OptimizerConfig(K=K, schedule=schedule, q=q, T=T, seed=seed, patience=patience,
                                 endpoint=pl.ols(stats) if endpoint == "ols" else None)
        rows.append(Row({"layer": "local_improvement", "seed": SEED, "n": 100, "d": d, "K": K,
                         "q": q, "T": T, "patience": patience, "endpoint": endpoint,
                         "search_seed": seed, "schedule": schedule.describe()},
                        partial(pl.local_improvement, stats, base, cfg),
                        path_outcome(pl, stats, schedule)))
    return rows


HEURISTIC_INSTANCES = 20
HEURISTIC_Q = (1, 2)


def heuristic_rows(pl, args) -> list:
    return [row for seed in range(HEURISTIC_INSTANCES)
            for row in heuristic_instance(pl, seed, args.K)]


def heuristic_instance(pl, seed: int, K: int) -> list:
    """exact_path, then the local searches, on one seeded instance at d = 6.
    The local rows' gap is to the exact row's loss, which is known by then,
    since every tree runs its rows once, in order, before any is timed."""
    schedule = pl.WeightSchedule.geometric(1.0)
    stats = tradeoff_stats(pl, 6, seed=seed)
    base = pl.LinearModel.zeros(stats.feature_names)
    outcome = path_outcome(pl, stats, schedule)
    exact = {}

    def exact_outcome(path):
        exact.update(outcome(path))
        return exact

    def local_outcome(path):
        found = outcome(path)
        return {**found, "gap_pct": 100 * (found["loss"] - exact["loss"]) / exact["loss"]}

    instance = {"seed": seed, "n": 100, "d": 6, "K": K, "schedule": schedule.describe()}
    cfg = pl.OptimizerConfig(K=K, schedule=schedule, budget=10**8)
    rows = [Row({"layer": "exact_path", **instance}, partial(pl.exact_path, stats, base, cfg),
                exact_outcome)]
    for q in HEURISTIC_Q:
        cfg = pl.OptimizerConfig(K=K, schedule=schedule, q=q, T=600, patience=120,
                                 seed=1000 * q + seed)
        rows.append(Row({"layer": "local_improvement", **instance, "q": q, "T": 600,
                         "patience": 120, "search_seed": cfg.seed},
                        partial(pl.local_improvement, stats, base, cfg), local_outcome))
    return rows


def heuristic_summary(instances: list):
    exact = [r["median_s"] for r in instances if r["instance"]["layer"] == "exact_path"]
    print(f"exact: median {statistics.median(exact):.3f} s")
    for q in HEURISTIC_Q:
        local = [r for r in instances if r["instance"].get("q") == q]
        gaps = [r["gap_pct"] for r in local]
        print(f"q={q}: median gap {statistics.median(gaps):.4f}%, max {max(gaps):.4f}%, "
              f"within 0.1%: {sum(g <= 0.1 for g in gaps)}/{len(gaps)}, median time "
              f"{statistics.median(r['median_s'] for r in local) * 1e3:.1f} ms")


PINNED_D = 6
BEST_D = 5


def pinned_rows(pl, args) -> list:
    schedule = pl.WeightSchedule.geometric(1.0)
    stats = tradeoff_stats(pl, PINNED_D)
    base = pl.LinearModel.zeros(stats.feature_names)
    cfg = pl.OptimizerConfig(K=args.K, schedule=schedule, endpoint=pl.ols(stats))
    alpha = schedule.weights(args.K)

    instance = {"seed": SEED, "n": 100, "endpoint": "ols", "schedule": schedule.describe()}
    outcome = path_outcome(pl, stats, schedule)
    rows = [Row({"layer": "exact_path", **instance, "d": PINNED_D, "K": args.K},
                partial(pl.exact_path, stats, base, cfg), outcome),
            Row({"layer": "_enum_direct", **instance, "d": PINNED_D, "K": args.K},
                partial(direct_path, pl, stats, base, args.K, alpha, cfg.endpoint), outcome),
            Row({"layer": "_enum_fast", **instance, "d": PINNED_D, "K": args.K, "rows": 1},
                partial(pl.optimizers._enum_fast, stats, base.coefficients, args.K, alpha[None],
                        cfg.endpoint.coefficients), kernel_outcome)]
    explained = tradeoff_stats(pl, BEST_D)
    zeros = pl.LinearModel.zeros(explained.feature_names)
    for K_max in (args.K_max, args.K_max + 1):
        rows.append(Row({"layer": "best_explanation", **instance, "d": BEST_D, "K_max": K_max},
                        partial(pl.best_explanation, explained, zeros, pl.ols(explained),
                                schedule, K_max),
                        path_outcome(pl, explained, schedule)))
    rows.append(Row({"layer": "best_explanation", **instance, "d": PINNED_D, "K_max": args.K},
                    partial(pl.best_explanation, stats, base, cfg.endpoint, schedule, args.K),
                    outcome))
    return rows


def direct_path(pl, stats, base, K: int, alpha, endpoint=None):
    """_enum_direct's pattern, its result's second entry, with its steps
    from one solve_patterns call, as exact_paths solves it."""
    iv = pl.optimizers._enum_direct(stats, base, K, alpha, endpoint)[1]
    target = None if endpoint is None else endpoint.coefficients
    delta = pl.inner.solve_patterns(stats, base.coefficients, iv[None], alpha, target)[0][0]
    return pl.inner.path_from_deltas(base, iv, delta)


def direct_rows(pl, args) -> list:
    rows = []

    def exact(d, schedule, K, noise=None, peak=False, **extra):
        stats = tradeoff_stats(pl, d, noise=noise)
        base = pl.LinearModel.zeros(stats.feature_names)
        cfg = pl.OptimizerConfig(K=K, schedule=schedule, **extra)
        if noise is not None:
            extra["noise"] = noise
        rows.append(Row({"layer": "exact_path", "seed": SEED, "n": 100, "d": d,
                         "endpoint": "free", "schedule": schedule.describe(), "K": K, **extra},
                        partial(pl.exact_path, stats, base, cfg),
                        path_outcome(pl, stats, schedule), peak))

    geometric = pl.WeightSchedule.geometric(1.0)
    exact(6, geometric, args.K, noise=1e-7)
    for K in (args.K_max - 1, args.K_max):
        exact(4, geometric, K, peak=True, step_mode="unit")
    stats = tradeoff_stats(pl, 5)
    base = pl.LinearModel.zeros(stats.feature_names)
    zero_first = pl.WeightSchedule.explicit([0.0] + [1.0] * (args.K - 1))
    rows.append(Row({"layer": "_enum_direct", "seed": SEED, "n": 100, "d": 5, "endpoint": "free",
                     "schedule": zero_first.describe(), "K": args.K},
                    partial(direct_path, pl, stats, base, args.K, zero_first.weights(args.K)),
                    path_outcome(pl, stats, zero_first)))
    exact(6, pl.WeightSchedule.explicit([1.0, 0.0, 0.0, 0.0, 1.0]), 5)
    K = min(6, args.K)  # alpha = e_K
    for d in (6, 8):
        exact(d, pl.WeightSchedule.explicit([0.0] * (K - 1) + [1.0]), K)
    return rows


def load_tree(root: str):
    """The pathlens package in root/src, imported as pathlens_against."""
    src = Path(root) / "src" / "pathlens"
    if not (src / "__init__.py").is_file():
        raise SystemExit(f"--against {root}: no package at {src}")
    spec = importlib.util.spec_from_file_location(
        "pathlens_against", src / "__init__.py", submodule_search_locations=[str(src)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def measure(build: Callable, args) -> list:
    """The records of build(pl, args)'s rows, with pl pathlens and, given
    --against, that tree's package too."""
    packages = [pathlens] + ([load_tree(args.against)] if args.against else [])
    trees = [build(pl, args) for pl in packages]
    records = []
    for rows in zip(*trees):
        found = [row.outcome(row.run()) if row.outcome else {} for row in rows]
        if any(other != found[0] for other in found[1:]):
            raise SystemExit(f"{describe(rows[0].instance)}: --against {args.against} found "
                             f"{found[1]}, here {found[0]}")
        records.append({"instance": rows[0].instance, **found[0]})
        for prefix, row in zip(("", "against_"), rows):
            if row.probe:
                records[-1].update({prefix + k: v for k, v in row.probe().items()})
        if rows[0].peak:
            tracemalloc.start()
            rows[0].run()
            records[-1]["peak_mb"] = tracemalloc.get_traced_memory()[1] / 1e6
            tracemalloc.stop()
    runs = [[[] for _ in trees] for _ in records]
    # The trees swap places every round and the rows every other round, so
    # over four rounds each tree runs every row after the same neighbours:
    # a row can run slower after another that leaves the heap cold.
    for i in range(REPEATS):
        for r in range(len(records))[::(-1) ** (i // 2)]:
            for t in range(len(trees))[::(-1) ** i]:
                t0 = time.perf_counter()
                trees[t][r].run()
                runs[r][t].append(time.perf_counter() - t0)
    for record, (ours, *theirs) in zip(records, runs):
        record.update(median_s=statistics.median(ours), runs_s=ours)
        line = f"{describe(record['instance'])}: {record['median_s'] * 1e3:.2f} ms"
        if theirs:
            ratio = statistics.median(a / b for a, b in zip(ours, theirs[0]))
            record.update(against_median_s=statistics.median(theirs[0]), against_runs_s=theirs[0],
                          ratio_p50=ratio)
            line += f", against {record['against_median_s'] * 1e3:.2f} ms (ratio p50 {ratio:.2f}x)"
        if "gap_pct" in record:
            line += f", gap {record['gap_pct']:.4f}%"
        if "rows_solved" in record:
            line += f", {record['rows_solved']} of {record['rows']} (lambda, K) rows solved"
        if "peak_mb" in record:
            line += f", tracemalloc peak {record['peak_mb']:.1f} MB"
        if "peak_rss_mb" in record:
            line += f", peak RSS {record['peak_rss_mb']:.0f} MB"
            if "against_peak_rss_mb" in record:
                line += f" (against {record['against_peak_rss_mb']:.0f} MB)"
        print(line)
    return records


def describe(instance: dict) -> str:
    return f"{instance['layer']}, " + ", ".join(
        f"{key}={value!r}" for key, value in instance.items() if key != "layer")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--topic", default="ingestion",
                    choices=("ingestion", "tradeoff", "local", "heuristic", "pinned", "direct",
                             "cli"))
    ap.add_argument("--rows", type=int, default=100_000,
                    help="ingestion: CSV rows (default 100000)")
    ap.add_argument("--K-max", type=int, default=6,
                    help="tradeoff: sweep K_max; pinned: the first best_explanation K_max; "
                         "direct: the longer unit-step length; cli: the first pareto's K (default 6)")
    ap.add_argument("--K", type=int,
                    help="tradeoff: kernel path length, one more than exact_path's; "
                         "heuristic: path length (default 10); pinned: exact_path length "
                         "and the d = 6 best_explanation K_max (default 8); direct: the "
                         "continuous rows' length (default 7); cli: path exact's K, at least 6 "
                         "(default 6)")
    ap.add_argument("--against", metavar="DIR",
                    help="also time each row on the pathlens in DIR/src, alternating")
    args = ap.parse_args(argv)
    if args.K is None:
        args.K = {"pinned": 8, "direct": 7, "cli": 6}.get(args.topic, 10)
    if args.rows < 2:
        ap.error("--rows must be at least 2")
    if args.K < 1 or args.K_max < 1:
        ap.error("--K and --K-max must be at least 1")
    if args.topic == "heuristic" and args.K < max(HEURISTIC_Q):
        ap.error(f"--K must be at least {max(HEURISTIC_Q)} for the heuristic topic")
    if args.topic == "pinned" and (args.K < PINNED_D or args.K_max < BEST_D):
        # The least-squares fits change every coordinate.
        ap.error(f"--K must be at least {PINNED_D} and --K-max at least {BEST_D} "
                 "for the pinned topic")
    if args.topic == "cli" and args.K < 6:
        ap.error("--K must be at least 6 for the cli topic")  # the fit changes every coordinate
    if args.topic == "direct" and (args.K < 2 or args.K_max < 2):
        # At K = 1 the zero-first schedule is all zeros, which no search accepts.
        ap.error("--K and --K-max must be at least 2 for the direct topic")

    topics = {"ingestion": ingestion_rows, "tradeoff": tradeoff_rows, "local": local_rows,
              "heuristic": heuristic_rows, "pinned": pinned_rows, "direct": direct_rows,
              "cli": cli_rows}
    with tempfile.TemporaryDirectory() as tmp:
        args.tmp = Path(tmp)
        instances = measure(topics[args.topic], args)
    if args.topic == "heuristic":
        heuristic_summary(instances)
    report = {"topic": args.topic, "machine": machine(), "repeats": REPEATS,
              "instances": instances}
    if args.against:
        report["against"] = Path(args.against).resolve().name
    out = f"BENCH_{args.topic}.json"
    Path(out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
