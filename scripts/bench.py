#!/usr/bin/env python3
"""Time pathlens layer by layer and write the medians to BENCH_<topic>.json.

Six topics, chosen with --topic; each number is the median over REPEATS
runs, and the result goes to BENCH_<topic>.json in the current directory.

ingestion (the default): load_csv, standardize and compute_stats on seeded
CSVs written to a temporary directory (by default 100k rows x 21 and x 7
columns, the last column the target, and the x 7 file again with a
whitespace-only last line).

tradeoff: sweep on a seeded instance (d = 6, n = 100) with K_max = 6 over
the default 61-value lambda grid, gamma = 1, one worker, also per
(lambda, K) solve; the exact search's fast kernel (_enum_fast, recorded
under its earlier name _enum_free_fast) with one weight row of unit weights
at d = 6, K = 10 (60.5M patterns), in patterns per second; and exact_path
on the same instance, free, under gamma = 1, one step shorter than the
kernel (K = 9 and 10.1M patterns by default, as the benchmark's search
workload runs it), with the loss and steps of its path, which --before
checks. --K-max and --K shrink all three for a quick run.

local: local_improvement under unit weights, on seeded instances
(n = 100): q = 2 pinned to the least-squares fit at d = 5, K = 6, T = 100
(as the benchmark's explain workload runs it); q = 2 and q = 1 free at
d = 6, K = 9, T = 100 (as its search workload does); q = 2 and q = 1 free
at d = 6, K = 10, T = 600, patience 120 (the setting of acceptance
criterion 4). Each instance also records the loss and steps of the path
found, and with --before the script refuses to write if either differs
from the earlier run's: a faster search that returns another path is a
bug.

heuristic: local_improvement against exact_path on 20 seeded instances
(seeds 0-19, n = 100, d = 6, K = 10, gamma = 1): each instance's exact loss
and time, and for q = 1 and 2 (T = 600, patience 120, search seed
1000 q + instance seed) the local search's loss, optimality gap and time.
--K shrinks the paths for a quick run. With --before the script refuses to
write if an exact or local-search loss differs from the earlier run's.

pinned: the exact search pinned to the least-squares fit, under unit
weights, on seeded instances (n = 100): exact_path at d = 6, K = 8 (1.7M
patterns), next to _enum_direct, the batched enumerator it replaced for
pinned endpoints, on the same instance (5 runs each, alternating); and
best_explanation at d = 5, K_max = 6 (as the benchmark's explain workload
runs it) and 7. Each row records the path's loss and steps; with --before
the script refuses to write if either differs from the earlier run's. --K
and --K-max shrink the two for a quick run.

direct: the searches that once ran through the general enumerator
_enum_direct, all with a free endpoint, on seeded instances (n = 100, 5
runs each): a near-collinear d = 6 instance (the last feature repeats the
first up to 1e-7 noise, gram condition number 3.5e14) at K = 7 under
geometric(1) weights, which the factor recursion serves; unit-step
exact_path at d = 4, K = 5 and 6, which the dynamic program over lattice
states serves, each also with the tracemalloc peak of one run;
_enum_direct itself on a zero-weight schedule (0, 1, 1, ...) at d = 5, K = 7;
and exact_path, which runs _enum_direct and then solves the winning
pattern, on the benchmark's search workload's zero-weight schedule
(1, 0, 0, 0, 1) at d = 6, K = 5, and on alpha = e_6 (weight on the last
model only, best-subset selection) at d = 6 and 8. Each row records the
path's loss and steps; with --before the script refuses to write if either
differs from the earlier run's. --K (default 7) shrinks the first, the
_enum_direct and the e_6 rows (to e_K), --K-max (default 6) the longer
unit row, for a quick run. --against DIR imports DIR/src/pathlens (for
example a checkout of the parent commit) as a second package and times
each row on both trees, alternating in one process, so that host drift
stays out of their ratio; each row then records both medians, and the
script refuses to write if the two trees' paths differ.

BLAS threads are left as the environment sets them (the machine record
notes OPENBLAS_NUM_THREADS); set it to 1 for numbers comparable with the
benchmark in bench/, which pins it.

To record the numbers from before a change, run the script with the older
code first, e.g. from a checkout of the parent commit, then with the new
code, which keeps the first run's numbers as "before":

    PYTHONPATH=../parent/src python3 scripts/bench.py --topic tradeoff
    PYTHONPATH=src python3 scripts/bench.py --topic tradeoff --before BENCH_tradeoff.json
"""

import argparse
import importlib.util
import json
import os
import platform
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

import pathlens
from pathlens import (
    LinearModel,
    OptimizerConfig,
    WeightSchedule,
    best_explanation,
    compute_stats,
    default_lambda_grid,
    exact_path,
    load_csv,
    local_improvement,
    ols,
    standardize,
    sweep,
    weighted_loss,
)
from pathlens import optimizers
from pathlens.inner import path_from_deltas

# (columns, text after the last row). numpy's reader rejects a
# whitespace-only line, so load_csv parses that file with its row loop.
INSTANCES = ((21, ""), (7, ""), (7, " \n"))
REPEATS = 9
SEED = 0


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


def time_ingestion(path: Path) -> dict:
    """Median seconds of each ingestion layer over REPEATS runs."""
    times = {"load_csv": [], "standardize": [], "compute_stats": []}
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        ds = load_csv(path, "y")
        t1 = time.perf_counter()
        std, _ = standardize(ds)
        t2 = time.perf_counter()
        compute_stats(std)
        t3 = time.perf_counter()
        times["load_csv"].append(t1 - t0)
        times["standardize"].append(t2 - t1)
        times["compute_stats"].append(t3 - t2)
    return {layer: statistics.median(ts) for layer, ts in times.items()}


def median_seconds(fn, repeats: int = REPEATS) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def ingestion(args) -> list:
    instances = []
    with tempfile.TemporaryDirectory() as tmp:
        for k, (cols, tail) in enumerate(INSTANCES):
            path = Path(tmp) / f"data_{k}.csv"
            write_csv(path, args.rows, cols, SEED, tail)
            median_s = time_ingestion(path)
            instances.append({
                "rows": args.rows,
                "cols": cols,
                "tail": tail,
                "seed": SEED,
                "csv_bytes": path.stat().st_size,
                "median_s": median_s,
                "load_csv_rows_per_s": args.rows / median_s["load_csv"],
            })
            print(f"{args.rows} x {cols}, tail {tail!r}: " + "  ".join(
                f"{layer} {s:.4f} s" for layer, s in median_s.items()))
    return instances


def tradeoff_stats(d: int, n: int = 100, seed: int = SEED, noise: float | None = None,
                   pl=pathlens):
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


def tradeoff(args) -> list:
    d = 6
    stats = tradeoff_stats(d)
    base = LinearModel.zeros(stats.feature_names)
    schedule = WeightSchedule.geometric(1.0)
    grid = default_lambda_grid()
    sweep_s = median_seconds(
        lambda: sweep(stats, base, schedule, grid, args.K_max, workers=1))
    alpha = np.ones((1, args.K))
    kernel_s = median_seconds(
        lambda: optimizers._enum_fast(stats, np.zeros(d), args.K, alpha))
    cfg = OptimizerConfig(K=args.K - 1, schedule=schedule, budget=10**8)
    path = exact_path(stats, base, cfg)
    exact_s = median_seconds(lambda: exact_path(stats, base, cfg))
    solves = len(grid) * args.K_max
    print(f"sweep, d={d}, K_max={args.K_max}, {len(grid)} lambdas, 1 worker: {sweep_s:.4f} s, "
          f"{sweep_s / solves * 1e3:.3f} ms per (lambda, K)")
    print(f"_enum_fast, d={d}, K={args.K}, one row: {kernel_s:.4f} s, "
          f"{d**args.K / kernel_s / 1e6:.1f}M patterns/s")
    print(f"exact_path, d={d}, K={cfg.K}: {exact_s:.4f} s, "
          f"{d**cfg.K / exact_s / 1e6:.1f}M patterns/s")
    return [
        {"instance": {"layer": "sweep", "seed": SEED, "n": 100, "d": d, "K_max": args.K_max,
                      "lambdas": len(grid), "workers": 1, "schedule": schedule.describe()},
         "median_s": sweep_s, "per_solve_s": sweep_s / solves},
        # The kernel's name when this row was first recorded; --before matches on it.
        {"instance": {"layer": "_enum_free_fast", "seed": SEED, "n": 100, "d": d, "K": args.K,
                      "rows": 1, "schedule": "unit weights"},
         "median_s": kernel_s, "patterns_per_s": d**args.K / kernel_s},
        {"instance": {"layer": "exact_path", "seed": SEED, "n": 100, "d": d, "K": cfg.K,
                      "endpoint": "free", "schedule": schedule.describe()},
         "median_s": exact_s, "patterns_per_s": d**cfg.K / exact_s,
         "loss": weighted_loss(stats, path, schedule), "steps": [[i, v] for i, v in path.steps]},
    ]


# (d, K, q, T, patience, endpoint, search seed)
LOCAL_INSTANCES = ((5, 6, 2, 100, None, "ols", 0), (6, 9, 2, 100, None, "free", 1000),
                   (6, 10, 2, 600, 120, "free", 1000), (6, 9, 1, 100, None, "free", 1000),
                   (6, 10, 1, 600, 120, "free", 2000))


def local(args) -> list:
    schedule = WeightSchedule.geometric(1.0)
    instances = []
    for d, K, q, T, patience, endpoint, seed in LOCAL_INSTANCES:
        stats = tradeoff_stats(d)
        base = LinearModel.zeros(stats.feature_names)
        cfg = OptimizerConfig(K=K, schedule=schedule, q=q, T=T, seed=seed, patience=patience,
                              endpoint=ols(stats) if endpoint == "ols" else None)
        path = local_improvement(stats, base, cfg)
        record = {
            "instance": {"layer": "local_improvement", "seed": SEED, "n": 100, "d": d, "K": K,
                         "q": q, "T": T, "patience": patience, "endpoint": endpoint,
                         "search_seed": seed, "schedule": schedule.describe()},
            "median_s": median_seconds(lambda: local_improvement(stats, base, cfg)),
            "loss": weighted_loss(stats, path, schedule),
            "steps": [[i, v] for i, v in path.steps],
        }
        print(f"{describe('local', record)}: {record['median_s'] * 1e3:.2f} ms")
        instances.append(record)
    return instances


HEURISTIC_INSTANCES = 20
HEURISTIC_Q = (1, 2)


def heuristic(args) -> list:
    d, K = 6, args.K
    schedule = WeightSchedule.geometric(1.0)
    instances = []
    for seed in range(HEURISTIC_INSTANCES):
        stats = tradeoff_stats(d, seed=seed)
        base = LinearModel.zeros(stats.feature_names)
        cfg = OptimizerConfig(K=K, schedule=schedule, budget=10**8)
        exact = weighted_loss(stats, exact_path(stats, base, cfg), schedule)
        record = {
            "instance": {"layer": "exact_path", "seed": seed, "n": 100, "d": d, "K": K,
                         "schedule": schedule.describe()},
            "median_s": median_seconds(lambda: exact_path(stats, base, cfg)),
            "loss": exact,
            "local": {},
        }
        for q in HEURISTIC_Q:
            lcfg = OptimizerConfig(K=K, schedule=schedule, q=q, T=600, patience=120,
                                   seed=1000 * q + seed)
            loss = weighted_loss(stats, local_improvement(stats, base, lcfg), schedule)
            record["local"][f"q={q}"] = {
                "T": 600, "patience": 120, "search_seed": lcfg.seed, "loss": loss,
                "gap_pct": 100 * (loss - exact) / exact,
                "median_s": median_seconds(lambda: local_improvement(stats, base, lcfg)),
            }
        print(f"{describe('heuristic', record)}: exact {record['median_s']:.3f} s" + "".join(
            f", {q} gap {r['gap_pct']:.4f}% in {r['median_s'] * 1e3:.1f} ms"
            for q, r in record["local"].items()))
        instances.append(record)
    print(f"exact: median {statistics.median(i['median_s'] for i in instances):.3f} s")
    for q in record["local"]:
        gaps = [i["local"][q]["gap_pct"] for i in instances]
        times = [i["local"][q]["median_s"] for i in instances]
        print(f"{q}: median gap {statistics.median(gaps):.4f}%, max {max(gaps):.4f}%, "
              f"within 0.1%: {sum(g <= 0.1 for g in gaps)}/{len(gaps)}, "
              f"median time {statistics.median(times) * 1e3:.1f} ms")
    return instances


PINNED_D, PINNED_REPEATS = 6, 5  # the d = 6, K = 8 rows took ~1.5 s per run before the change
BEST_D = 5


def pinned(args) -> list:
    schedule = WeightSchedule.geometric(1.0)
    instances = []

    def record(layer, stats, run, median_s, runs, **extra):
        path = run()
        instances.append({
            "instance": {"layer": layer, "seed": SEED, "n": 100, "d": stats.d, "endpoint": "ols",
                         "schedule": schedule.describe(), **extra},
            "median_s": median_s,
            "runs": runs,
            "loss": weighted_loss(stats, path, schedule),
            "steps": [[i, v] for i, v in path.steps],
        })
        print(f"{describe('pinned', instances[-1])}: {median_s * 1e3:.2f} ms")

    stats = tradeoff_stats(PINNED_D)
    base = LinearModel.zeros(stats.feature_names)
    cfg = OptimizerConfig(K=args.K, schedule=schedule, endpoint=ols(stats))
    alpha = schedule.weights(args.K)

    def direct():
        _, iv, delta = optimizers._enum_direct(stats, base, args.K, alpha, cfg.endpoint)
        return path_from_deltas(base, iv, delta)

    runs = {"exact_path": lambda: exact_path(stats, base, cfg), "_enum_direct": direct}
    # Runs alternate between the two, so a slow stretch of the host hits both.
    times = {layer: [] for layer in runs}
    for _ in range(PINNED_REPEATS):
        for layer, run in runs.items():
            times[layer].append(median_seconds(run, 1))
    medians = {layer: statistics.median(ts) for layer, ts in times.items()}
    for layer, run in runs.items():
        record(layer, stats, run, medians[layer], PINNED_REPEATS, K=args.K)
    print(f"exact_path runs {medians['_enum_direct'] / medians['exact_path']:.1f}x "
          "as fast as _enum_direct")
    stats = tradeoff_stats(BEST_D)
    base = LinearModel.zeros(stats.feature_names)
    target = ols(stats)
    for K_max in (args.K_max, args.K_max + 1):
        def explain():
            return best_explanation(stats, base, target, schedule, K_max)

        record("best_explanation", stats, explain, median_seconds(explain), REPEATS, K_max=K_max)
    return instances


DIRECT_REPEATS = 5  # the parent's e_6 row at d = 8 takes ~3 s per run, the others ms to 0.5 s


def direct_rows(pl, args) -> list:
    """The direct topic's rows on the package pl (pathlens, or the tree of
    --against): (layer, stats, run, schedule, peak, extra) each, where run()
    returns the row's path and peak asks for a tracemalloc peak."""
    rows = []

    def exact(d, schedule, K, noise=None, peak=False, **extra):
        stats = tradeoff_stats(d, noise=noise, pl=pl)
        base = pl.LinearModel.zeros(stats.feature_names)
        cfg = pl.OptimizerConfig(K=K, schedule=schedule, **extra)
        if noise is not None:
            extra["noise"] = noise
        rows.append(("exact_path", stats, lambda: pl.exact_path(stats, base, cfg), schedule, peak,
                     {"K": K, **extra}))

    geometric = pl.WeightSchedule.geometric(1.0)
    exact(6, geometric, args.K, noise=1e-7)
    for K in (args.K_max - 1, args.K_max):
        exact(4, geometric, K, peak=True, step_mode="unit")
    stats = tradeoff_stats(5, pl=pl)
    base = pl.LinearModel.zeros(stats.feature_names)
    zero_first = pl.WeightSchedule.explicit([0.0] + [1.0] * (args.K - 1))

    def zero_weight():
        alpha = zero_first.weights(args.K)
        _, iv, delta = pl.optimizers._enum_direct(stats, base, args.K, alpha)
        return pl.inner.path_from_deltas(base, iv, delta)

    rows.append(("_enum_direct", stats, zero_weight, zero_first, False, {"K": args.K}))
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


def direct(args) -> list:
    packages = [pathlens] + ([load_tree(args.against)] if args.against else [])
    instances = []
    for rows in zip(*(direct_rows(pl, args) for pl in packages)):
        layer, stats, run, schedule, peak, extra = rows[0]
        runs = [row[2] for row in rows]
        paths = [go() for go in runs]
        losses = [pl.weighted_loss(row[1], path, row[3])
                  for pl, row, path in zip(packages, rows, paths)]
        # The trees alternate, each going first in every other round, so a slow
        # stretch of the host hits both.
        times = [[] for _ in rows]
        for i in range(DIRECT_REPEATS):
            for j in (range(len(runs)) if i % 2 == 0 else reversed(range(len(runs)))):
                times[j].append(median_seconds(runs[j], 1))
        instances.append({
            "instance": {"layer": layer, "seed": SEED, "n": 100, "d": stats.d, "endpoint": "free",
                         "schedule": schedule.describe(), **extra},
            "median_s": statistics.median(times[0]),
            "runs": DIRECT_REPEATS,
            "loss": losses[0],
            "steps": [[i, v] for i, v in paths[0].steps],
        })
        line = f"{describe('direct', instances[-1])}: {instances[-1]['median_s'] * 1e3:.2f} ms"
        if args.against:
            if (losses[1], paths[1].steps) != (losses[0], paths[0].steps):
                raise SystemExit(f"{describe('direct', instances[-1])}: --against {args.against} "
                                 f"found another path, loss {losses[1]!r}, here {losses[0]!r}")
            instances[-1]["against_median_s"] = statistics.median(times[1])
            line += (f", against {instances[-1]['against_median_s'] * 1e3:.2f} ms "
                     f"({instances[-1]['median_s'] / instances[-1]['against_median_s']:.2f}x)")
        if peak:
            tracemalloc.start()
            run()
            instances[-1]["peak_mb"] = tracemalloc.get_traced_memory()[1] / 1e6
            tracemalloc.stop()
            line += f", tracemalloc peak {instances[-1]['peak_mb']:.1f} MB"
        print(line)
    return instances


def instance_key(topic: str, instance: dict):
    if topic == "ingestion":
        return instance["rows"], instance["cols"], instance.get("tail", ""), instance["seed"]
    return instance["instance"]


def describe(topic: str, instance: dict) -> str:
    if topic == "ingestion":
        return f"{instance['rows']} x {instance['cols']}, tail {instance['tail']!r}: load_csv"
    inst = instance["instance"]
    if topic == "heuristic":
        return f"exact_path, d={inst['d']}, K={inst['K']}, seed {inst['seed']}"
    if topic == "local":
        return (f"local_improvement, q={inst['q']}, d={inst['d']}, K={inst['K']}, "
                f"T={inst['T']}, patience={inst['patience']}, endpoint {inst['endpoint']}")
    if topic == "pinned":
        length = f"K={inst['K']}" if "K" in inst else f"K_max={inst['K_max']}"
        return f"{inst['layer']}, d={inst['d']}, {length}, endpoint {inst['endpoint']}"
    if topic == "direct":
        kind = (f"noise {inst['noise']:g}" if "noise" in inst
                else inst.get("step_mode", f"weights {inst['schedule']}"))
        return f"{inst['layer']}, d={inst['d']}, K={inst['K']}, {kind}"
    return inst["layer"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--topic", default="ingestion",
                    choices=("ingestion", "tradeoff", "local", "heuristic", "pinned", "direct"))
    ap.add_argument("--rows", type=int, default=100_000,
                    help="ingestion: CSV rows (default 100000)")
    ap.add_argument("--K-max", type=int, default=6,
                    help="tradeoff: sweep K_max; pinned: the first best_explanation K_max; "
                         "direct: the longer unit-step length (default 6)")
    ap.add_argument("--K", type=int,
                    help="tradeoff: kernel path length, one more than exact_path's; "
                         "heuristic: path length (default 10); pinned: exact_path length "
                         "(default 8); direct: the continuous rows' length (default 7)")
    ap.add_argument("--before", help="an earlier output of this script, kept as 'before'")
    ap.add_argument("--against", metavar="DIR",
                    help="direct: also time each row on the pathlens in DIR/src, alternating")
    args = ap.parse_args(argv)
    if args.K is None:
        args.K = {"pinned": 8, "direct": 7}.get(args.topic, 10)
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
    if args.topic == "direct" and args.K_max < 2:
        ap.error("--K-max must be at least 2 for the direct topic")
    if args.against and args.topic != "direct":
        ap.error("--against serves the direct topic only")

    topics = {"ingestion": ingestion, "tradeoff": tradeoff, "local": local, "heuristic": heuristic,
              "pinned": pinned, "direct": direct}
    instances = topics[args.topic](args)
    report = {"topic": args.topic, "machine": machine(), "repeats": REPEATS,
              "instances": instances}
    if args.against:
        report["against"] = Path(args.against).resolve().name
    if args.before:
        before = json.loads(Path(args.before).read_text(encoding="utf-8"))
        keys = [instance_key(args.topic, i) for i in before["instances"]]
        if keys != [instance_key(args.topic, i) for i in instances]:
            ap.error(f"--before {args.before} measured other instances: {keys}")
        report["before"] = {"machine": before["machine"], "instances": before["instances"]}
        for now, old in zip(instances, before["instances"]):
            found = [(key, now[key], old[key]) for key in ("loss", "steps") if key in now]
            found += [(f"{q} loss", r["loss"], old["local"][q]["loss"])
                      for q, r in now.get("local", {}).items()]
            for key, value, was in found:
                if value != was:
                    ap.error(f"{describe(args.topic, now)} found another path than --before "
                             f"{args.before}: {key} {value!r}, before {was!r}")
            ratio = (now["median_s"]["load_csv"] / old["median_s"]["load_csv"]
                     if args.topic == "ingestion" else now["median_s"] / old["median_s"])
            print(f"{describe(args.topic, now)} {ratio:.2f}x of before")
    out = f"BENCH_{args.topic}.json"
    Path(out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
