#!/usr/bin/env python3
"""Time pathlens layer by layer and write the medians to BENCH_<topic>.json.

Only the ingestion layer is measured so far: load_csv, standardize and
compute_stats on seeded CSVs written to a temporary directory (by default
100k rows x 21 and x 7 columns, the last column the target, and the x 7
file again with a whitespace-only last line). Each layer's time is the
median over REPEATS runs. The result is written to BENCH_ingestion.json in
the current directory.

To record the numbers from before a change, run the script with the older
code first, e.g. from a checkout of the parent commit, then with the new
code, which keeps the first run's numbers as "before":

    PYTHONPATH=../parent/src python3 scripts/bench.py
    PYTHONPATH=src python3 scripts/bench.py --before BENCH_ingestion.json
"""

import argparse
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from pathlens import compute_stats, load_csv, standardize

# (columns, text after the last row). numpy's reader rejects a
# whitespace-only line, so load_csv parses that file with its row loop.
INSTANCES = ((21, ""), (7, ""), (7, " \n"))
REPEATS = 9
SEED = 0
OUT = "BENCH_ingestion.json"


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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--rows", type=int, default=100_000, help="CSV rows (default 100000)")
    ap.add_argument("--before", help="an earlier output of this script, kept as 'before'")
    args = ap.parse_args(argv)
    if args.rows < 2:
        ap.error("--rows must be at least 2")

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

    report = {
        "topic": "ingestion",
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "repeats": REPEATS,
        "instances": instances,
    }
    if args.before:
        before = json.loads(Path(args.before).read_text(encoding="utf-8"))
        shapes = [(i["rows"], i["cols"], i.get("tail", ""), i["seed"])
                  for i in before["instances"]]
        if shapes != [(i["rows"], i["cols"], i["tail"], i["seed"]) for i in instances]:
            ap.error(f"--before {args.before} measured other instances: {shapes}")
        report["before"] = {"machine": before["machine"], "instances": before["instances"]}
        for now, old in zip(instances, before["instances"]):
            ratio = now["median_s"]["load_csv"] / old["median_s"]["load_csv"]
            print(f"{now['rows']} x {now['cols']}, tail {now['tail']!r}: "
                  f"load_csv {ratio:.2f}x of before")
    Path(OUT).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"written to {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
