#!/usr/bin/env python3
"""pathlens benchmark: run one workload for one seed and report its metrics.

    python3 bench/run.py --workload {explain,search,front} --seed N \\
        --seconds S --trace {0,1}

Run from anywhere; it imports pathlens from the `src/` next to this
directory. One client calls the public API (and `pathlens.cli.main`) in a
closed loop: the workload's fixed batch of calls is repeated until S
seconds have passed. Outputs of the first batch are checked outside the
timed region; later batches must reproduce them exactly.

With --trace 0 the last line of output carries the end-to-end metrics; with
--trace 1, batches alternate untraced and traced, and it carries the
per-layer metrics (see spans.py). The line before it is a record of the
machine, the instances, the sample counts and every failed check. Metric
names and units come from BENCHMARK.json. Exit code 2 means the benchmark
could not run (no sources, bad arguments); no result is printed then.
"""

import os

# Fixed before numpy loads: one BLAS thread, and sweep's default of 1 worker.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("PATHLENS_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import glob  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_RUNS = 7  # at least; one more runs after each batch, up to SETUP_MAX
SETUP_MAX = 15
SETUP_TIMEOUT_S = 60
REF_SECONDS = 0.004  # about reference_seconds() on the host it was tuned on


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def blas_threads():
    """Threads the loaded OpenBLAS reports, or None if it cannot be asked."""
    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "*openblas*"))
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "platform": platform.platform(),
    }


def setup_probe(workload: str, seed: int) -> tuple[float, float]:
    """Set-up seconds of one fresh process and its reference kernel time
    (see setup_probe.py)."""
    out = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=SETUP_TIMEOUT_S,
    )
    seconds, ref = out.stdout.split()
    return float(seconds), float(ref)


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def call_times(batches) -> list[float]:
    """Per call of the batch: the median over its repeats of its wall time
    at reference speed. Each call is timed between two runs of a fixed
    reference kernel (workloads.reference_seconds); its time is scaled by
    REF_SECONDS over the mean of those two.

    The host the benchmark was tuned on (2 vCPUs) slows CPU-bound work by
    up to 2x, in stretches from under a second to minutes, and process CPU
    time rises with wall time, so it is not preemption. Both the reference
    kernel and the calls slow together. The scaling removes most of that
    shared factor, and the median removes the rest of the noise. The raw
    seconds are kept in the run's record."""
    return [
        median(c.seconds * REF_SECONDS / ((c.ref_before + c.ref_after) / 2) for c in repeats)
        for repeats in zip(*batches)
    ]


def run_batches(wl, pl, seed: int, seconds: float, trace: bool, setup: list):
    """Repeat the workload's batch until `seconds` have passed. Returns
    [(calls, wall seconds, layer metrics or None if untraced)] and any
    span-tree problems. With `trace`, every second batch runs traced.
    A set-up probe follows each batch, so that set-up is sampled across
    the whole run rather than in one stretch of the host's load."""
    import spans
    from workloads import reference_seconds

    tracer = spans.Tracer() if trace else None
    batches, span_problems = [], []
    deadline = perf_counter() + seconds
    while True:
        with_trace = trace and len(batches) % 2 == 1
        gc.collect()
        if with_trace:
            tracer.install()
        t0 = perf_counter()
        calls = wl.batch(pl)
        elapsed = perf_counter() - t0
        after = [c.ref_before for c in calls[1:]] + [reference_seconds()]
        for call, ref in zip(calls, after):
            call.ref_after = ref
        if with_trace:
            tracer.uninstall()
            table = tracer.table()
            tracer.reset()
            layers = spans.layer_metrics(table)
            span_problems += table.problems()
        else:
            layers = None
        wl.collect(calls)
        batches.append((calls, elapsed, layers))
        if len(setup) < SETUP_MAX:
            setup.append(setup_probe(wl.name, seed))
        if perf_counter() >= deadline and (not trace or len(batches) >= 2):
            return batches, span_problems


def thread_speedup(wl, pl, span_problems: list[str]) -> float:
    """Same sweep at 1 and min(2, nproc) workers, untraced, alternating,
    three times each, fastest against fastest; plus one traced run whose
    span tree must attach the worker threads' spans to the sweep."""
    import spans

    if not hasattr(wl, "sweep_once"):
        return 0.0
    workers = min(2, os.cpu_count() or 1)
    times = {1: [], workers: []}
    for _ in range(3):
        for w in (1, workers):
            t0 = perf_counter()
            wl.sweep_once(pl, w)
            times[w].append(perf_counter() - t0)
    tracer = spans.Tracer()
    with tracer:
        wl.sweep_once(pl, workers)
    span_problems += tracer.table().problems()
    return min(times[1]) / min(times[workers])


def run(wl, seed: int, seconds: float, trace: bool, spec: dict, setup_runs: int = SETUP_RUNS):
    """One benchmark run; returns (result, record)."""
    import pathlens as pl

    setup = [setup_probe(wl.name, seed)]
    wl.setup(pl, seed)
    workdir = ROOT / ".bench_work" / f"{wl.name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl.prepare(workdir)
        batches, span_problems = run_batches(wl, pl, seed, seconds, trace, setup)
        setup += [setup_probe(wl.name, seed) for _ in range(setup_runs - len(setup))]
        speedup = thread_speedup(wl, pl, span_problems) if trace else 0.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            workdir.parent.rmdir()

    first = batches[0][0]
    gaps = wl.check(pl, first)
    failed = [c for c in first if c.error is not None or c.problems]
    drifted = sorted({
        f"{c.slice}/{c.op}#{c.instance}"
        for calls, _, _ in batches[1:] for c, c0 in zip(calls, first)
        if c.fingerprint != c0.fingerprint
    })
    plain = [calls for calls, _, layers in batches if layers is None]
    traced = [calls for calls, _, layers in batches if layers is not None]
    layers = [layers for _, _, layers in batches if layers is not None]
    times = call_times(plain)
    roles = [c.role for c in first]

    values = {
        "setup_s": median(t * REF_SECONDS / ref for t, ref in setup),
        "run_s": sum(times),
        "solve_s_p50": median(t for t, r in zip(times, roles) if r == "solve"),
        "heuristic_s_p50": median(t for t, r in zip(times, roles) if r == "heuristic"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fail_frac": len(failed) / len(first),
        "opt_gap_pct_p50": median(gaps),
        "opt_gap_pct_max": max(gaps, default=0.0),
    }
    if trace:
        values.update({k: median(m[k] for m in layers) for k in layers[0]})
        values["pareto.sweep.thread_speedup"] = speedup
        values["trace.overhead_frac"] = sum(call_times(traced)) / values["run_s"] - 1.0
    kind = "per_layer" if trace else "end_to_end"
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in spec[kind]}
    result = {
        "correct": not drifted and not span_problems,
        "attempted": len(first),
        "failed": len(failed),
        "metrics": metrics,
    }
    record = {
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": machine(),
        "instances": wl.describe(),
        "samples": {"setup_runs": len(setup), "batches": len(batches),
                    "untraced_batches": len(plain), "traced_batches": len(traced),
                    "calls_per_batch": len(first)},
        "timings": {"setup_s": setup,
                    "batch_wall_s": [dt for _, dt, layers in batches if layers is None],
                    "call_s_at_reference_speed": times,
                    "call_raw_median_s": [median(c.seconds for c in reps) for reps in zip(*plain)],
                    "reference_s": [c.ref_before for calls in plain for c in calls]},
        "quality": {k: values[k] for k in ("fail_frac", "opt_gap_pct_p50", "opt_gap_pct_max")},
        "failures": [{"call": f"{c.slice}/{c.op}#{c.instance}", "error": c.error,
                      "problems": c.problems} for c in failed],
        "nondeterministic_calls": drifted,
        "span_problems": span_problems,
    }
    return result, record


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pathlens" / "__init__.py").is_file():
        print(f"error: pathlens sources not found under {SRC}", file=sys.stderr)
        return 2
    spec_file = ROOT / "BENCHMARK.json"
    if not spec_file.is_file():
        print(f"error: {spec_file} not found", file=sys.stderr)
        return 2
    spec = json.loads(spec_file.read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    pl = importlib.import_module("pathlens")
    importlib.import_module("pathlens.cli")
    if Path(pl.__file__).resolve().parent != SRC / "pathlens":
        print(f"error: imported pathlens from {pl.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    result, record = run(WORKLOADS[args.workload](), args.seed, args.seconds,
                         bool(args.trace), spec)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
