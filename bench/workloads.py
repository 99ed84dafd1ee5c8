"""The benchmark's workloads: seeded inputs, the timed batch of calls into
pathlens, and the checks of each call's output.

Each workload is a fixed batch of calls made one after another by a single
client (a closed loop). `setup` builds the program's inputs for a seed;
`prepare` writes any files the benchmark itself needs; `batch` makes and
times the calls; `collect` reads back what a batch wrote; `check` decides,
outside the timed region, which calls failed.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
from checks import Moments

GAMMA = 1.0  # the CLI's default schedule, weight(k) = 1


@dataclass
class Call:
    slice: str
    op: str
    role: str | None  # "solve" or "heuristic": the end-to-end metric it feeds
    instance: int = 0
    seconds: float = 0.0
    ref_before: float = 0.0  # reference_seconds() just before the call
    ref_after: float = 0.0  # ... and just after it
    output: object = None
    error: str | None = None
    fingerprint: object = None
    artifacts: list[bytes] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)


# A fixed piece of numpy work, timed right before every call: small solves
# in a Python loop and one bulk array expression, the two kinds of work
# pathlens does. See run.call_times.
_REF = np.random.default_rng(0)
_REF_A = _REF.standard_normal((6, 6))
_REF_H = _REF_A @ _REF_A.T + 6.0 * np.eye(6)
_REF_B = _REF.standard_normal(6)
_REF_Q = _REF.standard_normal((1000, 6, 6))
_REF_U = _REF.standard_normal((1000, 6))


def reference_seconds() -> float:
    t0 = perf_counter()
    b = _REF_B.copy()
    for _ in range(200):
        b = b + 1e-3 * np.linalg.solve(_REF_H, b)
    R = _REF_Q[:, None, :, :] + _REF_U[:, :, None, None] * _REF_Q[:, None, :, :]
    np.einsum("nkcc->", R)
    return perf_counter() - t0


def timed(call: Call, fn) -> Call:
    """Run fn() as the call's work, recording its wall time and any error.
    An error is the call's outcome, so it is recorded, never raised."""
    call.ref_before = reference_seconds()
    t0 = perf_counter()
    try:
        call.output = fn()
    except Exception as exc:  # counted as a failed call
        call.error = f"{type(exc).__name__}: {exc}"
    call.seconds = perf_counter() - t0
    return call


def path_fingerprint(path):
    return None if path is None else (tuple(path.base.coefficients), path.steps)


def _rng(seed: int, slice_tag: int, i: int) -> np.random.Generator:
    return np.random.default_rng([seed, slice_tag, i])


def regression_data(rng, n: int, d: int, collinear: bool = False):
    """Mildly correlated features and a noisy linear target, as in the
    acceptance tests' bench_instance. With `collinear`, the last feature
    is the first plus 1e-7 noise (gram condition number ~1e14)."""
    Z = rng.standard_normal((n, d))
    A = np.eye(d) + 0.3 * rng.standard_normal((d, d))
    X = Z @ A
    if collinear:
        X[:, -1] = X[:, 0] + 1e-7 * rng.standard_normal(n)
    beta = rng.standard_normal(d)
    y = X @ beta + rng.standard_normal(n) * 0.5 * np.std(X @ beta)
    return X, y


def standardized(X, y):
    return (X - X.mean(axis=0)) / X.std(axis=0), (y - y.mean()) / y.std()


def feature_names(d: int) -> tuple[str, ...]:
    return tuple(f"x{i + 1}" for i in range(d))


@dataclass
class Instance:
    stats: object  # pathlens.SufficientStats
    moments: Moments  # the benchmark's own copy, for checks
    base: object  # pathlens.LinearModel, the zero model


def make_instance(pl, rng, n: int, d: int, collinear: bool = False) -> Instance:
    X, y = standardized(*regression_data(rng, n, d, collinear))
    names = feature_names(d)
    stats = pl.compute_stats(pl.Dataset(X, y, names))
    return Instance(stats, Moments.of(X, y), pl.LinearModel.zeros(names))


def loss_of(inst: Instance, path, alpha) -> float:
    return checks.path_loss(inst.moments, path.base.coefficients, path.steps, alpha)


def gap_pct(heuristic: float, exact: float) -> float:
    return 100.0 * (heuristic - exact) / exact


class Workload:
    name = ""

    def setup(self, pl, seed: int):
        """Build the program's inputs (timed as set-up, in a fresh process)."""

    def prepare(self, workdir: Path):
        """Write files only the benchmark needs (not timed)."""

    def batch(self, pl) -> list[Call]:
        raise NotImplementedError

    def collect(self, calls: list[Call]):
        """Fingerprint each call's output right after its batch."""
        for call in calls:
            call.fingerprint = path_fingerprint(call.output)

    def check(self, pl, calls: list[Call]) -> list[float]:
        """Fill in each call's problems; return the heuristic gaps in %."""
        raise NotImplementedError

    def describe(self) -> dict:
        raise NotImplementedError


class Explain(Workload):
    name = "explain"
    D, N, K_MAX, Q, INSTANCES = 5, 100, 6, 2, 6

    def setup(self, pl, seed):
        self.schedule = pl.WeightSchedule.geometric(GAMMA)
        self.instances = [make_instance(pl, _rng(seed, 1, i), self.N, self.D)
                          for i in range(self.INSTANCES)]
        self.targets = [pl.ols(inst.stats) for inst in self.instances]

    def batch(self, pl):
        calls = []
        for i, (inst, target) in enumerate(zip(self.instances, self.targets)):
            exact = timed(Call("explain", "best_explanation", "solve", instance=i),
                          lambda: pl.best_explanation(inst.stats, inst.base, target,
                                                      self.schedule, self.K_MAX))
            K = exact.output.K if exact.output is not None else self.K_MAX
            cfg = pl.OptimizerConfig(K=K, schedule=self.schedule, endpoint=target,
                                     q=self.Q, seed=i)
            heur = timed(Call("explain", f"local_improvement q={self.Q}", "heuristic",
                              instance=i),
                         lambda: pl.local_improvement(inst.stats, inst.base, cfg))
            calls += [exact, heur]
        return calls

    def check(self, pl, calls):
        gaps = []
        for exact, heur in zip(calls[::2], calls[1::2]):
            inst = self.instances[exact.instance]
            target = self.targets[exact.instance].coefficients
            losses = {}
            for call in (exact, heur):
                if call.output is None:
                    continue
                path = call.output
                alpha = self.schedule.weights(path.K)
                call.problems += checks.endpoint_problems(path.base.coefficients, path.steps,
                                                          target)
                call.problems += checks.stationarity_problems(
                    inst.moments, path.base.coefficients, path.steps, alpha, pinned=True)
                losses[call.op] = loss_of(inst, path, alpha)
            if exact.output is not None and heur.output is not None:
                exact.problems += checks.no_worse_problems(
                    losses[exact.op], {heur.op: losses[heur.op]})
                gaps.append(gap_pct(losses[heur.op], losses[exact.op]))
        return gaps

    def describe(self):
        return {"slices": [{"slice": "explain", "instances": self.INSTANCES, "n": self.N,
                            "d": self.D, "K_max": self.K_MAX, "schedule": "geometric(1)",
                            "endpoint": "ols", "heuristic": f"q={self.Q}, T=100, K=exact K"}]}


class Search(Workload):
    name = "search"
    N = 100
    MAIN_D, MAIN_K, MAIN_N = 6, 9, 3
    ZERO_D, ZERO_K, ZERO_N = 6, 5, 3
    ILL_D, ILL_K, ILL_N = 4, 4, 24
    BUDGET = 10**8

    def setup(self, pl, seed):
        self.schedule = pl.WeightSchedule.geometric(GAMMA)
        self.zero_alpha = np.r_[1.0, np.zeros(self.ZERO_K - 2), 1.0]
        self.ill_alpha = np.r_[1.0, np.zeros(self.ILL_K - 2), 1.0]
        self.main = [make_instance(pl, _rng(seed, 2, i), self.N, self.MAIN_D)
                     for i in range(self.MAIN_N)]
        self.zero = [make_instance(pl, _rng(seed, 3, i), self.N, self.ZERO_D)
                     for i in range(self.ZERO_N)]
        self.ill = [make_instance(pl, _rng(seed, 4, i), self.N, self.ILL_D, collinear=True)
                    for i in range(self.ILL_N)]

    def batch(self, pl):
        calls = []
        exact_cfg = pl.OptimizerConfig(K=self.MAIN_K, schedule=self.schedule, budget=self.BUDGET)
        for i, inst in enumerate(self.main):
            calls.append(timed(Call("main", "exact_path", "solve", instance=i),
                               lambda: pl.exact_path(inst.stats, inst.base, exact_cfg)))
            for q in (1, 2):
                cfg = pl.OptimizerConfig(K=self.MAIN_K, schedule=self.schedule, q=q,
                                         seed=1000 * q + i)
                calls.append(timed(Call("main", f"local_improvement q={q}",
                                        "heuristic" if q == 2 else None, instance=i),
                                   lambda: pl.local_improvement(inst.stats, inst.base, cfg)))
        for name, insts, alpha in (("zero-weight", self.zero, self.zero_alpha),
                                   ("ill-conditioned", self.ill, self.ill_alpha)):
            cfg = pl.OptimizerConfig(K=alpha.shape[0], schedule=pl.WeightSchedule.explicit(alpha))
            for i, inst in enumerate(insts):
                calls.append(timed(Call(name, "exact_path", None, instance=i),
                                   lambda: pl.exact_path(inst.stats, inst.base, cfg)))
        return calls

    def check(self, pl, calls):
        gaps = []
        alpha = self.schedule.weights(self.MAIN_K)
        main = [c for c in calls if c.slice == "main"]
        for exact, *heurs in zip(main[::3], main[1::3], main[2::3]):
            inst = self.main[exact.instance]
            others = {}
            for call in heurs:
                if call.output is None:
                    continue
                call.problems += checks.stationarity_problems(
                    inst.moments, call.output.base.coefficients, call.output.steps, alpha,
                    pinned=False)
                others[call.op] = loss_of(inst, call.output, alpha)
            if exact.output is None:
                continue
            greedy = pl.greedy_path(inst.stats, inst.base, self.MAIN_K)
            others["greedy"] = loss_of(inst, greedy, alpha)
            loss = loss_of(inst, exact.output, alpha)
            exact.problems += checks.stationarity_problems(
                inst.moments, exact.output.base.coefficients, exact.output.steps, alpha,
                pinned=False)
            exact.problems += checks.no_worse_problems(loss, others)
            gaps += [gap_pct(others[c.op], loss) for c in heurs if c.op in others]
        small = {"zero-weight": (self.zero, self.zero_alpha),
                 "ill-conditioned": (self.ill, self.ill_alpha)}
        for call in calls:
            if call.slice == "main" or call.output is None:
                continue
            insts, a = small[call.slice]
            inst = insts[call.instance]
            call.problems += checks.oracle_problems(inst.moments, loss_of(inst, call.output, a), a)
        return gaps

    def describe(self):
        return {"slices": [
            {"slice": "main", "instances": self.MAIN_N, "n": self.N, "d": self.MAIN_D,
             "K": self.MAIN_K, "schedule": "geometric(1)", "endpoint": "free",
             "heuristics": "q=1 and q=2, T=100"},
            {"slice": "zero-weight", "instances": self.ZERO_N, "n": self.N, "d": self.ZERO_D,
             "K": self.ZERO_K, "schedule": self.zero_alpha.tolist(), "check": "brute force"},
            {"slice": "ill-conditioned", "instances": self.ILL_N, "n": self.N, "d": self.ILL_D,
             "K": self.ILL_K, "schedule": self.ill_alpha.tolist(),
             "collinear": "x4 = x1 + 1e-7 noise", "check": "brute force"},
        ]}


class Front(Workload):
    name = "front"
    ROWS, D, K = 100_000, 6, 6

    def setup(self, pl, seed):
        importlib.import_module("pathlens.cli")
        self.seed = seed

    def prepare(self, workdir):
        X, y = regression_data(_rng(self.seed, 5, 0), self.ROWS, self.D)
        self.names = feature_names(self.D)
        self.standardized = standardized(X, y)
        self.csv = workdir / "data.csv"
        with open(self.csv, "w", encoding="utf-8") as fh:
            fh.write(",".join(self.names + ("y",)) + "\n")
            np.savetxt(fh, np.column_stack([X, y]), delimiter=",", fmt="%.17g")
        self.moments = Moments.of(*self.standardized)
        self.front_stem = workdir / "front"
        self.path_json = workdir / "path.json"
        self.reference = None
        self.sweep_stats = None

    def cli(self, pl, *argv) -> int:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return pl.cli.main([*argv])

    def batch(self, pl):
        io_args = ("--input", str(self.csv), "--target", "y", "--K", str(self.K),
                   "--gamma", str(GAMMA))
        return [
            timed(Call("front", "pathlens pareto", "solve"),
                  lambda: self.cli(pl, "pareto", *io_args, "--out", str(self.front_stem))),
            timed(Call("front", "pathlens path local", "heuristic"),
                  lambda: self.cli(pl, "path", "local", *io_args, "--endpoint", "free",
                                   "--out", str(self.path_json))),
        ]

    def collect(self, calls):
        pareto, local = calls
        files = ([self.front_stem.with_suffix(".json"), self.front_stem.with_suffix(".csv")],
                 [self.path_json])
        for call, paths in zip((pareto, local), files):
            blobs = [p.read_bytes() if p.exists() else b"" for p in paths]
            call.fingerprint = (call.output, [hashlib.sha256(b).hexdigest() for b in blobs])
            call.artifacts = blobs
            for p in paths:
                p.unlink(missing_ok=True)

    def check(self, pl, calls):
        pareto, local = calls
        for call in calls:
            if call.error is None and call.output != 0:
                call.problems.append(f"exit code {call.output}")
            if call.error is None and not all(call.artifacts):
                call.problems.append("artifact missing")
        if not pareto.problems and pareto.error is None:
            payload = json.loads(pareto.artifacts[0])
            pareto.problems += checks.front_problems(self.moments, payload, self.names, GAMMA)
            rows = pareto.artifacts[1].decode("utf-8").splitlines()[1:]
            stored = [f"{p['interp_loss']!r},{p['cost']!r},{p['K']},{p['lambda']!r}"
                      for p in payload["points"]]
            if rows != stored:
                pareto.problems.append("front CSV rows differ from the front JSON")
        if local.problems or local.error is not None:
            return []
        path = json.loads(local.artifacts[0])
        index = {name: i for i, name in enumerate(self.names)}
        steps = [(index[s["feature"]], s["value"]) for s in path["steps"]]
        alpha = GAMMA ** np.arange(1, len(steps) + 1)
        local.problems += checks.stationarity_problems(self.moments, path["base"], steps, alpha,
                                                       pinned=False)
        loss = checks.path_loss(self.moments, path["base"], steps, alpha)
        ref = self.exact_reference(pl)
        if ref > loss + checks.LOSS_RTOL * abs(loss):
            local.problems.append(f"heuristic loss {loss!r} beats the exact optimum {ref!r}")
        return [gap_pct(loss, ref)]

    def sweep_once(self, pl, workers: int):
        """The CLI's sweep through the API, for the thread-scaling probe."""
        if self.sweep_stats is None:
            ds, _ = pl.standardize(pl.load_csv(self.csv, "y"))
            self.sweep_stats = pl.compute_stats(ds)
        schedule = pl.WeightSchedule.geometric(GAMMA)
        cfg = pl.OptimizerConfig(K=0, schedule=schedule, q=2)
        base = pl.LinearModel.zeros(self.names)
        return pl.sweep(self.sweep_stats, base, schedule, pl.default_lambda_grid(), self.K,
                        cfg=cfg, workers=workers)

    def exact_reference(self, pl) -> float:
        """Exact K-step loss on the same data, for the heuristic's gap."""
        if self.reference is None:
            stats = pl.compute_stats(pl.Dataset(*self.standardized, self.names))
            cfg = pl.OptimizerConfig(K=self.K, schedule=pl.WeightSchedule.geometric(GAMMA))
            path = pl.exact_path(stats, pl.LinearModel.zeros(self.names), cfg)
            alpha = GAMMA ** np.arange(1, self.K + 1)
            self.reference = checks.path_loss(self.moments, path.base.coefficients, path.steps,
                                              alpha)
        return self.reference

    def describe(self):
        return {"slices": [{"slice": "front", "rows": self.ROWS, "d": self.D, "K_max": self.K,
                            "schedule": "geometric(1)", "lambda_grid": "CLI default, 61 values",
                            "sweep_workers": 1, "heuristic": "path local, endpoint free, K=6"}]}


WORKLOADS = {w.name: w for w in (Explain, Search, Front)}
