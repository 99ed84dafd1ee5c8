"""The accuracy/interpretability tradeoff: weighted-sum sweep and front report.

For a tradeoff weight lam >= 0, the scalarized problem

    min over K in {0..K_max}, paths of length K of
        cost(model_K) + lam * sum_k alpha_k cost(model_k)

reduces, for each K, to the fixed-length path optimizer with modified
weights alpha'_k = lam*alpha_k (k < K) and alpha'_K = lam*alpha_K + 1.
Sweeping lam over a grid traces the weighted-sum-reachable part of the
Pareto front between final cost and interpretability loss; points inside
non-convex gaps of the true front are not reachable this way and no attempt
is made to fill them.

Only the weights change with lam, so the exact solver serves a whole grid
with one enumeration per K: the scalarized weight rows of the grid values
go through optimizers.exact_paths together, and each value gets
exactly the path a solve for that value alone returns. A value skips the
lengths that cannot improve it. Model k differs from the base in at most k
coordinates, so it costs at least the best-subset cost C*(k)
(optimizers._best_subset_floor), and no path of length K scores below
C*(K) + lam * sum_{k<=K} alpha_k C*(k). A value's point changes only on a
strictly lower score, so where that bound exceeds its best score from
shorter lengths by more than rounding (optimizers._rules_out, the rule
best_explanation skips its lengths by), neither solver runs, and every
point is the one a search of every length returns. solve_tradeoff is the
one-value case of the same grid solver.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import InputError
from .inner import as_weights
from .optimizers import (OptimizerConfig, _best_subset_floor, _rules_out, check_budget,
                         exact_paths, exact_path, local_improvement)
from .paths import CoordinatePath, WeightSchedule, path_to_json, weighted_loss
from .regression import LinearModel, SufficientStats, cost

DEFAULT_GRID_SIZE = 61


def default_lambda_grid() -> np.ndarray:
    """61 logarithmically spaced tradeoff weights in [1e-3, 1e3]."""
    return np.logspace(-3.0, 3.0, DEFAULT_GRID_SIZE)


@dataclass(frozen=True, eq=False)
class ParetoPoint:
    """One tradeoff solution: final model, its cost, the path's loss."""

    model: LinearModel
    cost: float
    interp_loss: float
    K: int
    lam: float
    path: CoordinatePath


@dataclass(frozen=True, eq=False)
class FrontReport:
    """Non-dominated tradeoff points (sorted by interp_loss) plus metadata."""

    points: tuple[ParetoPoint, ...]
    metadata: dict


def solve_tradeoff(stats: SufficientStats, base: LinearModel, schedule: WeightSchedule,
                   lam: float, K_max: int, solver: str = "exact",
                   cfg: OptimizerConfig | None = None) -> ParetoPoint:
    """Minimize cost + lam * interpretability loss over path lengths 0..K_max.

    The K=0 candidate is the empty path with value cost(base). Ties across
    lengths resolve to the shorter path. `cfg` carries optimizer knobs
    (seed, q, T, budget, patience); its K/schedule/endpoint fields are
    ignored and steps are continuous.
    """
    if not 0 <= lam < np.inf:
        raise InputError("lambda must be finite and >= 0")
    return _solve_grid(stats, base, schedule, np.array([lam], dtype=float), K_max, solver, cfg)[0]


def _solve_grid(stats: SufficientStats, base: LinearModel, schedule: WeightSchedule,
                lams: np.ndarray, K_max: int, solver: str,
                cfg: OptimizerConfig | None) -> list[ParetoPoint]:
    """solve_tradeoff at every value of lams (>= 0), in order.

    Per length K the scalarized weight rows of all values are built at
    once. Rows whose lower bound (see the module docstring) exceeds their
    best score by more than _OBJECTIVE_RTOL max(1, |best|) (_rules_out)
    are skipped; the exact solver enumerates the patterns once for the rest
    (optimizers.exact_paths), the local solver runs per remaining value.
    Once the bound without its final-cost term rules out every row, so do
    all longer lengths, and the loop ends: a K_max that no budget bounds
    (the local solver's) costs only the lengths walked. The exact solver
    checks d**K_max against the budget before any weight is built.
    """
    if K_max < 0:
        raise InputError("K_max must be >= 0")
    if solver not in ("exact", "local"):
        raise InputError("solver must be 'exact' or 'local'")
    base_cfg = cfg if cfg is not None else OptimizerConfig(K=0, schedule=schedule)
    if solver == "exact":
        check_budget(stats.d, K_max, base_cfg.budget)
    best = [(cost(stats, base), CoordinatePath(base, ()), 0)] * len(lams)  # value, path, K
    alpha = schedule.weights(K_max)
    # exact_paths checks no row. Products are monotone, so the largest
    # lambda's row overflows wherever any row does (0 * inf is nan).
    with np.errstate(over="ignore", invalid="ignore"):  # as_weights rejects inf and nan
        as_weights(lams.max() * alpha + (np.arange(K_max) == K_max - 1), K_max)
    # Every (lam, K) row's search scores at least d candidates; the floor
    # solves no more subsets than that in all, nor more than the budget.
    floor = _best_subset_floor(stats, base, K_max,
                               min(base_cfg.budget, len(lams) * K_max * stats.d))
    spent = np.zeros(len(lams))  # sum_{k <= K} lam alpha_k floor[k], each row's
    for K in range(1, K_max + 1):
        # No length-K path of a row scores below its bound, and `value < best`
        # is strict: a bound above best by more than rounding cannot improve.
        # No term is below 0, so once spent alone rules out every row, every
        # longer length does too.
        values = np.array([value for value, _, _ in best])
        with np.errstate(over="ignore"):  # where a term overflows, the row's scores do too
            spent = spent + lams * alpha[K - 1] * floor[K]
        if _rules_out(spent, values).all():
            break
        live = np.flatnonzero(~_rules_out(floor[K] + spent, values))
        if not live.size:
            continue
        alphas = lams[live, None] * alpha[:K]
        alphas[:, -1] += 1.0
        weights = [WeightSchedule.explicit(a) for a in alphas]
        kcfg = replace(base_cfg, K=K, endpoint=None, step_mode="continuous",
                       seed=base_cfg.seed + K, q=min(base_cfg.q, K))
        if solver == "exact":
            paths = exact_paths(stats, base, alphas)
        else:
            paths = [local_improvement(stats, base, replace(kcfg, schedule=s)) for s in weights]
        for j, path, s in zip(live, paths, weights):
            value = weighted_loss(stats, path, s)
            if value < best[j][0]:
                best[j] = (value, path, K)
    points = []
    for lam, (_, path, K) in zip(lams, best):
        model = path.final
        points.append(ParetoPoint(
            model=model,
            cost=cost(stats, model),
            interp_loss=weighted_loss(stats, path, schedule),
            K=K,
            lam=float(lam),
            path=path,
        ))
    return points


def _dominates(a, b) -> bool:
    """True iff the (interp_loss, cost) pair a dominates b by more than 1e-12."""
    (la, ca), (lb, cb) = a, b
    return la <= lb + 1e-12 and ca <= cb + 1e-12 and (la < lb - 1e-12 or ca < cb - 1e-12)


def _drop_dominated(points: list[ParetoPoint]) -> list[ParetoPoint]:
    pairs = [(p.interp_loss, p.cost) for p in points]
    return [p for i, p in enumerate(points)
            if not any(j != i and _dominates(q, pairs[i]) for j, q in enumerate(pairs))]


def sweep(stats: SufficientStats, base: LinearModel, schedule: WeightSchedule,
          lambda_grid, K_max: int, solver: str = "exact",
          cfg: OptimizerConfig | None = None, workers: int = 1) -> FrontReport:
    """Trace the front by solving the tradeoff at every grid value.

    The exact solver checks its budget before it builds anything of size
    K_max, then makes one batched enumeration per K for the grid values that
    length can still improve (see the module docstring). Duplicate
    models across lambdas are merged keeping the smallest lambda; dominated
    points are dropped; points are sorted by interp_loss. `workers` splits
    the sorted grid into that many contiguous chunks, each solved by one
    batched call in its own thread; results are merged in grid order, so
    the report is identical for any number of workers.
    """
    grid = np.asarray(lambda_grid, dtype=float)
    if grid.ndim != 1 or grid.shape[0] == 0:
        raise InputError("lambda grid must be a nonempty 1-d sequence")
    if not np.all((grid >= 0) & (grid < np.inf)):
        raise InputError("lambda grid values must be finite and >= 0")
    grid = np.sort(grid)
    workers = max(1, min(workers, grid.shape[0]))

    def solve_chunk(lams):
        return _solve_grid(stats, base, schedule, lams, K_max, solver, cfg)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            chunks = pool.map(solve_chunk, np.array_split(grid, workers))
            results = [point for chunk in chunks for point in chunk]
    else:
        results = solve_chunk(grid)

    seen = {}
    for point in results:  # ascending lambda, so first wins = smallest lambda
        key = (point.K, tuple(np.round(point.model.coefficients, 10)))
        if key not in seen:
            seen[key] = point
    points = _drop_dominated(list(seen.values()))
    points.sort(key=lambda p: (p.interp_loss, p.cost))
    metadata = {
        "schedule": schedule.describe(),
        "lambda_grid": [float(v) for v in grid],
        "K_max": int(K_max),
        "solver": solver,
        "selected_K": [int(p.K) for p in results],
    }
    return FrontReport(tuple(points), metadata)


def expected_cost_path(stats: SufficientStats, base: LinearModel, p,
                       solver: str = "exact",
                       cfg: OptimizerConfig | None = None) -> CoordinatePath:
    """Path minimizing the expected cost E_k[cost(model_k)] when the kept
    length is drawn from the distribution p over {1..K_max}, by running the
    K_max-step optimizer with weights alpha_k = p_k."""
    schedule = WeightSchedule.distribution(p)
    K_max = len(schedule.values)
    base_cfg = cfg if cfg is not None else OptimizerConfig(K=0, schedule=schedule)
    kcfg = replace(base_cfg, K=K_max, schedule=schedule, endpoint=None, step_mode="continuous",
                   q=min(base_cfg.q, max(K_max, 1)))
    if solver == "exact":
        return exact_path(stats, base, kcfg)
    if solver == "local":
        return local_improvement(stats, base, kcfg)
    raise InputError("solver must be 'exact' or 'local'")


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

FRONT_CSV_HEADER = "interp_loss,cost,K,lambda"


def front_to_json(report: FrontReport) -> dict:
    return {
        "points": [
            {
                "model": [float(v) for v in p.model.coefficients],
                "cost": p.cost,
                "interp_loss": p.interp_loss,
                "K": p.K,
                "lambda": p.lam,
                "path": path_to_json(p.path),
            }
            for p in report.points
        ],
        "metadata": report.metadata,
    }


def front_to_csv(report: FrontReport) -> str:
    """CSV with columns interp_loss, cost, K, lambda; the first two columns
    are the plottable front."""
    lines = [FRONT_CSV_HEADER]
    for p in report.points:
        lines.append(f"{p.interp_loss!r},{p.cost!r},{p.K},{p.lam!r}")
    return "\n".join(lines) + "\n"


def check_front_rows(rows) -> list[str]:
    """Re-verify a deserialized front: pairwise non-domination and sorting.

    rows: sequence of (interp_loss, cost) pairs of floats. Returns a list
    of human-readable violations (empty = verified).
    """
    problems = []
    for i, row in enumerate(rows):
        j = next((j for j, other in enumerate(rows) if j != i and _dominates(other, row)), None)
        if j is not None:
            problems.append(f"row {i + 1} is dominated by row {j + 1}")
    for i in range(1, len(rows)):
        if rows[i][0] < rows[i - 1][0] - 1e-12:
            problems.append(f"rows {i} and {i + 1} are not sorted by interp_loss")
    return problems
