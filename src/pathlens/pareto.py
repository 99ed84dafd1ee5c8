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
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import InputError
from .optimizers import OptimizerConfig, exact_path, local_improvement
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


def _scalarized_weights(schedule: WeightSchedule, lam: float, K: int) -> np.ndarray:
    alpha = schedule.weights(K)
    out = lam * alpha
    out[-1] += 1.0
    return out


def solve_tradeoff(stats: SufficientStats, base: LinearModel, schedule: WeightSchedule,
                   lam: float, K_max: int, solver: str = "exact",
                   cfg: OptimizerConfig | None = None) -> ParetoPoint:
    """Minimize cost + lam * interpretability loss over path lengths 0..K_max.

    The K=0 candidate is the empty path with value cost(base). Ties across
    lengths resolve to the shorter path. `cfg` carries optimizer knobs
    (seed, q, T, budget, patience); its K/schedule/endpoint fields are
    ignored and steps are continuous.
    """
    if lam < 0:
        raise InputError("lambda must be >= 0")
    if K_max < 0:
        raise InputError("K_max must be >= 0")
    if solver not in ("exact", "local"):
        raise InputError("solver must be 'exact' or 'local'")
    base_cfg = cfg if cfg is not None else OptimizerConfig(K=0, schedule=schedule)
    best = (cost(stats, base), CoordinatePath(base, ()), 0)  # value, path, K
    for K in range(1, K_max + 1):
        weights = WeightSchedule.explicit(_scalarized_weights(schedule, lam, K))
        kcfg = replace(base_cfg, K=K, schedule=weights, endpoint=None, step_mode="continuous",
                       seed=base_cfg.seed + K, q=min(base_cfg.q, K))
        if solver == "exact":
            path = exact_path(stats, base, kcfg)
        else:
            path = local_improvement(stats, base, kcfg)
        value = weighted_loss(stats, path, weights)
        if value < best[0]:
            best = (value, path, K)
    _, path, K = best
    model = path.final
    return ParetoPoint(
        model=model,
        cost=cost(stats, model),
        interp_loss=weighted_loss(stats, path, schedule),
        K=K,
        lam=float(lam),
        path=path,
    )


def _drop_dominated(points: list[ParetoPoint]) -> list[ParetoPoint]:
    keep = []
    for p in points:
        dominated = False
        for q in points:
            if q is p:
                continue
            if (
                q.cost <= p.cost + 1e-12
                and q.interp_loss <= p.interp_loss + 1e-12
                and (q.cost < p.cost - 1e-12 or q.interp_loss < p.interp_loss - 1e-12)
            ):
                dominated = True
                break
        if not dominated:
            keep.append(p)
    return keep


def sweep(stats: SufficientStats, base: LinearModel, schedule: WeightSchedule,
          lambda_grid, K_max: int, solver: str = "exact",
          cfg: OptimizerConfig | None = None, workers: int | None = None) -> FrontReport:
    """Trace the front by solving the tradeoff at every grid value.

    Duplicate models across lambdas are merged keeping the smallest lambda;
    dominated points are dropped; points are sorted by interp_loss.
    `workers` (default: the PATHLENS_THREADS env var, else 1) parallelizes
    over lambda values; results are merged by grid index so the report is
    identical regardless of scheduling.
    """
    grid = np.asarray(lambda_grid, dtype=float)
    if grid.ndim != 1 or grid.shape[0] == 0:
        raise InputError("lambda grid must be a nonempty 1-d sequence")
    if np.any(grid < 0):
        raise InputError("lambda grid values must be >= 0")
    grid = np.sort(grid)
    if workers is None:
        workers = int(os.environ.get("PATHLENS_THREADS", "1"))
    workers = max(1, min(workers, grid.shape[0]))

    def solve_one(lam):
        return solve_tradeoff(stats, base, schedule, lam, K_max, solver, cfg)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(solve_one, grid))
    else:
        results = [solve_one(lam) for lam in grid]

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

    rows: sequence of (interp_loss, cost) pairs. Returns a list of
    human-readable violations (empty = verified).
    """
    problems = []
    rows = [(float(a), float(b)) for a, b in rows]
    for i, (la, ca) in enumerate(rows):
        for j, (lb, cb) in enumerate(rows):
            if i == j:
                continue
            if lb <= la + 1e-12 and cb <= ca + 1e-12 and (lb < la - 1e-12 or cb < ca - 1e-12):
                problems.append(f"row {i + 1} is dominated by row {j + 1}")
                break
    for i in range(1, len(rows)):
        if rows[i][0] < rows[i - 1][0] - 1e-12:
            problems.append(f"rows {i} and {i + 1} are not sorted by interp_loss")
    return problems
