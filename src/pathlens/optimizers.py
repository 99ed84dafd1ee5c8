"""Outer search over step-coordinate patterns: greedy, direct, exact, local.

exact_path enumerates every index vector in {0..d-1}^K and solves the inner
quadratic exactly for each, so it is globally optimal for the configured
objective. Free endpoints with positive weights and a positive-definite gram
run through an incremental Cholesky recursion: the inner system's factor for
a pattern extends the factor of its prefix, and the recursion only ever
needs the fixed-size summaries Q = B'B, u = B'y, ssq = ||y||^2 per tree node
(B = L^{-1} G[pattern, :]), so whole levels are expanded as flat array
operations. Every other case, pinned endpoints included, runs through one
chunked enumerator of batched inner solves (inner.solve_patterns) that ranks
candidates by their attained objective; there, objectives within 1e-12
(relative) are ties. Candidates sharing an optimal objective resolve to the
lexicographically smallest pattern.

local_improvement is a batch-q local search warm-started from the greedy
pattern: each iteration redraws q random step positions and exhaustively
rescans all d^q coordinate reassignments, keeping the best (improvements
accumulate across iterations).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, InfeasibleError, InputError
from .inner import (
    as_weights,
    batch_objectives,
    check_endpoint,
    check_index_vector,
    greedy_step,
    path_from_deltas,
    solve_free,
    solve_patterns,
    tail_weights,
)
from .paths import CoordinatePath, WeightSchedule, model_complexity, weighted_loss
from .regression import LinearModel, SufficientStats, cost_of, ols

DEFAULT_BUDGET = 10_000_000
_SEGMENT_CAP = 2_000_000  # max leaves expanded per enumeration segment
_CHUNK_ENTRIES = 150_000  # K*K system entries per _enum_direct chunk (~4k patterns at K=6)
_TIE_RTOL = 1e-12  # objectives this close (relative) are ties, kept by the earlier candidate
_PIVOT_RTOL = 1e-10


@dataclass(frozen=True)
class OptimizerConfig:
    """Shared knobs for the exact and local-improvement optimizers.

    K: path length; schedule: step weights; endpoint: optional target model
    (None = free endpoint); step_mode: "continuous" or "unit" (unit steps
    change one coefficient by exactly +/-1 or leave the model unchanged);
    q/T/seed drive the local search; budget caps exact enumeration size;
    patience, if set, stops the local search after that many consecutive
    non-improving iterations.
    """

    K: int
    schedule: WeightSchedule
    endpoint: LinearModel | None = None
    step_mode: str = "continuous"
    seed: int = 0
    q: int = 1
    T: int = 100
    budget: int = DEFAULT_BUDGET
    patience: int | None = None

    def __post_init__(self):
        if self.K < 0:
            raise InputError("K must be >= 0")
        if self.step_mode not in ("continuous", "unit"):
            raise InputError("step_mode must be 'continuous' or 'unit'")
        if self.q < 1:
            raise InputError("q must be >= 1")
        if self.K >= 1 and self.q > self.K:
            raise InputError(f"q={self.q} exceeds path length K={self.K}")
        if self.T < 0:
            raise InputError("T must be >= 0")
        if self.budget < 1:
            raise InputError("budget must be >= 1")


def greedy_path(stats: SufficientStats, base: LinearModel, K: int) -> CoordinatePath:
    """K forward steps, each the single most cost-reducing coordinate move."""
    if K < 0:
        raise InputError("K must be >= 0")
    current = base
    steps = []
    for _ in range(K):
        i, value, _ = greedy_step(stats, current)
        current = current.with_coordinate(i, value)
        steps.append((i, value))
    return CoordinatePath(base, tuple(steps))


def direct_path(stats: SufficientStats, base: LinearModel, K: int) -> CoordinatePath:
    """Install final least-squares coefficients one coordinate at a time.

    Each step permanently sets one not-yet-set coordinate of the OLS
    solution, picking the coordinate whose installation gives the lowest
    immediate cost. Requires K <= model_complexity(base, ols).
    """
    if K < 0:
        raise InputError("K must be >= 0")
    target = ols(stats)
    remaining = [i for i in range(stats.d) if base.coefficients[i] != target.coefficients[i]]
    if K > len(remaining):
        raise InputError(
            f"K={K} exceeds the {len(remaining)} coordinates where OLS differs from the base"
        )
    steps = [(i, float(target.coefficients[i]))
             for i in _install_order(stats, base, target, remaining, K)]
    return CoordinatePath(base, tuple(steps))


def _install_order(stats: SufficientStats, base: LinearModel, target: LinearModel,
                   coords, n: int) -> list[int]:
    """The first n of `coords` to set to their target values, each the one
    whose installation gives the lowest immediate cost (ties break to the
    lowest index)."""
    current = base
    remaining = sorted(int(i) for i in coords)
    order = []
    for _ in range(n):
        _, i = min(
            (cost_of(stats, current.with_coordinate(i, target.coefficients[i]).coefficients), i)
            for i in remaining
        )
        order.append(i)
        current = current.with_coordinate(i, float(target.coefficients[i]))
        remaining.remove(i)
    return order


# ---------------------------------------------------------------------------
# Exact enumeration
# ---------------------------------------------------------------------------


class _PivotBreakdown(Exception):
    """Internal: the incremental factorization hit a non-positive pivot."""


def _candidate_count(d: int, cfg: OptimizerConfig) -> int:
    n = d**cfg.K
    if cfg.step_mode == "unit":
        n *= 3**cfg.K
    return n


def _enum_free_fast(stats: SufficientStats, base: np.ndarray, K: int, alpha: np.ndarray):
    """Exhaustive free-endpoint search via the incremental factor recursion.

    Requires strictly positive weights and a positive-definite gram matrix;
    raises _PivotBreakdown otherwise so the caller can fall back to
    _enum_direct.
    """
    G = stats.gram
    d = stats.d
    r = stats.residual_cross(base)
    c0 = cost_of(stats, base)
    gd = np.ascontiguousarray(np.diag(G))
    w = tail_weights(alpha)
    S = float(alpha.sum())
    W = np.minimum.outer(w, w)

    fuse = K >= 2
    stop = K - 2 if fuse else K
    t = 0
    while d ** (K - t) > _SEGMENT_CAP:
        t += 1
    t = min(t, stop)

    best_val, best_iv = math.inf, None
    for root in itertools.product(range(d), repeat=t):
        riv = np.asarray(root, dtype=np.intp)
        if t:
            H = W[:t, :t] * G[np.ix_(riv, riv)]
            try:
                L = np.linalg.cholesky(H)
            except np.linalg.LinAlgError:
                raise _PivotBreakdown from None
            Linv = np.linalg.inv(L)
            B0 = Linv @ G[riv, :]
            y0 = Linv @ (w[:t] * r[riv])
            Q = np.ascontiguousarray((B0.T @ B0)[None])
            u = np.ascontiguousarray((B0.T @ y0)[None])
            ssq = np.array([float(y0 @ y0)])
        else:
            Q = np.zeros((1, d, d))
            u = np.zeros((1, d))
            ssq = np.zeros(1)
        N = 1
        for m in range(t, stop):
            wm = w[m]
            dQ = np.einsum("ncc->nc", Q)
            piv2 = wm * gd[None, :] - wm * wm * dQ
            if np.any(piv2 <= _PIVOT_RTOL * wm * gd[None, :]):
                raise _PivotBreakdown
            piv = np.sqrt(piv2)
            ynew = (wm * r[None, :] - wm * u) / piv
            ssq = (ssq[:, None] + ynew * ynew).reshape(N * d)
            if m + 1 < K:
                row = (G[None, :, :] - wm * Q) / piv[:, :, None]
                Q = (Q[:, None, :, :] + row[:, :, :, None] * row[:, :, None, :]).reshape(
                    N * d, d, d
                )
                u = (u[:, None, :] + row * ynew[:, :, None]).reshape(N * d, d)
            N *= d
        if fuse:
            w1, w2 = w[K - 2], w[K - 1]
            dQ = np.einsum("ncc->nc", Q)
            piv1sq = w1 * gd[None, :] - w1 * w1 * dQ
            if np.any(piv1sq <= _PIVOT_RTOL * w1 * gd[None, :]):
                raise _PivotBreakdown
            piv1 = np.sqrt(piv1sq)
            y1 = (w1 * r[None, :] - w1 * u) / piv1
            row = (G[None, :, :] - w1 * Q) / piv1[:, :, None]
            dQ2 = dQ[:, None, :] + row * row
            piv2sq = w2 * gd[None, None, :] - w2 * w2 * dQ2
            if np.any(piv2sq <= _PIVOT_RTOL * w2 * gd[None, None, :]):
                raise _PivotBreakdown
            u2 = u[:, None, :] + row * y1[:, :, None]
            y2 = (w2 * r[None, None, :] - w2 * u2) / np.sqrt(piv2sq)
            vals = (S * c0 - ssq[:, None, None]) - y1[:, :, None] ** 2 - y2**2
            vals = vals.reshape(-1)
        else:
            vals = S * c0 - ssq
        j = int(np.argmin(vals))
        if vals[j] < best_val:
            best_val = float(vals[j])
            nsuf = K - t
            digits = tuple(int(j // d ** (nsuf - 1 - p)) % d for p in range(nsuf))
            best_iv = root + digits
    return best_val, np.asarray(best_iv, dtype=int)


def _iv_chunks(d: int, K: int, chunk: int):
    it = itertools.product(range(d), repeat=K)
    while True:
        block = list(itertools.islice(it, chunk))
        if not block:
            return
        yield np.asarray(block, dtype=int)


def _beats(value: float, incumbent: float) -> bool:
    """True iff value is lower than incumbent by more than a tie."""
    return value + _TIE_RTOL * abs(value) < incumbent


def _first_best(vals: np.ndarray) -> int:
    """Index of the first value tied with the minimum."""
    low = vals.min()
    return int(np.argmax(vals <= low + _TIE_RTOL * abs(low)))


def _enum_direct(stats: SufficientStats, base: LinearModel, K: int, alpha: np.ndarray,
                 endpoint: LinearModel | None = None):
    """Chunked batched solves of every pattern, free or pinned to `endpoint`.

    Handles zero weights and singular grams. Candidates are ranked by their
    attained objective; returns (objective, iv, delta) of the
    lexicographically first best pattern.
    """
    if endpoint is not None:
        changed = model_complexity(base, endpoint)
        if changed > K:
            raise InfeasibleError(
                f"target differs from base in {changed} coordinates; K={K} steps cannot reach it"
            )
    target = None if endpoint is None else endpoint.coefficients
    best = (math.inf, None, None)
    for ivs in _iv_chunks(stats.d, K, max(256, _CHUNK_ENTRIES // (K * K))):
        deltas, vals = solve_patterns(stats, base.coefficients, ivs, alpha, target)
        j = _first_best(vals)
        if _beats(vals[j], best[0]):
            best = (float(vals[j]), ivs[j].copy(), deltas[j].copy())
    if best[1] is None:
        raise InfeasibleError("no index pattern of this length reaches the target")
    return best


def _enum_unit(stats: SufficientStats, base: LinearModel, K: int, alpha: np.ndarray,
               target: LinearModel | None):
    """Unit-step search: each step changes one coefficient by -1, 0, or +1."""
    d = stats.d
    signs = np.asarray(list(itertools.product((-1.0, 0.0, 1.0), repeat=K)))
    best = None  # (objective, iv, delta)
    for ivs in _iv_chunks(d, K, max(1, 200_000 // max(len(signs), 1))):
        B = ivs.shape[0]
        ivs_rep = np.repeat(ivs, len(signs), axis=0)
        deltas = np.tile(signs, (B, 1))
        if target is not None:
            finals = np.repeat(base.coefficients[None, :], ivs_rep.shape[0], axis=0)
            rows = np.arange(ivs_rep.shape[0])
            for k in range(K):
                finals[rows, ivs_rep[:, k]] += deltas[:, k]
            keep = np.all(np.abs(finals - target.coefficients[None, :]) <= 1e-9, axis=1)
            ivs_rep, deltas = ivs_rep[keep], deltas[keep]
            if ivs_rep.shape[0] == 0:
                continue
        vals = batch_objectives(stats, base.coefficients, ivs_rep, deltas, alpha)
        j = int(np.argmin(vals))
        if best is None or vals[j] < best[0]:
            best = (float(vals[j]), ivs_rep[j].copy(), deltas[j].copy())
    if best is None:
        raise InfeasibleError("no unit-step pattern of this length reaches the target")
    return best


def exact_path(stats: SufficientStats, base: LinearModel, cfg: OptimizerConfig) -> CoordinatePath:
    """Globally optimal path of length cfg.K for sum_k alpha_k * cost(model_k).

    Exhausts all d^K index vectors (times 3^K sign patterns in unit mode),
    solving the inner problem exactly for each; respects cfg.endpoint.
    Raises BudgetError before starting if the candidate count exceeds
    cfg.budget, and InfeasibleError if no candidate reaches the endpoint.
    """
    K = cfg.K
    if base.d != stats.d:
        raise InputError("base dimension does not match stats")
    if K == 0:
        if cfg.endpoint is not None and not np.array_equal(
            cfg.endpoint.coefficients, base.coefficients
        ):
            raise InfeasibleError("K=0 cannot reach a target different from the base")
        return CoordinatePath(base, ())
    n_cand = _candidate_count(stats.d, cfg)
    if n_cand > cfg.budget:
        raise BudgetError(
            f"exact search needs {n_cand:,} inner solves, over the budget of "
            f"{cfg.budget:,}; raise the budget or use local_improvement"
        )
    alpha = as_weights(cfg.schedule, K)

    if cfg.step_mode == "unit":
        _, iv, delta = _enum_unit(stats, base, K, alpha, cfg.endpoint)
        return path_from_deltas(base, iv, delta)

    if cfg.endpoint is None and np.all(alpha > 0):
        eigs = np.linalg.eigvalsh(stats.gram)
        if eigs[0] > 1e-10 * max(eigs[-1], 0.0):
            try:
                _, iv = _enum_free_fast(stats, base.coefficients, K, alpha)
                delta, _ = solve_free(stats, base, iv, alpha)
                return path_from_deltas(base, iv, delta)
            except _PivotBreakdown:
                pass
    _, iv, delta = _enum_direct(stats, base, K, alpha, cfg.endpoint)
    return path_from_deltas(base, iv, delta)


# ---------------------------------------------------------------------------
# Local improvement heuristic
# ---------------------------------------------------------------------------


def _default_iv0(stats: SufficientStats, base: LinearModel, cfg: OptimizerConfig) -> np.ndarray:
    if cfg.endpoint is None:
        return np.asarray([i for i, _ in greedy_path(stats, base, cfg.K).steps], dtype=int)
    # Endpoint mode needs the support covered; install it in direct-path
    # order, then cycle to fill the remaining slots.
    support = np.nonzero(cfg.endpoint.coefficients - base.coefficients)[0]
    if len(support) > cfg.K:
        raise InfeasibleError(
            f"target differs in {len(support)} coordinates; K={cfg.K} steps cannot reach it"
        )
    if len(support) == 0:
        return np.zeros(cfg.K, dtype=int)
    order = _install_order(stats, base, cfg.endpoint, support, len(support))
    return np.resize(np.asarray(order, dtype=int), cfg.K)


def local_improvement(stats: SufficientStats, base: LinearModel, cfg: OptimizerConfig,
                      iv0=None) -> CoordinatePath:
    """Randomized batch local search over index vectors, warm-started.

    Per iteration, draw q step positions uniformly without replacement and
    scan all d^q coordinate reassignments of those positions, inner-solving
    each candidate; a candidate replaces the incumbent only when it improves
    the objective by more than 1e-12 (guards against cycling). Improvements
    carry over to the next iteration. Reproducible for a fixed cfg.seed.
    """
    K = cfg.K
    if K == 0:
        return exact_path(stats, base, cfg)
    if iv0 is None:
        iv = _default_iv0(stats, base, cfg)
    else:
        iv = check_index_vector(iv0, stats.d)
        if iv.shape[0] != K:
            raise InputError(f"iv0 has length {iv.shape[0]}, expected K={K}")
    alpha = as_weights(cfg.schedule, K)
    if cfg.step_mode != "continuous":
        raise InputError("local_improvement supports continuous steps only")

    target = None
    if cfg.endpoint is not None:
        check_endpoint(stats, base, iv, cfg.endpoint)
        target = cfg.endpoint.coefficients
    deltas, vals = solve_patterns(stats, base.coefficients, iv[None], alpha, target)
    best_obj, best_iv, best_delta = float(vals[0]), iv, deltas[0]
    assignments = np.asarray(list(itertools.product(range(stats.d), repeat=cfg.q)), dtype=int)
    rng = np.random.default_rng(cfg.seed)
    stale = 0
    for _ in range(cfg.T):
        positions = np.sort(rng.choice(K, size=cfg.q, replace=False))
        ivs = np.repeat(best_iv[None, :], assignments.shape[0], axis=0)
        ivs[:, positions] = assignments
        deltas, vals = solve_patterns(stats, base.coefficients, ivs, alpha, target)
        j = int(np.argmin(vals))
        if vals[j] < best_obj - 1e-12:
            best_obj, best_iv, best_delta = float(vals[j]), ivs[j], deltas[j]
            stale = 0
        else:
            stale += 1
            if cfg.patience is not None and stale >= cfg.patience:
                break
    return path_from_deltas(base, best_iv, best_delta)


# ---------------------------------------------------------------------------
# Best explanations (fixed endpoint over a range of lengths)
# ---------------------------------------------------------------------------


def best_explanation(stats: SufficientStats, base: LinearModel, target: LinearModel,
                     schedule: WeightSchedule, K_max: int,
                     budget: int = DEFAULT_BUDGET) -> CoordinatePath:
    """Cheapest path from base that ends exactly at target, over lengths
    model_complexity .. K_max. The path's weighted_loss is the model's
    interpretability loss (a lower bound holds only up to K_max; longer
    explanations are not searched)."""
    complexity = model_complexity(base, target)
    if K_max < complexity:
        raise InfeasibleError(
            f"K_max={K_max} is below the target's complexity {complexity}"
        )
    if complexity == 0:
        # Extra steps can only add nonnegative weighted cost terms.
        return CoordinatePath(base, ())
    best = (math.inf, None)  # (loss, path); ties keep the shorter path
    for K in range(complexity, K_max + 1):
        cfg = OptimizerConfig(K=K, schedule=schedule, endpoint=target, budget=budget)
        path = exact_path(stats, base, cfg)
        loss = weighted_loss(stats, path, schedule)
        if _beats(loss, best[0]):
            best = (loss, path)
    return best[1]


def explanation_loss(stats: SufficientStats, base: LinearModel, target: LinearModel,
                     schedule: WeightSchedule, K_max: int,
                     budget: int = DEFAULT_BUDGET) -> float:
    """Interpretability loss of the best explanation; +inf when unreachable."""
    try:
        path = best_explanation(stats, base, target, schedule, K_max, budget)
    except InfeasibleError:
        return math.inf
    return weighted_loss(stats, path, schedule)
