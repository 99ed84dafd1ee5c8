"""Outer search over step-coordinate patterns: greedy, direct, exact, local.

exact_path enumerates every index vector in {0..d-1}^K and solves the inner
quadratic exactly for each, so it is globally optimal for the configured
objective. Two exhaustive enumerators do the work. Free endpoints with
continuous steps, positive weights and a positive-definite gram run through
an incremental Cholesky recursion (_enum_free_fast): the inner system's
factor for a pattern extends the factor of its prefix, and the recursion
only ever needs the fixed-size summaries Q = B'B, u = B'y, ssq = ||y||^2 per
tree node (B = L^{-1} G[pattern, :]), so whole levels are expanded as flat
array operations. The first steps of a pattern pick a segment root; below
each root the levels are expanded breadth-first down to the last regular
level. That level and the fused last two steps then run over blocks of
parent nodes, about _BLOCK_LEAVES leaves each, with in-place arithmetic, so
their temporaries stay in cache. Every objective is computed with the same
operations whatever the block size, and blocks keep the running best with a
strict <, so exact ties resolve to the lexicographically first pattern.
The recursion takes a stack of weight rows and carries them on a leading
array axis, so one pass serves many schedules of the same length (the
tradeoff sweep's grid, see exact_free_paths); each row's objectives are
bitwise those of a pass of its own. Rows whose factorization breaks down
are marked, and fall back to the other enumerator.
Every other case, pinned endpoints and unit steps included, runs through one
chunked enumerator (_enum_direct) that ranks candidates by their attained
objective: continuous steps by batched inner solves (inner.solve_patterns),
unit steps with no solve. There, objectives within 1e-12 (relative) are
ties. Candidates sharing an optimal objective resolve to the
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
    attained_objectives,
    build_systems_batch,
    check_endpoint,
    check_index_vector,
    greedy_step,
    path_from_deltas,
    solve_batch,
    solve_patterns,
    tail_weights,
)
from .paths import CoordinatePath, WeightSchedule, model_complexity, weighted_loss
from .regression import LinearModel, SufficientStats, cost_of, ols

DEFAULT_BUDGET = 10_000_000
_SEGMENT_CAP = 2_000_000  # max leaves under one root, over a pass's rows: sets roots and rows
_BLOCK_LEAVES = 50_000  # leaves per block of the last levels (~400 KB temporaries, fit L2)
_BLOCK_ROW_NODES = 64  # parent nodes of each weight row a block holds, at least
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


def _mark_broken(broken: np.ndarray, piv: np.ndarray, floor: np.ndarray) -> None:
    """Set broken[l] for each weight row l (leading axis) holding a pivot at
    or below its floor."""
    bad = piv <= floor
    if bad.any():
        broken |= bad.reshape(bad.shape[0], -1).any(axis=1)


def _candidate_count(d: int, cfg: OptimizerConfig) -> int:
    n = d**cfg.K
    if cfg.step_mode == "unit":
        n *= 3**cfg.K
    return n


def _grow(QT, uT, ssq, G, gd, r, wm, children_q, broken):
    """Expand every node by one step on each coordinate.

    Weight rows run along the first axis and nodes along the last, QT
    (L, d, d, N) and uT (L, d, N), with the step's weight wm shaped
    (L, 1, 1), so every broadcast operand is a contiguous row. The d*N
    children come back in the same layout, child c of node p at c*N + p;
    their QT and uT are None unless children_q (they are not needed after
    the last step). Rows whose pivots break down are marked in broken.
    """
    L, d, N = uT.shape
    dQ = np.einsum("...iin->...in", QT)
    piv2 = wm * gd[:, None] - wm * wm * dQ
    _mark_broken(broken, piv2, _PIVOT_RTOL * wm * gd[:, None])
    piv = np.sqrt(piv2)
    ynew = (wm * r[:, None] - wm * uT) / piv
    ssq = (ssq[:, None, :] + ynew * ynew).reshape(L, d * N)
    if not children_q:
        return None, None, ssq
    row = ((G[:, :, None] - wm[..., None] * QT) / piv[:, :, None, :]).transpose(0, 2, 1, 3)
    QTc = np.multiply(row[:, :, None, :, :], row[:, None, :, :, :])
    QTc += QT[:, :, :, None, :]
    uTc = np.multiply(row, ynew[:, None, :, :])
    uTc += uT[:, :, None, :]
    return QTc.reshape(L, d, d, d * N), uTc.reshape(L, d, d * N), ssq


def _fused_leaves(QT, uT, ssq, G, gd, r, w1, w2, top, broken):
    """Objectives of every two-step completion of each node, as vals[l, c1, c2, n].

    The last two steps in one pass, evaluated in place in two (L, d, d, N)
    buffers, in _grow's layout; w1 and w2 are shaped (L, 1, 1) and top (L,).
    Each value goes through the same operations in the same order whatever
    L and N are, so it does not depend on how rows and nodes are blocked.
    Rows whose pivots break down are marked in broken.
    """
    w1q, w2q = w1[..., None], w2[..., None]
    dQ = np.einsum("...iin->...in", QT)
    piv1 = np.multiply(w1 * w1, dQ)
    np.subtract(w1 * gd[:, None], piv1, out=piv1)
    _mark_broken(broken, piv1, _PIVOT_RTOL * w1 * gd[:, None])
    np.sqrt(piv1, out=piv1)
    y1 = np.multiply(w1, uT)
    np.subtract(w1 * r[:, None], y1, out=y1)
    y1 /= piv1
    row = np.multiply(w1q, QT)
    np.subtract(G[:, :, None], row, out=row)
    row /= piv1[:, :, None, :]
    piv2 = np.multiply(row, row)
    piv2 += dQ[:, None, :, :]
    piv2 *= w2q * w2q
    np.subtract(w2q * gd[None, :, None], piv2, out=piv2)
    _mark_broken(broken, piv2, _PIVOT_RTOL * w2q * gd[None, :, None])
    y2 = row
    y2 *= y1[:, :, None, :]
    y2 += uT[:, None, :, :]
    y2 *= w2q
    np.subtract(w2q * r[None, :, None], y2, out=y2)
    y2 /= np.sqrt(piv2, out=piv2)
    y1 *= y1
    np.subtract((top[:, None] - ssq)[:, None, :], y1, out=y1)
    y2 *= y2
    return np.subtract(y1[:, :, None, :], y2, out=y2)


def _lexicographic(a: np.ndarray, d: int, levels: int) -> np.ndarray:
    """Reorder the last axis of `a` (the nodes `levels` _grow steps made,
    the newest step slowest) so that the first step varies slowest."""
    k = a.ndim - 1
    a = a.reshape(a.shape[:k] + (d,) * levels)
    return a.transpose(*range(k), *range(a.ndim - 1, k - 1, -1)).reshape(a.shape[:k] + (-1,))


def _root(G, r, w, riv):
    """QT (d, d, 1), uT (d, 1), ssq (1,) of the pattern prefix riv under tail
    weights w, by a Cholesky factorization of its inner system; all NaN if
    the factorization fails."""
    t = riv.shape[0]
    H = np.minimum.outer(w[:t], w[:t]) * G[np.ix_(riv, riv)]
    try:
        Linv = np.linalg.inv(np.linalg.cholesky(H))
    except np.linalg.LinAlgError:
        Linv = np.full((t, t), np.nan)
    B0 = Linv @ G[riv, :]
    y0 = Linv @ (w[:t] * r[riv])
    return (np.ascontiguousarray((B0.T @ B0)[:, :, None]),
            np.ascontiguousarray((B0.T @ y0)[:, None]), np.array([float(y0 @ y0)]))


@np.errstate(divide="ignore", invalid="ignore")  # broken rows' arithmetic is discarded
def _enum_free_fast(stats: SufficientStats, base: np.ndarray, K: int, alphas: np.ndarray):
    """Exhaustive free-endpoint search via the incremental factor recursion,
    for every row of a stack of weight rows alphas (L, K) at once.

    Returns each row's optimal objective (L,), its pattern (L, K), and a
    mask broken (L,) of the rows whose factorization hit a non-positive
    pivot; their objective and pattern mean nothing, and the caller solves
    them another way (_enum_direct). A row's results are bitwise those of a
    one-row call: the rows share every array operation along a leading axis
    but no arithmetic. Strictly positive weights and a positive-definite
    gram matrix keep rows from breaking down.
    """
    G = stats.gram
    d = stats.d
    r = stats.residual_cross(base)
    c0 = cost_of(stats, base)
    gd = np.ascontiguousarray(np.diag(G))

    fuse = K >= 2
    stop = K - 2 if fuse else K
    t = 0
    while d ** (K - t) > _SEGMENT_CAP:
        t += 1
    t = min(t, stop)
    # Levels t..split-1 are expanded breadth-first; the rest runs per block
    # of level-`split` nodes, each block yielding about _BLOCK_LEAVES leaves
    # over all rows.
    split = max(t, stop - 1)
    leaves_per_node = d ** (K - split)
    # Rows per pass: at most _SEGMENT_CAP leaves below one root, and blocks
    # that hold _BLOCK_ROW_NODES nodes of each row (or all of a row's), so
    # the inner loops along the node axis stay long.
    row_nodes = min(d ** (split - t), _BLOCK_ROW_NODES)
    per_pass = max(1, min(_SEGMENT_CAP // d ** (K - t),
                          _BLOCK_LEAVES // (leaves_per_node * row_nodes)))
    L = alphas.shape[0]
    if L > per_pass:
        parts = [_enum_free_fast(stats, base, K, alphas[g0:g0 + per_pass])
                 for g0 in range(0, L, per_pass)]
        return tuple(np.concatenate(part) for part in zip(*parts))

    w = tail_weights(alphas)
    wb = w[:, :, None, None]  # step m's weights, shaped (L, 1, 1), are wb[:, m]
    top = np.array([float(a.sum()) for a in alphas]) * c0  # each row summed as a one-row call
    block = max(1, _BLOCK_LEAVES // (leaves_per_node * L))

    best_val = np.full(L, math.inf)
    best_root, best_leaf = [(0,) * t] * L, [0] * L
    broken = np.zeros(L, dtype=bool)
    for root in itertools.product(range(d), repeat=t):
        riv = np.asarray(root, dtype=np.intp)
        if t:
            QT, uT, ssq = (np.stack(a) for a in zip(*(_root(G, r, wj, riv) for wj in w)))
            broken |= np.isnan(ssq[:, 0])
        else:
            QT = np.zeros((L, d, d, 1))
            uT = np.zeros((L, d, 1))
            ssq = np.zeros((L, 1))
        for m in range(t, split):
            QT, uT, ssq = _grow(QT, uT, ssq, G, gd, r, wb[:, m], True, broken)
        if split > t:
            QT, uT, ssq = (_lexicographic(a, d, split - t) for a in (QT, uT, ssq))
        for p0 in range(0, ssq.shape[1], block):
            QTb, uTb, sb = QT[..., p0:p0 + block], uT[..., p0:p0 + block], ssq[:, p0:p0 + block]
            node_axes = (d,) * (stop - split) + sb.shape[1:]
            for m in range(split, stop):
                QTb, uTb, sb = _grow(QTb, uTb, sb, G, gd, r, wb[:, m], m + 1 < K, broken)
            if fuse:
                vals = _fused_leaves(QTb, uTb, sb, G, gd, r, wb[:, K - 2], wb[:, K - 1], top,
                                     broken)
            else:
                vals = top[:, None] - sb
            low = vals.reshape(L, -1).min(axis=1)
            for j in np.flatnonzero(low < best_val):
                best_val[j] = low[j]
                leaves = vals[j].reshape(-1, *node_axes).T  # lexicographic order
                best_root[j], best_leaf[j] = root, p0 * leaves_per_node + int(np.argmin(leaves))
    nsuf = K - t
    ivs = [root + tuple(leaf // d ** (nsuf - 1 - p) % d for p in range(nsuf))
           for root, leaf in zip(best_root, best_leaf)]
    return best_val, np.asarray(ivs, dtype=int).reshape(L, K), broken


def _iv_chunks(d: int, K: int, chunk: int):
    """All d**K index vectors in lexicographic order, `chunk` rows at a time."""
    radix = d ** np.arange(K - 1, -1, -1)
    total = d**K
    for s in range(0, total, chunk):
        yield np.arange(s, min(s + chunk, total))[:, None] // radix % d


def _beats(value: float, incumbent: float) -> bool:
    """True iff value is lower than incumbent by more than a tie."""
    return value + _TIE_RTOL * abs(value) < incumbent


def _keep_best(best, vals: np.ndarray, ivs: np.ndarray, deltas: np.ndarray):
    """The incumbent (objective, iv, delta), or the first candidate tied with
    the chunk's minimum if that beats it."""
    low = vals.min()
    j = int(np.argmax(vals <= low + _TIE_RTOL * abs(low)))
    if _beats(vals[j], best[0]):
        return float(vals[j]), ivs[j].copy(), deltas[j].copy()
    return best


def _enum_direct(stats: SufficientStats, base: LinearModel, K: int, alpha: np.ndarray,
                 endpoint: LinearModel | None = None, unit: bool = False):
    """Chunked exhaustive search of every pattern, free or pinned to `endpoint`.

    Continuous steps solve each pattern's inner problem in batches, which
    handles zero weights and singular grams. Unit steps change one
    coefficient by -1, 0 or +1: each pattern is paired with all 3^K sign
    vectors and scored with no solve, and a pinned candidate that misses the
    target scores +inf. Candidates are ranked by their attained objective;
    returns (objective, iv, delta) of the lexicographically first best one.
    """
    if endpoint is not None:
        _check_reachable(base, endpoint, K)
    target = None if endpoint is None else endpoint.coefficients
    if unit:
        signs = np.asarray(list(itertools.product((-1.0, 0.0, 1.0), repeat=K)))
        chunk = max(1, 200_000 // len(signs))
    else:
        chunk = max(256, _CHUNK_ENTRIES // (K * K))
    best = (math.inf, None, None)
    for ivs in _iv_chunks(stats.d, K, chunk):
        if unit:
            deltas = np.tile(signs, (ivs.shape[0], 1))
            ivs = np.repeat(ivs, len(signs), axis=0)
            hit = slice(None)
            if target is not None:
                finals = np.repeat(base.coefficients[None, :], ivs.shape[0], axis=0)
                rows = np.arange(ivs.shape[0])
                for k in range(K):
                    finals[rows, ivs[:, k]] += deltas[:, k]
                hit = np.all(np.abs(finals - target[None, :]) <= 1e-9, axis=1)
            vals = np.full(ivs.shape[0], math.inf)
            H, b = build_systems_batch(stats, base.coefficients, ivs[hit], alpha)
            vals[hit] = attained_objectives(stats, base.coefficients, alpha, H, b, deltas[hit])
        else:
            deltas, vals = solve_patterns(stats, base.coefficients, ivs, alpha, target)
        best = _keep_best(best, vals, ivs, deltas)
    if best[1] is None:
        kind = "unit-step" if unit else "index"
        raise InfeasibleError(f"no {kind} pattern of this length reaches the target")
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
        if cfg.endpoint is not None:
            _check_reachable(base, cfg.endpoint, 0)
        return CoordinatePath(base, ())
    _check_budget(_candidate_count(stats.d, cfg), cfg.budget)
    alpha = as_weights(cfg.schedule, K)
    if cfg.endpoint is None and cfg.step_mode == "continuous":
        return exact_free_paths(stats, base, alpha[None], cfg.budget)[0]
    _, iv, delta = _enum_direct(stats, base, K, alpha, cfg.endpoint, cfg.step_mode == "unit")
    return path_from_deltas(base, iv, delta)


def _check_reachable(base: LinearModel, target: LinearModel, K: int) -> None:
    changed = model_complexity(base, target)
    if changed > K:
        raise InfeasibleError(
            f"target differs from base in {changed} coordinates; K={K} steps cannot reach it"
        )


def _check_budget(n_cand: int, budget: int) -> None:
    if n_cand > budget:
        raise BudgetError(
            f"exact search needs {n_cand:,} inner solves, over the budget of "
            f"{budget:,}; raise the budget or use local_improvement"
        )


def exact_free_paths(stats: SufficientStats, base: LinearModel, alphas: np.ndarray,
                     budget: int = DEFAULT_BUDGET) -> list[CoordinatePath]:
    """exact_path with a free endpoint and continuous steps, under each row
    of a stack of weight rows alphas (L, K), K >= 1, as its schedule.

    Rows with strictly positive weights on a positive-definite gram share
    one _enum_free_fast pass, and their chosen patterns one batched solve;
    every path is bitwise the one a one-row call returns. Other rows, and
    the rows that pass marks as broken, run _enum_direct one at a time.
    """
    K = alphas.shape[1]
    _check_budget(stats.d**K, budget)
    alphas = as_weights(alphas, K)
    paths = [None] * alphas.shape[0]
    rows = np.flatnonzero(np.all(alphas > 0, axis=1))
    if rows.size:
        eigs = np.linalg.eigvalsh(stats.gram)
        if not eigs[0] > 1e-10 * max(eigs[-1], 0.0):
            rows = rows[:0]
    if rows.size:
        _, ivs, broken = _enum_free_fast(stats, base.coefficients, K, alphas[rows])
        rows, ivs = rows[~broken], ivs[~broken]
        H, b = build_systems_batch(stats, base.coefficients, ivs, alphas[rows])
        for j, iv, delta in zip(rows, ivs, solve_batch(H, b)[0]):
            paths[j] = path_from_deltas(base, iv, delta)
    for j, path in enumerate(paths):
        if path is None:
            _, iv, delta = _enum_direct(stats, base, K, alphas[j])
            paths[j] = path_from_deltas(base, iv, delta)
    return paths


# ---------------------------------------------------------------------------
# Local improvement heuristic
# ---------------------------------------------------------------------------


def _default_iv0(stats: SufficientStats, base: LinearModel, cfg: OptimizerConfig) -> np.ndarray:
    if cfg.endpoint is None:
        return np.asarray([i for i, _ in greedy_path(stats, base, cfg.K).steps], dtype=int)
    # Endpoint mode needs the support covered; install it in direct-path
    # order, then cycle to fill the remaining slots.
    _check_reachable(base, cfg.endpoint, cfg.K)
    support = np.nonzero(cfg.endpoint.coefficients - base.coefficients)[0]
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
    if cfg.step_mode != "continuous":
        raise InputError("local_improvement supports continuous steps only")
    if iv0 is None:
        iv = _default_iv0(stats, base, cfg)
    else:
        iv = check_index_vector(iv0, stats.d)
        if iv.shape[0] != K:
            raise InputError(f"iv0 has length {iv.shape[0]}, expected K={K}")
    alpha = as_weights(cfg.schedule, K)

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
