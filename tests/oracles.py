"""Independent numerical oracles used to check the closed-form solvers.

Nothing here touches the package's normal-equation machinery: objectives are
evaluated by materializing paths and summing weighted model costs, free
minimization is plain gradient descent with finite-difference gradients and
a parabolic line search, and pinned endpoints are solved by SVD null-space
elimination of the endpoint constraints on normal equations assembled here.
The exceptions are unblocked_enum_free_fast, the breadth-first form of the
exact search's incremental factor recursion, kept as the reference for its
blocked form (and, with folded=False, for the algebra of its last two
steps), iterwise_local_improvement, the local search with one
solve_patterns call per iteration, kept as the reference for the search
that scores windows of iterations in one call, and every_pattern_direct,
the general enumerator over all d^K patterns from itertools.product, the
reference for the recursion's null steps inside zero-weight runs. rowwise_load_csv
is the pure-Python CSV reader that load_csv's one-call numpy parse must
match.
per_lambda_sweep is the tradeoff sweep that solves one exact_path (or
local_improvement) per lambda and length, the reference for the sweep that
enumerates once per length. brute_force_unit enumerates every unit-step
candidate, the reference for the dynamic program over lattice states.
best_subset_costs refits every coordinate subset by lstsq, the reference
for the best-subset cost floor that lets the sweep skip lengths.
all_lengths_explanation is best_explanation with an exact_path at every
length, the reference for the one that skips the lengths that floor rules
out. permutation_explanation scores every order of the changed
coordinates, the reference for the dynamic program over subsets that
serves pinned searches at the target's complexity.
"""

import csv
import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np

from pathlens.inner import (
    as_weights,
    check_endpoint,
    check_index_vector,
    path_from_deltas,
    solve_patterns,
    tail_weights,
)
from pathlens.optimizers import (
    _CHUNK_ENTRIES,
    _PIVOT_RTOL,
    _TIE_RTOL,
    DEFAULT_BUDGET,
    OptimizerConfig,
    _beats,
    _default_iv0,
    check_budget,
    exact_path,
    local_improvement,
)
from pathlens.errors import InfeasibleError, InputError
from pathlens.pareto import FrontReport, ParetoPoint, _drop_dominated
from pathlens.paths import CoordinatePath, WeightSchedule, model_complexity, weighted_loss
from pathlens.regression import Dataset, LinearModel, cost, cost_of


def eval_objective(stats, base, iv, delta, alpha):
    """sum_k alpha_k * mse(model_k), by direct accumulation of the steps."""
    beta = np.array(base, dtype=float)
    total = 0.0
    for k, (i, dv) in enumerate(zip(iv, delta)):
        beta[i] += dv
        mse = (
            stats.target_second_moment
            - 2.0 * float(beta @ stats.cross)
            + float(beta @ (stats.gram @ beta))
        )
        total += alpha[k] * mse
    return total


def batch_objectives(stats, base, ivs, deltas, alpha):
    """eval_objective for a (B, K) batch of (iv, delta) candidates at once."""
    B, K = ivs.shape
    betas = np.repeat(np.asarray(base, dtype=float)[None, :], B, axis=0)
    out = np.zeros(B)
    rows = np.arange(B)
    for k in range(K):
        betas[rows, ivs[:, k]] += deltas[:, k]
        mse = (
            stats.target_second_moment
            - 2.0 * (betas @ stats.cross)
            + np.einsum("bd,bd->b", betas @ stats.gram, betas)
        )
        out += alpha[k] * mse
    return out


def fd_gradient(stats, base, iv, delta, alpha, h=1e-6):
    """Central-difference gradient of the path objective in delta."""
    delta = np.asarray(delta, dtype=float)
    grad = np.empty_like(delta)
    for j in range(delta.shape[0]):
        up = delta.copy()
        dn = delta.copy()
        up[j] += h
        dn[j] -= h
        grad[j] = (
            eval_objective(stats, base, iv, up, alpha)
            - eval_objective(stats, base, iv, dn, alpha)
        ) / (2 * h)
    return grad


def fd_gradient_descent(stats, base, iv, alpha, max_iter=4000, tol=1e-10):
    """Minimize the path objective by steepest descent.

    The objective is quadratic in delta, so the line search along the
    negative gradient is solved exactly from three function evaluations.
    Returns (delta, objective).
    """
    delta = np.zeros(len(iv))
    value = eval_objective(stats, base, iv, delta, alpha)
    scale = max(1.0, abs(value))
    for _ in range(max_iter):
        g = fd_gradient(stats, base, iv, delta, alpha)
        gnorm = np.linalg.norm(g)
        if gnorm <= tol * scale:
            break
        step = 1.0 / max(gnorm, 1e-12)
        f0 = value
        f1 = eval_objective(stats, base, iv, delta - step * g, alpha)
        f2 = eval_objective(stats, base, iv, delta - 2 * step * g, alpha)
        denom = f0 - 2 * f1 + f2
        if denom <= 0:  # flat or numerically degenerate curvature
            t = 2 * step if f2 < f0 else step
        else:
            t = step * (3 * f0 - 4 * f1 + f2) / (2 * denom)
            t = min(max(t, 1e-3 * step), 1e6 * step)
        cand = delta - t * g
        cval = eval_objective(stats, base, iv, cand, alpha)
        if cval >= value - 1e-15 * scale:
            # Shrink until progress or give up on this direction.
            improved = False
            for _ in range(40):
                t *= 0.5
                cand = delta - t * g
                cval = eval_objective(stats, base, iv, cand, alpha)
                if cval < value:
                    improved = True
                    break
            if not improved:
                break
        delta, value = cand, cval
    return delta, value


def svd_fixed_endpoint(stats, base, iv, alpha, target):
    """Reference pinned-endpoint inner solve by SVD null-space elimination.

    The deltas of each touched coordinate c must sum to (target - base)_c.
    With A the (disjoint indicator) rows of these constraints, delta =
    delta_p + Z t, where delta_p is the minimum-norm particular solution and
    the orthonormal columns of Z span the null space of A. The reduced
    system Z'HZ t = Z'(b - H delta_p) is solved minimum-norm by
    eigendecomposition, with eigenvalues below 1e-12 * ||H|| counted as
    zero (lstsq's default cutoff is relative to Z'HZ itself, so it keeps
    the rounding noise of a reduced matrix that is null as a whole).

    Returns (delta, objective, singular), or None when the pattern never
    touches a coordinate where target and base differ.
    """
    iv = np.asarray(iv, dtype=int)
    alpha = np.asarray(alpha, dtype=float)
    base = np.asarray(base, dtype=float)
    diff = np.asarray(target, dtype=float) - base
    coords = sorted(set(iv.tolist()))
    if any(diff[c] != 0 and c not in coords for c in range(diff.shape[0])):
        return None
    w = np.cumsum(alpha[::-1])[::-1]
    K = iv.shape[0]
    H = np.array([[w[max(j, l)] * stats.gram[iv[j], iv[l]] for l in range(K)] for j in range(K)])
    b = w * (stats.cross - stats.gram @ base)[iv]
    A = np.zeros((len(coords), K))
    for row, c in enumerate(coords):
        A[row, iv == c] = 1.0
    delta_p = A.T @ (diff[coords] / A.sum(axis=1))
    singular = False
    delta = delta_p
    if K > len(coords):
        _, _, vt = np.linalg.svd(A)
        Z = vt[len(coords):].T
        evals, evecs = np.linalg.eigh(Z.T @ H @ Z)
        keep = evals > 1e-12 * np.linalg.norm(H, 2)
        singular = not np.all(keep)
        rhs = evecs.T @ (Z.T @ (b - H @ delta_p))
        delta = delta_p + Z @ (evecs[:, keep] @ (rhs[keep] / evals[keep]))
    return delta, eval_objective(stats, base, iv, delta, alpha), singular


def brute_force_explanation(stats, base, target, alpha_of, K_max):
    """Cheapest pinned path from base to target over lengths 1..K_max.

    Tries every index pattern of every length with svd_fixed_endpoint;
    alpha_of(K) gives the K step weights. Objectives within 1e-12
    (relative) of the optimum are ties; returns (objective, pattern) of the
    first tied pattern, shortest length first, then lexicographically.
    """
    found = []
    d = stats.gram.shape[0]
    for K in range(1, K_max + 1):
        for iv in itertools.product(range(d), repeat=K):
            solved = svd_fixed_endpoint(stats, base, iv, alpha_of(K), target)
            if solved is not None:
                found.append((solved[1], iv))
    low = min(obj for obj, _ in found)
    return next((obj, iv) for obj, iv in found if obj <= low + 1e-12 * abs(low))


def brute_force_unit(stats, base, K, alpha, target=None):
    """Exact unit-step search by enumeration: every index vector paired with
    every sign vector in {-1, 0, +1}^K, (3d)^K candidates, each scored by
    batch_objectives; a pinned candidate whose final model misses the target
    by more than 1e-9 in a coordinate scores +inf.

    Returns (objective, iv, signs, unique): the minimum objective, the first
    candidate in lexicographic (iv, signs) order within 1e-12 (relative) of
    it, and whether every candidate within 1e-10 of it visits the same
    states (a stay may name any coordinate), so that no tie rule is needed.
    """
    base = np.asarray(base, dtype=float)
    d = base.shape[0]
    signs = np.asarray(list(itertools.product((-1.0, 0.0, 1.0), repeat=K)))
    patterns = np.asarray(list(itertools.product(range(d), repeat=K)), dtype=int)
    ivs = np.repeat(patterns, len(signs), axis=0)
    deltas = np.tile(signs, (len(patterns), 1))
    vals = batch_objectives(stats, base, ivs, deltas, alpha)
    if target is not None:
        finals = np.repeat(base[None, :], ivs.shape[0], axis=0)
        for k in range(K):
            finals[np.arange(ivs.shape[0]), ivs[:, k]] += deltas[:, k]
        vals[~np.all(np.abs(finals - target) <= 1e-9, axis=1)] = np.inf
    low = vals.min()
    j = int(np.argmax(vals <= low + 1e-12 * abs(low)))
    near = vals <= low + 1e-10 * abs(low)
    moves = np.column_stack([np.where(deltas[near] != 0, ivs[near], 0), deltas[near]])
    return float(low), ivs[j], deltas[j], len(np.unique(moves, axis=0)) == 1


class PivotBreakdown(Exception):
    """unblocked_enum_free_fast hit a non-positive pivot."""


def unblocked_enum_free_fast(stats, base, K, alpha, folded=True):
    """optimizers._enum_fast with every level but the fused last two
    expanded breadth-first from the empty pattern, and those two run on all
    nodes at once. Returns (objective, pattern); raises PivotBreakdown where
    it marks the row broken.

    folded=True scores the last two steps by _fused_leaves' operations, in
    the same order. folded=False scores them from the explicit second pivot
    piv2 = w2 gd - w2^2 (diag(Q) + rho^2) and y2 = (w2 r - w2 u2) / piv2^1/2,
    the formula before the step weights were folded into per-node terms:
    equal up to rounding, so a second reference."""
    G = stats.gram
    d = stats.d
    r = stats.residual_cross(base)
    c0 = cost_of(stats, base)
    gd = np.ascontiguousarray(np.diag(G))
    w = tail_weights(alpha)
    S = float(alpha.sum())

    fuse = K >= 2
    stop = K - 2 if fuse else K
    Q = np.zeros((1, d, d))
    u = np.zeros((1, d))
    ssq = np.zeros(1)
    N = 1
    for m in range(stop):
        wm = w[m]
        dQ = np.einsum("ncc->nc", Q)
        piv2 = wm * gd[None, :] - wm * wm * dQ
        if not np.all(piv2 > _PIVOT_RTOL * wm * gd[None, :]):  # NaN breaks too
            raise PivotBreakdown
        piv = np.sqrt(piv2)
        ynew = (wm * r[None, :] - wm * u) / piv
        ssq = (ssq[:, None] + ynew * ynew).reshape(N * d)
        if m + 1 < K:
            row = (G[None, :, :] - wm * Q) / piv[:, :, None]
            Q = (Q[:, None, :, :] + row[:, :, :, None] * row[:, :, None, :]).reshape(N * d, d, d)
            u = (u[:, None, :] + row * ynew[:, :, None]).reshape(N * d, d)
        N *= d
    if fuse:
        w1, w2 = w[K - 2], w[K - 1]
        dQ = np.einsum("ncc->nc", Q)
        piv1sq = w1 * gd[None, :] - w1 * w1 * dQ
        if not np.all(piv1sq > _PIVOT_RTOL * w1 * gd[None, :]):
            raise PivotBreakdown
        if folded:
            s = 1 / np.sqrt(piv1sq)
            a = r[None, :] - u
            y1 = w1 * a * s
            C = (S * c0 - ssq[:, None]) - y1 * y1
            rho = (G[None, :, :] - w1 * Q) * s[:, :, None]
            h = rho * rho
            if not np.all((1 - _PIVOT_RTOL) * gd / w2 - dQ > h.max(axis=1)):
                raise PivotBreakdown
            y2sq = (a[:, None, :] - rho * y1[:, :, None]) ** 2 / ((gd / w2 - dQ)[:, None, :] - h)
            vals = (C[:, :, None] - y2sq).reshape(-1)
        else:
            piv1 = np.sqrt(piv1sq)
            y1 = (w1 * r[None, :] - w1 * u) / piv1
            row = (G[None, :, :] - w1 * Q) / piv1[:, :, None]
            dQ2 = dQ[:, None, :] + row * row
            piv2sq = w2 * gd[None, None, :] - w2 * w2 * dQ2
            if not np.all(piv2sq > _PIVOT_RTOL * w2 * gd[None, None, :]):
                raise PivotBreakdown
            u2 = u[:, None, :] + row * y1[:, :, None]
            y2 = (w2 * r[None, None, :] - w2 * u2) / np.sqrt(piv2sq)
            vals = (S * c0 - ssq[:, None, None]) - y1[:, :, None] ** 2 - y2**2
            vals = vals.reshape(-1)
    else:
        vals = S * c0 - ssq
    j = int(np.argmin(vals))  # nodes are in lexicographic order
    return float(vals[j]), np.asarray([j // d ** (K - 1 - p) % d for p in range(K)], dtype=int)


def every_pattern_direct(stats, base, K, alpha, target=None, chunk=None):
    """optimizers._enum_direct over all d^K patterns: solve_patterns on
    itertools.product in chunks of `chunk` (by default _enum_direct's), each
    chunk's first candidate tied with its minimum replacing the incumbent
    only if it beats it by more than a tie. Returns (objective, pattern)."""
    if chunk is None:
        chunk = max(1, _CHUNK_ENTRIES // (K * K))
    patterns = np.asarray(list(itertools.product(range(stats.d), repeat=K)), dtype=int)
    best = (math.inf, None)
    for s in range(0, len(patterns), chunk):
        ivs = patterns[s:s + chunk]
        vals = solve_patterns(stats, np.asarray(base, dtype=float), ivs, alpha, target)[1]
        low = vals.min()
        j = int(np.argmax(vals <= low + _TIE_RTOL * abs(low)))
        if vals[j] + _TIE_RTOL * abs(vals[j]) < best[0]:
            best = (float(vals[j]), ivs[j])
    return best


def best_subset_costs(stats, base, K_max):
    """C*(k) for k = 0..K_max: the least cost of base with the coordinates
    of one set of at most k refit by numpy.linalg.lstsq."""
    r = stats.cross - stats.gram @ base
    costs = [cost_of(stats, base)]
    for k in range(1, K_max + 1):
        least = costs[-1]
        for S in map(list, itertools.combinations(range(stats.d), min(k, stats.d))):
            beta = np.array(base, dtype=float)
            beta[S] += np.linalg.lstsq(stats.gram[np.ix_(S, S)], r[S], rcond=None)[0]
            least = min(least, cost_of(stats, beta))
        costs.append(least)
    return np.array(costs)


def permutation_explanation(stats, base, target, alpha):
    """The pinned path of exactly model_complexity(base, target) steps: each
    order of the changed coordinates, each set to its target value, scored
    by weighted_loss under the weights alpha; returns (loss, pattern) of the
    first order in itertools.permutations order (lexicographic) within
    1e-12 (relative) of the least loss."""
    base, target = np.asarray(base, dtype=float), np.asarray(target, dtype=float)
    names = tuple(f"x{i}" for i in range(base.size))
    schedule = WeightSchedule.explicit(alpha)
    found = []
    for order in itertools.permutations(np.flatnonzero(target != base).tolist()):
        path = CoordinatePath(LinearModel(base, names), tuple((i, target[i]) for i in order))
        found.append((weighted_loss(stats, path, schedule), order))
    low = min(loss for loss, _ in found)
    return next((loss, order) for loss, order in found if loss <= low + 1e-12 * abs(low))


def all_lengths_explanation(stats, base, target, schedule, K_max, budget=DEFAULT_BUDGET):
    """optimizers.best_explanation as one exact_path per length, from the
    target's complexity to K_max, keeping the first loss that beats the
    best so far by more than a tie."""
    if K_max < 0:
        raise InputError("K_max must be >= 0")
    complexity = model_complexity(base, target)
    if K_max < complexity:
        raise InfeasibleError(f"K_max={K_max} is below the target's complexity {complexity}")
    if complexity == 0:
        return CoordinatePath(base, ())
    check_budget(stats.d, K_max, budget)
    best = (math.inf, None)
    for K in range(complexity, K_max + 1):
        cfg = OptimizerConfig(K=K, schedule=schedule, endpoint=target, budget=budget)
        path = exact_path(stats, base, cfg)
        loss = weighted_loss(stats, path, schedule)
        if _beats(loss, best[0]):
            best = (loss, path)
    return best[1]


def rowwise_load_csv(path, target):
    """load_csv as a csv.reader row loop with float() per cell."""
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot open {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InputError(f"{path}: file is empty") from None
        header = [h.strip() for h in header]
        if len(set(header)) != len(header):
            dupes = sorted({h for h in header if header.count(h) > 1})
            raise InputError(f"{path}: duplicate column names {dupes}")
        if target not in header:
            raise InputError(f"{path}: target column '{target}' not found in header")
        tcol = header.index(target)
        rows = []
        for i, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(header):
                raise InputError(f"{path}: row {i} has {len(row)} cells, expected {len(header)}")
            vals = []
            for j, cell in enumerate(row):
                try:
                    v = float(cell)
                except ValueError:
                    raise InputError(
                        f"{path}: row {i}, column '{header[j]}': cannot parse '{cell}' as a number"
                    ) from None
                if not math.isfinite(v):
                    raise InputError(f"{path}: row {i}, column '{header[j]}': non-finite value")
                vals.append(v)
            rows.append(vals)
    if not rows:
        raise InputError(f"{path}: no data rows")
    data = np.array(rows, dtype=float)
    mask = np.ones(len(header), dtype=bool)
    mask[tcol] = False
    names = tuple(h for h, keep in zip(header, mask) if keep)
    return Dataset(data[:, mask], data[:, tcol], names)


def _scalarized_weights(schedule, lam, K):
    alpha = schedule.weights(K)
    out = lam * alpha
    out[-1] += 1.0
    return out


def per_lambda_solve_tradeoff(stats, base, schedule, lam, K_max, solver="exact", cfg=None):
    """pareto.solve_tradeoff as one exact_path (or local_improvement) per length."""
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


def per_lambda_sweep(stats, base, schedule, lambda_grid, K_max, solver="exact", cfg=None,
                     workers=1):
    """pareto.sweep with per_lambda_solve_tradeoff at each grid value, in
    threads over the values."""
    grid = np.asarray(lambda_grid, dtype=float)
    if grid.ndim != 1 or grid.shape[0] == 0:
        raise InputError("lambda grid must be a nonempty 1-d sequence")
    if np.any(grid < 0):
        raise InputError("lambda grid values must be >= 0")
    grid = np.sort(grid)
    workers = max(1, min(workers, grid.shape[0]))

    def solve_one(lam):
        return per_lambda_solve_tradeoff(stats, base, schedule, lam, K_max, solver, cfg)

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


def iterwise_local_improvement(stats, base, cfg, iv0=None):
    """optimizers.local_improvement with one solve_patterns call per
    iteration, each on that iteration's d^q candidates."""
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
