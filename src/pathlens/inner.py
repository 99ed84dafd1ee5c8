"""Exact solution of the per-path-pattern inner problem, and greedy steps.

Fix a base model beta0 and a vector of step coordinates i = (i_1 .. i_K).
The step magnitudes delta enter the weighted objective

    C(i, delta) = sum_k alpha_k * mse(beta0 + sum_{j<=k} delta_j e_{i_j}),

a convex quadratic in delta. With tail weights w_j = alpha_j + ... + alpha_K
and r = g - G beta0, expanding the squares gives the normal equations

    H delta = b,   H_jl = w_max(j,l) * G_{i_j, i_l},   b_j = w_j * r_{i_j},

which this module solves directly. solve_patterns decides every step size,
for a batch of patterns under one shared weight row or one row each, each
item on its own. It runs one batched solver (solve_batch): a batched LU
solve, a residual guard on every item, and one batched minimum-norm solve
for the items that are singular or fail the guard. It also re-solves
minimum-norm the items whose objective is lost to rounding (a numerically
singular system LU solved without complaint).

A pinned endpoint (the path must end exactly at a target model) is handled
by eliminating the constraint. The last write to each touched coordinate c
is fixed, since the deltas of c must sum to (target - base)_c, and every
earlier write is free. So delta = delta_p + P t, where delta_p holds
(target - base)_c at the last write to each c, and column j of P is
e_j - e_last(i_j) for each earlier position j (zero at the last writes).
Substituting gives the reduced PSD system P'HP t = P'(b - H delta_p). A 1
on its diagonal at the last-write positions keeps it K x K with t = 0
there, so free and pinned patterns share one batched solve.

The construction is validated against independent oracles (a
finite-difference minimizer, and SVD null-space elimination for pinned
endpoints) in the test suite before anything downstream relies on it.
"""

from __future__ import annotations

import numpy as np

from .errors import InfeasibleError, InputError
from .paths import CoordinatePath, WeightSchedule, cost_sequence
from .regression import LinearModel, SufficientStats, cost_of, cost_of_many

_OBJECTIVE_RTOL = 1e-9  # objective rounding allowed, relative to max(1, base objective)
_EPS = float(np.finfo(float).eps)


def as_weights(schedule, K: int) -> np.ndarray:
    """Accept a WeightSchedule, a raw weight array or a stack of weight rows
    (L, K); validate each for K steps."""
    if isinstance(schedule, WeightSchedule):
        alpha = schedule.weights(K)
    else:
        alpha = np.asarray(schedule, dtype=float)
        if alpha.shape[-1:] != (K,) or alpha.ndim > 2:
            raise InputError(f"expected {K} weights, got shape {alpha.shape}")
    if np.any(alpha < 0) or not np.all(np.isfinite(alpha)):
        raise InputError("step weights must be finite and >= 0")
    if K > 0 and not np.all(np.any(alpha > 0, axis=-1)):
        raise InputError("at least one step weight must be positive")
    return alpha


def check_index_vector(iv, d: int) -> np.ndarray:
    iv = np.asarray(iv, dtype=int)
    if iv.ndim != 1 or iv.shape[0] < 1:
        raise InputError("index vector must be a nonempty 1-d sequence")
    if np.any(iv < 0) or np.any(iv >= d):
        raise InputError(f"index vector entries must lie in 0..{d - 1}")
    return iv


def check_base(stats: SufficientStats, base: LinearModel) -> None:
    if base.d != stats.d:
        raise InputError("base dimension does not match stats")


def check_endpoint(stats: SufficientStats, base: LinearModel, iv: np.ndarray,
                   target: LinearModel) -> None:
    """Raise unless the index vector can carry base to target."""
    if target.d != stats.d:
        raise InputError("target dimension does not match stats")
    missing = target.coefficients - base.coefficients != 0
    missing[iv] = False
    if missing.any():
        raise InfeasibleError(f"target changes coordinates {np.flatnonzero(missing).tolist()} "
                              "that the index vector never touches")


def tail_weights(alpha: np.ndarray) -> np.ndarray:
    """w_j = alpha_j + ... + alpha_K, along the last axis."""
    return np.cumsum(alpha[..., ::-1], axis=-1)[..., ::-1]


def path_from_deltas(base: LinearModel, iv: np.ndarray, delta: np.ndarray) -> CoordinatePath:
    """Turn (index vector, step magnitudes) into a stored-value path."""
    beta = base.coefficients.copy()
    steps = []
    for i, dv in zip(iv, delta):
        beta[i] += dv
        steps.append((int(i), float(beta[i])))
    return CoordinatePath(base, tuple(steps))


def objective_of(stats: SufficientStats, base: LinearModel, iv, delta, alpha) -> float:
    """Direct evaluation: sum_k alpha_k * cost(model_k) of the materialized path."""
    path = path_from_deltas(base, np.asarray(iv, dtype=int), np.asarray(delta, dtype=float))
    return float(np.asarray(alpha, dtype=float) @ cost_sequence(stats, path))


def solve_free(stats: SufficientStats, base: LinearModel, iv, schedule):
    """Globally minimize C(i, .) with a free endpoint.

    The one-pattern case of solve_patterns. Returns (delta, objective);
    the objective is evaluated on the materialized path so it agrees
    exactly with weighted_loss.
    """
    check_base(stats, base)
    iv = check_index_vector(iv, stats.d)
    alpha = as_weights(schedule, iv.shape[0])
    delta = solve_patterns(stats, base.coefficients, iv[None], alpha)[0][0]
    return delta, objective_of(stats, base, iv, delta, alpha)


def solve_fixed_endpoint(stats: SufficientStats, base: LinearModel, iv, schedule,
                         target: LinearModel):
    """Minimize C(i, .) subject to the path ending exactly at `target`.

    The one-pattern case of solve_patterns (see the module docstring; the
    reduced system is solved minimum-norm if singular). Raises
    InfeasibleError when the index pattern cannot reach the target.
    """
    check_base(stats, base)
    iv = check_index_vector(iv, stats.d)
    K = iv.shape[0]
    alpha = as_weights(schedule, K)
    check_endpoint(stats, base, iv, target)
    delta = solve_patterns(stats, base.coefficients, iv[None], alpha, target.coefficients)[0][0]
    return delta, objective_of(stats, base, iv, delta, alpha)


def greedy_step(stats: SufficientStats, current: LinearModel) -> tuple[int, float, float]:
    """The single coordinate step that most reduces the cost.

    Returns (coordinate, new value, new cost). Improvement of coordinate i
    is r_i^2 / G_ii with r = g - G beta; ties break on the lowest index.
    """
    if current.d != stats.d:
        raise InputError("model dimension does not match stats")
    diag = np.diag(stats.gram)
    tol = 1e-10 * float(diag.max(initial=0.0))
    usable = diag > tol
    if not np.any(usable):
        raise InputError("all gram diagonal entries are (numerically) zero")
    r = stats.residual_cross(current.coefficients)
    improvement = np.where(usable, np.divide(r * r, diag, where=usable, out=np.zeros_like(r)), -np.inf)
    i = int(np.argmax(improvement))
    new_value = float(current.coefficients[i] + r[i] / diag[i])
    new_model = current.with_coordinate(i, new_value)
    new_cost = float(cost_of_many(stats, new_model.coefficients[None])[0])
    return i, new_value, new_cost


# ---------------------------------------------------------------------------
# Batched kernels (solve_patterns and the pieces it runs)
# ---------------------------------------------------------------------------


def build_systems_batch(stats: SufficientStats, base: np.ndarray, ivs: np.ndarray,
                        alpha: np.ndarray):
    """(H, b) stacks for a (B, K) batch of index vectors, under one weight
    vector alpha (K,) or one weight row per item (B, K)."""
    w = tail_weights(alpha)
    # w is non-increasing, so w[max(j,l)] = min(w_j, w_l)
    W = np.minimum(w[..., :, None], w[..., None, :])
    # One flat gather: cheaper than 2-D fancy indexing on the small batches
    # local_improvement builds every iteration.
    H = W * stats.gram.ravel()[ivs[:, :, None] * stats.d + ivs[:, None, :]]
    b = w * stats.residual_cross(base)[ivs]
    return H, b


def solve_batch(H: np.ndarray, b: np.ndarray):
    """Solve a (B, K, K) stack of PSD systems H delta = b; returns (delta, H delta).

    One batched LU solve. Every item must then pass the residual guard
    ||H delta - b|| <= 1e-6 (||b|| + 1); items that are exactly singular (LU
    hits a zero pivot), non-finite or fail the guard get the minimum-norm
    solution instead, with lstsq's default cut-off K * eps.
    """
    try:
        delta = np.linalg.solve(H, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        # A zero pivot in one item fails the whole stack. slogdet runs the same
        # LU, so its sign is 0 exactly on those items and the rest solve as before.
        delta = np.full_like(b, np.nan)
        ok = np.linalg.slogdet(H)[0] != 0
        delta[ok] = np.linalg.solve(H[ok], b[ok, :, None])[..., 0]
    Hd = np.einsum("bkl,bl->bk", H, delta)
    r = Hd - b
    res = np.sqrt(np.einsum("bk,bk->b", r, r))
    # The bound is at least 1e-6, so ||b|| matters only when a residual exceeds that.
    if not res.max(initial=0.0) <= 1e-6:
        bad = ~(res <= 1e-6 * (np.sqrt(np.einsum("bk,bk->b", b, b)) + 1.0))
        delta[bad] = min_norm_solve(H[bad], b[bad])
        Hd[bad] = np.einsum("bkl,bl->bk", H[bad], delta[bad])
    return delta, Hd


def min_norm_solve(H: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minimum-norm solutions of a (B, K, K) stack of PSD systems, with
    lstsq's default cut-off K * eps."""
    pinv = np.linalg.pinv(H, rcond=H.shape[-1] * np.finfo(H.dtype).eps, hermitian=True)
    return (pinv @ b[..., None])[..., 0]


def attained_objectives(top, H: np.ndarray, b: np.ndarray, delta: np.ndarray,
                        Hd=None) -> np.ndarray:
    """Path objectives of a batch of systems (H, b) at step sizes delta.

    top is sum(alpha) * cost(base), one value for all items or one per item.
    The quadratic top - 2 b.delta + delta'H delta equals the path objective
    at any delta, stationary or not. Pass Hd = H delta when it is already
    known.
    """
    if Hd is None:
        Hd = np.einsum("bkl,bl->bk", H, delta)
    return top + np.einsum("bk,bk->b", Hd - 2.0 * b, delta)


def _lost_to_rounding(stats: SufficientStats, alpha: np.ndarray, top, H: np.ndarray,
                      delta: np.ndarray, A: np.ndarray):
    """(mask, tol) of the items whose attained objective rounding may move
    by more than tol and whose solved system A is singular at working
    precision (beyond lstsq's cut-off K * eps), or (None, None) if none are.
    tol, like top, is one value or one per item.

    The rounding error is about K eps (sum_k |delta_k| sqrt(H_kk))^2. By
    Cauchy-Schwarz that is at most K eps ||delta_b||^2 tr(H_b), and
    H_kk = w_k G_{i_k i_k} makes tr(H_b) at most K max(w) max(diag G). So
    one sum of squares over the batch bounds every item, and the usual case
    skips the per-item sums. A system inside the cut-off keeps its LU
    solution: the minimum-norm one would differ only by rounding. The sum is
    an einsum reduction, not a BLAS dot product: over a large batch that can
    wake BLAS's thread pool, which costs more than the sum itself.
    """
    K = delta.shape[1]
    scale = K * _EPS
    h_max = float(tail_weights(alpha).max()) * float(np.diag(stats.gram).max())
    bound = scale * K * h_max * float(np.einsum("bk,bk->", delta, delta))
    if not bound > _OBJECTIVE_RTOL:
        return None, None  # _OBJECTIVE_RTOL is the least tol
    tol = _OBJECTIVE_RTOL * np.maximum(1.0, top)
    spread = np.einsum("bk,bk->b", np.abs(delta), np.sqrt(H.reshape(-1, K * K)[:, ::K + 1]))
    bad = scale * spread * spread > tol
    if bad.any():
        eigs = np.linalg.eigvalsh(A[bad])
        bad[bad] = eigs[:, 0] <= scale * eigs[:, -1]
    return (bad, tol) if bad.any() else (None, None)


def solve_patterns(stats: SufficientStats, base: np.ndarray, ivs: np.ndarray, alpha: np.ndarray,
                   target: np.ndarray | None = None):
    """Optimal step sizes and attained objectives for a (B, K) batch of
    index vectors, under one weight row alpha (K,) for all of them or one
    row per index vector (B, K).

    With a target, the endpoint is pinned by the elimination described in
    the module docstring; rows that leave a coordinate where target and base
    differ untouched cannot reach it and get zero steps and objective +inf.
    Objectives are attained_objectives at the solved delta; items whose
    objective is below rounding noise are re-solved minimum-norm first.
    Each item's results are bitwise those of a call with it alone and its
    own weight row.
    """
    one = alpha.ndim == 1  # one weight row, shared by every item
    if target is not None:
        touched = np.zeros((ivs.shape[0], stats.d), dtype=bool)
        touched[np.arange(ivs.shape[0])[:, None], ivs] = True
        reach = touched[:, np.nonzero(target - base)[0]].all(axis=1)
        if not reach.all():
            deltas, vals = np.zeros(ivs.shape), np.full(ivs.shape[0], np.inf)
            if reach.any():
                deltas[reach], vals[reach] = solve_patterns(
                    stats, base, ivs[reach], alpha if one else alpha[reach], target)
            return deltas, vals
    K = ivs.shape[1]
    # A contiguous row sums as a one-row alpha does; a column-major one may not.
    top = np.ascontiguousarray(alpha).sum(axis=-1) * cost_of(stats, base)
    H, b = build_systems_batch(stats, base, ivs, alpha)
    if target is None:
        delta, Hd = solve_batch(H, b)
    else:
        pos = np.arange(K)
        same = ivs[:, :, None] == ivs[:, None, :]
        last = K - 1 - np.argmax(same[:, :, ::-1], axis=2)  # last write to each step's coordinate
        free = last != pos
        P = free[:, None, :] * (np.eye(K) - (pos[None, :, None] == last[:, None, :]))
        delta_p = np.where(free, 0.0, (target - base)[ivs])
        Hr = P.transpose(0, 2, 1) @ H @ P
        Hr[:, pos, pos] += ~free
        rhs = np.einsum("bkj,bk->bj", P, b - np.einsum("bkl,bl->bk", H, delta_p))
        delta = delta_p + np.einsum("bkj,bj->bk", P, solve_batch(Hr, rhs)[0])
        Hd = None
    vals = attained_objectives(top, H, b, delta, Hd)
    # A numerically singular system that LU does not flag can put delta far
    # along a null direction, where the quadratic form cancels: its objective
    # is then rounding noise, often a large negative value that wins the
    # search. Such items get the minimum-norm solution; an objective is a
    # weighted sum of mean-squared errors, so any still below -tol get +inf.
    bad, tol = _lost_to_rounding(stats, alpha, top, H, delta, H if target is None else Hr)
    if bad is not None:
        if target is None:
            delta[bad] = min_norm_solve(H[bad], b[bad])
        else:
            delta[bad] = delta_p[bad] + np.einsum(
                "bkj,bj->bk", P[bad], min_norm_solve(Hr[bad], rhs[bad]))
        vals[bad] = attained_objectives(top if one else top[bad], H[bad], b[bad], delta[bad])
        vals[bad & (vals < -tol)] = np.inf
    return delta, vals
