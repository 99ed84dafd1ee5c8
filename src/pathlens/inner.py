"""Exact solution of the per-path-pattern inner problem, and greedy steps.

Fix a base model beta0 and a vector of step coordinates i = (i_1 .. i_K).
The step magnitudes delta enter the weighted objective

    C(i, delta) = sum_k alpha_k * mse(beta0 + sum_{j<=k} delta_j e_{i_j}),

a convex quadratic in delta. With tail weights w_j = alpha_j + ... + alpha_K
and r = g - G beta0, expanding the squares gives the normal equations

    H delta = b,   H_jl = w_max(j,l) * G_{i_j, i_l},   b_j = w_j * r_{i_j},

which this module solves directly (minimum-norm when H is singular).

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


def as_weights(schedule, K: int) -> np.ndarray:
    """Accept a WeightSchedule or a raw weight array; validate for K steps."""
    if isinstance(schedule, WeightSchedule):
        alpha = schedule.weights(K)
    else:
        alpha = np.asarray(schedule, dtype=float)
        if alpha.shape != (K,):
            raise InputError(f"expected {K} weights, got shape {alpha.shape}")
    if np.any(alpha < 0) or not np.all(np.isfinite(alpha)):
        raise InputError("step weights must be finite and >= 0")
    if K > 0 and not np.any(alpha > 0):
        raise InputError("at least one step weight must be positive")
    return alpha


def check_index_vector(iv, d: int) -> np.ndarray:
    iv = np.asarray(iv, dtype=int)
    if iv.ndim != 1 or iv.shape[0] < 1:
        raise InputError("index vector must be a nonempty 1-d sequence")
    if np.any(iv < 0) or np.any(iv >= d):
        raise InputError(f"index vector entries must lie in 0..{d - 1}")
    return iv


def check_endpoint(stats: SufficientStats, base: LinearModel, iv: np.ndarray,
                   target: LinearModel) -> None:
    """Raise unless the index vector can carry base to target."""
    if target.d != stats.d:
        raise InputError("target dimension does not match stats")
    missing = np.setdiff1d(np.nonzero(target.coefficients - base.coefficients)[0], iv)
    if missing.size:
        raise InfeasibleError(
            f"target changes coordinates {missing.tolist()} that the index vector never touches"
        )


def tail_weights(alpha: np.ndarray) -> np.ndarray:
    """w_j = alpha_j + ... + alpha_K."""
    return np.cumsum(alpha[::-1])[::-1]


def build_system(stats: SufficientStats, base: np.ndarray, iv: np.ndarray, alpha: np.ndarray):
    """Assemble (H, b) of the inner normal equations for one index vector."""
    H, b = build_systems_batch(stats, base, iv[None], alpha)
    return H[0], b[0]


def path_from_deltas(base: LinearModel, iv: np.ndarray, delta: np.ndarray) -> CoordinatePath:
    """Turn (index vector, step magnitudes) into a stored-value path."""
    beta = base.coefficients.copy()
    steps = []
    for i, dv in zip(iv, delta):
        beta[i] += dv
        steps.append((int(i), float(beta[i])))
    return CoordinatePath(base, tuple(steps))


def _solve_psd(H: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a PSD system; minimum-norm solution if singular."""
    try:
        delta = np.linalg.solve(H, b)
        if np.all(np.isfinite(delta)):
            # Guard against a numerically singular solve slipping through.
            if np.linalg.norm(H @ delta - b) <= 1e-6 * (np.linalg.norm(b) + 1.0):
                return delta
    except np.linalg.LinAlgError:
        pass
    delta, *_ = np.linalg.lstsq(H, b, rcond=None)
    return delta


def objective_of(stats: SufficientStats, base: LinearModel, iv, delta, alpha) -> float:
    """Direct evaluation: sum_k alpha_k * cost(model_k) of the materialized path."""
    path = path_from_deltas(base, np.asarray(iv, dtype=int), np.asarray(delta, dtype=float))
    return float(np.asarray(alpha, dtype=float) @ cost_sequence(stats, path))


def solve_free(stats: SufficientStats, base: LinearModel, iv, schedule):
    """Globally minimize C(i, .) with a free endpoint.

    Returns (delta, objective); the objective is evaluated on the
    materialized path so it agrees exactly with weighted_loss.
    """
    iv = check_index_vector(iv, stats.d)
    K = iv.shape[0]
    alpha = as_weights(schedule, K)
    H, b = build_system(stats, base.coefficients, iv, alpha)
    delta = _solve_psd(H, b)
    return delta, objective_of(stats, base, iv, delta, alpha)


def solve_fixed_endpoint(stats: SufficientStats, base: LinearModel, iv, schedule,
                         target: LinearModel):
    """Minimize C(i, .) subject to the path ending exactly at `target`.

    The one-pattern case of solve_patterns (see the module docstring; the
    reduced system is solved minimum-norm if singular). Raises
    InfeasibleError when the index pattern cannot reach the target.
    """
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
# Batched kernels (used by the outer optimizers)
# ---------------------------------------------------------------------------


def build_systems_batch(stats: SufficientStats, base: np.ndarray, ivs: np.ndarray,
                        alpha: np.ndarray):
    """(H, b) stacks for a (B, K) batch of index vectors."""
    w = tail_weights(alpha)
    W = np.minimum.outer(w, w)  # w is non-increasing, so w[max(j,l)] = min(w_j, w_l)
    # One flat gather: cheaper than 2-D fancy indexing on the small batches
    # local_improvement builds every iteration.
    H = W[None, :, :] * stats.gram.ravel()[ivs[:, :, None] * stats.d + ivs[:, None, :]]
    b = w[None, :] * stats.residual_cross(base)[ivs]
    return H, b


def solve_batch(H: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Batched PSD solve with per-item minimum-norm fallback."""
    try:
        delta = np.linalg.solve(H, b[..., None])[..., 0]
        if np.all(np.isfinite(delta)):
            return delta
    except np.linalg.LinAlgError:
        pass
    out = np.empty_like(b)
    for i in range(H.shape[0]):
        out[i] = _solve_psd(H[i], b[i])
    return out


def solve_patterns(stats: SufficientStats, base: np.ndarray, ivs: np.ndarray, alpha: np.ndarray,
                   target: np.ndarray | None = None):
    """Optimal step sizes and attained objectives for a (B, K) batch of
    index vectors.

    With a target, the endpoint is pinned by the elimination described in
    the module docstring; rows that leave a coordinate where target and base
    differ untouched cannot reach it and get zero steps and objective +inf.
    The objective is the quadratic
    sum(alpha) * cost(base) - 2 b.delta + delta'H delta at the solved delta,
    which is the path objective at any delta, stationary or not.
    """
    if target is not None:
        touched = np.zeros((ivs.shape[0], stats.d), dtype=bool)
        touched[np.arange(ivs.shape[0])[:, None], ivs] = True
        reach = touched[:, np.nonzero(target - base)[0]].all(axis=1)
        if not reach.all():
            deltas, vals = np.zeros(ivs.shape), np.full(ivs.shape[0], np.inf)
            if reach.any():
                deltas[reach], vals[reach] = solve_patterns(stats, base, ivs[reach], alpha, target)
            return deltas, vals
    H, b = build_systems_batch(stats, base, ivs, alpha)
    if target is None:
        delta = solve_batch(H, b)
    else:
        K = ivs.shape[1]
        pos = np.arange(K)
        same = ivs[:, :, None] == ivs[:, None, :]
        last = K - 1 - np.argmax(same[:, :, ::-1], axis=2)  # last write to each step's coordinate
        free = last != pos
        P = free[:, None, :] * (np.eye(K) - (pos[None, :, None] == last[:, None, :]))
        delta_p = np.where(free, 0.0, (target - base)[ivs])
        Hr = P.transpose(0, 2, 1) @ H @ P
        Hr[:, pos, pos] += ~free
        rhs = np.einsum("bkj,bk->bj", P, b - np.einsum("bkl,bl->bk", H, delta_p))
        delta = delta_p + np.einsum("bkj,bj->bk", P, solve_batch(Hr, rhs))
    Hd = np.einsum("bkl,bl->bk", H, delta)
    vals = float(alpha.sum()) * cost_of(stats, base) + np.einsum("bk,bk->b", Hd - 2.0 * b, delta)
    return delta, vals


def batch_objectives(stats: SufficientStats, base: np.ndarray, ivs: np.ndarray,
                     deltas: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Direct objective evaluation for a batch of (iv, delta) candidates."""
    B, K = ivs.shape
    betas = np.repeat(base[None, :], B, axis=0)
    out = np.zeros(B)
    rows = np.arange(B)
    for k in range(K):
        betas[rows, ivs[:, k]] += deltas[:, k]
        out += alpha[k] * cost_of_many(stats, betas)
    return out
