"""Independent numerical oracles used to check the closed-form solvers.

Nothing here touches the package's normal-equation machinery: objectives are
evaluated by materializing paths and summing weighted model costs, free
minimization is plain gradient descent with finite-difference gradients and
a parabolic line search, and pinned endpoints are solved by SVD null-space
elimination of the endpoint constraints on normal equations assembled here.
"""

import itertools

import numpy as np


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
