"""Output checks that do not trust pathlens' own arithmetic.

Every check re-derives what it needs from the moments the benchmark built
itself (G = X'X/n, g = X'y/n, tsm = y'y/n) with plain numpy, and returns a
list of problems (empty means the output passed). No check compares against
a number recorded for one seed, so any seed is checked equally well.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

# Two losses within this relative distance are a tie: it lies far above the
# ~1e-16 rounding seen when the same path is scored twice, and far below the
# gaps of a genuinely worse pattern.
LOSS_RTOL = 1e-12
# Stationarity of the inner quadratic, relative to the size of its terms.
GRAD_RTOL = 1e-8
# A pinned endpoint is met up to rounding of the summed step sizes.
ENDPOINT_RTOL = 1e-12
# Re-derived front values against the stored ones (the benchmark
# standardizes the data itself, so the moments differ in the last bits).
FRONT_RTOL = 1e-9


@dataclass(frozen=True)
class Moments:
    gram: np.ndarray
    cross: np.ndarray
    tsm: float

    @classmethod
    def of(cls, X: np.ndarray, y: np.ndarray) -> "Moments":
        n = X.shape[0]
        G = X.T @ X / n
        return cls((G + G.T) / 2.0, X.T @ y / n, float(y @ y / n))

    def costs(self, betas: np.ndarray) -> np.ndarray:
        """Mean-squared error of each row of a (B, d) coefficient stack."""
        return (
            self.tsm
            - 2.0 * betas @ self.cross
            + np.einsum("bi,ij,bj->b", betas, self.gram, betas)
        )


def path_arrays(base, steps):
    """(coordinates, step sizes, models along the path) of a step list."""
    beta = np.array(base, dtype=float)
    iv, delta, models = [], [], []
    for i, value in steps:
        iv.append(int(i))
        delta.append(float(value) - beta[i])
        beta[i] = float(value)
        models.append(beta.copy())
    return np.asarray(iv, dtype=int), np.asarray(delta), np.asarray(models).reshape(-1, beta.size)


def path_loss(m: Moments, base, steps, alpha) -> float:
    """Weighted loss sum_k alpha_k * cost(model_k) of a path."""
    _, _, models = path_arrays(base, steps)
    return float(np.asarray(alpha) @ m.costs(models)) if len(steps) else 0.0


def normal_equations(m: Moments, base, iv, alpha):
    """H, b of the inner quadratic: H_jl = w_max(j,l) G[i_j, i_l],
    b_j = w_j r[i_j], with tail weights w and r = g - G base."""
    alpha = np.asarray(alpha, dtype=float)
    w = np.cumsum(alpha[::-1])[::-1]
    W = w[np.maximum.outer(np.arange(len(w)), np.arange(len(w)))]
    r = m.cross - m.gram @ np.asarray(base, dtype=float)
    return W * m.gram[np.ix_(iv, iv)], w * r[iv]


def stationarity_problems(m: Moments, base, steps, alpha, pinned: bool) -> list[str]:
    """The step sizes must zero the gradient H delta - b of the inner
    quadratic; with a pinned endpoint, only its component along step sizes
    that keep the endpoint, i.e. it must be constant over the steps that
    touch the same coordinate."""
    iv, delta, _ = path_arrays(base, steps)
    H, b = normal_equations(m, base, iv, alpha)
    grad = H @ delta - b
    scale = np.abs(b).max() + np.abs(H).max() * np.abs(delta).max() + 1e-300
    if pinned:
        for c in np.unique(iv):
            grad[iv == c] -= grad[iv == c].mean()
    worst = float(np.abs(grad).max()) / scale
    return [] if worst <= GRAD_RTOL else [f"not stationary: relative gradient {worst:.2e}"]


def endpoint_problems(base, steps, target) -> list[str]:
    beta = np.array(base, dtype=float)
    for i, value in steps:
        beta[i] = value
    target = np.asarray(target, dtype=float)
    miss = float(np.abs(beta - target).max())
    tol = ENDPOINT_RTOL * max(1.0, float(np.abs(target).max()))
    return [] if miss <= tol else [f"endpoint missed by {miss:.2e}"]


def no_worse_problems(loss: float, others: dict[str, float]) -> list[str]:
    """An exact loss must not exceed any other loss found for the instance."""
    return [
        f"exact loss {loss!r} exceeds {name} loss {other!r}"
        for name, other in others.items()
        if loss > other + LOSS_RTOL * abs(other)
    ]


def oracle_loss(m: Moments, alpha) -> float:
    """Brute force over every pattern of the free-endpoint problem from the
    zero model: solve each inner system with lstsq and score the path."""
    alpha = np.asarray(alpha, dtype=float)
    d, K = m.cross.shape[0], alpha.shape[0]
    base = np.zeros(d)
    ivs = np.asarray(list(itertools.product(range(d), repeat=K)), dtype=int)
    deltas = np.empty(ivs.shape)
    for row, iv in enumerate(ivs):
        H, b = normal_equations(m, base, iv, alpha)
        deltas[row] = np.linalg.lstsq(H, b, rcond=None)[0]
    betas = np.zeros((ivs.shape[0], d))
    rows = np.arange(ivs.shape[0])
    total = np.zeros(ivs.shape[0])
    for k in range(K):
        betas[rows, ivs[:, k]] += deltas[:, k]
        total += alpha[k] * m.costs(betas)
    return float(total.min())


def oracle_problems(m: Moments, loss: float, alpha) -> list[str]:
    best = oracle_loss(m, alpha)
    if loss > best + LOSS_RTOL * abs(best):
        return [f"exact loss {loss!r} exceeds the brute-force optimum {best!r}"]
    return []


def front_problems(m: Moments, payload: dict, names, gamma: float) -> list[str]:
    """Re-derive cost and interpretability loss of every stored front point
    from its path, and check that no point dominates another."""
    problems = []
    index = {name: i for i, name in enumerate(names)}
    points = payload.get("points", [])
    if not points:
        return ["front has no points"]
    for n, pt in enumerate(points, start=1):
        path = pt["path"]
        steps = [(index[s["feature"]], s["value"]) for s in path["steps"]]
        _, _, models = path_arrays(path["base"], steps)
        final = models[-1] if steps else np.asarray(path["base"], dtype=float)
        costs = m.costs(models) if steps else np.zeros(0)
        cost = float(m.costs(final[None])[0])
        loss = float(gamma ** np.arange(1, len(steps) + 1) @ costs)
        if not np.allclose(final, pt["model"], rtol=0, atol=FRONT_RTOL):
            problems.append(f"point {n}: stored model is not its path's endpoint")
        if abs(cost - pt["cost"]) > FRONT_RTOL * max(1.0, abs(cost)):
            problems.append(f"point {n}: cost {pt['cost']!r} re-derives as {cost!r}")
        if abs(loss - pt["interp_loss"]) > FRONT_RTOL * max(1.0, abs(loss)):
            problems.append(f"point {n}: interp_loss {pt['interp_loss']!r} re-derives as {loss!r}")
        if len(steps) != pt["K"]:
            problems.append(f"point {n}: K={pt['K']} but the path has {len(steps)} steps")
    pairs = [(pt["interp_loss"], pt["cost"]) for pt in points]
    for a, (la, ca) in enumerate(pairs):
        tl, tc = LOSS_RTOL * max(1.0, abs(la)), LOSS_RTOL * max(1.0, abs(ca))
        for b, (lb, cb) in enumerate(pairs):
            if a != b and lb <= la + tl and cb <= ca + tc and (lb < la - tl or cb < ca - tc):
                problems.append(f"point {a + 1} is dominated by point {b + 1}")
                break
        if a and la < pairs[a - 1][0]:
            problems.append(f"points {a} and {a + 1} are not sorted by interp_loss")
    return problems
