"""Coordinate paths, cost sequences, and weighted interpretability losses.

A coordinate path starts at a base model and applies steps that each set a
single coefficient to a new value. The per-step model costs form the path's
cost sequence (conceptually zero-padded to infinite length), and a weighted
loss contracts that sequence against a nonnegative weight schedule: explicit
weights, a geometric family weight(k) = gamma**k, or a probability
distribution over path lengths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .regression import LinearModel, SufficientStats, cost_of_many, parse_floats

MODEL_JSON_HINT = '{"coefficients": [...], "features": [...]}'


@dataclass(frozen=True, eq=False)
class CoordinatePath:
    """A base model plus an ordered list of (coordinate, new value) steps.

    Consecutive materialized models differ in at most one coordinate by
    construction. Steps may re-set a coordinate (including to its current
    value); coordinates are 0-based.
    """

    base: LinearModel
    steps: tuple[tuple[int, float], ...] = ()

    def __post_init__(self):
        d = self.base.d
        norm = []
        for s, (idx, val) in enumerate(self.steps):
            idx = int(idx)
            val = float(val)
            if not 0 <= idx < d:
                raise InputError(f"step {s + 1}: coordinate {idx} out of range for d={d}")
            if not np.isfinite(val):
                raise InputError(f"step {s + 1}: non-finite value")
            norm.append((idx, val))
        object.__setattr__(self, "steps", tuple(norm))

    @property
    def K(self) -> int:
        return len(self.steps)

    @property
    def final(self) -> LinearModel:
        models = materialize(self)
        return models[-1] if models else self.base


def materialize(path: CoordinatePath) -> list[LinearModel]:
    """The K models along a path (base excluded), in step order."""
    return [LinearModel(beta, path.base.feature_names) for beta in materialize_array(path)]


def materialize_array(path: CoordinatePath) -> np.ndarray:
    """(K, d) array of the models along a path."""
    beta = path.base.coefficients.copy()
    out = np.empty((path.K, path.base.d))
    for k, (idx, val) in enumerate(path.steps):
        beta[idx] = val
        out[k] = beta
    return out


def cost_sequence(stats: SufficientStats, path: CoordinatePath) -> np.ndarray:
    """Per-step model costs (c_1 .. c_K); empty paths give an empty array."""
    if path.base.d != stats.d:
        raise InputError("path dimension does not match stats")
    if path.K == 0:
        return np.zeros(0)
    return cost_of_many(stats, materialize_array(path))


def complexity_loss(path: CoordinatePath) -> int:
    """Path complexity: the number of steps."""
    return path.K


def model_complexity(base: LinearModel, target: LinearModel) -> int:
    """Minimum number of coordinate steps from base to target.

    Counts coordinates where the two models differ; with a zero base this is
    the number of nonzero coefficients of the target.
    """
    if base.d != target.d:
        raise InputError("base and target dimensions differ")
    return int(np.sum(base.coefficients != target.coefficients))


@dataclass(frozen=True)
class WeightSchedule:
    """Nonnegative per-step weights alpha_1, alpha_2, ...

    kind is one of "explicit", "geometric", "distribution". Geometric
    schedules have weight(k) = gamma**k and are defined for every k; the
    other kinds are defined up to the stored length.
    """

    kind: str
    gamma: float | None = None
    values: tuple[float, ...] | None = None

    @classmethod
    def geometric(cls, gamma: float) -> "WeightSchedule":
        gamma = float(gamma)
        if not gamma > 0:
            raise InputError("gamma must be > 0")
        return cls("geometric", gamma=gamma)

    @classmethod
    def explicit(cls, weights) -> "WeightSchedule":
        vals = tuple(float(v) for v in weights)
        if any(v < 0 or not np.isfinite(v) for v in vals):
            raise InputError("explicit weights must be finite and >= 0")
        return cls("explicit", values=vals)

    @classmethod
    def distribution(cls, probs) -> "WeightSchedule":
        vals = tuple(float(v) for v in probs)
        if any(v < 0 or not np.isfinite(v) for v in vals):
            raise InputError("probabilities must be finite and >= 0")
        if abs(sum(vals) - 1.0) > 1e-9:
            raise InputError(f"probabilities must sum to 1 (got {sum(vals):.6g})")
        return cls("distribution", values=vals)

    def weight(self, k: int) -> float:
        """Weight alpha_k for 1-based step index k."""
        if k < 1:
            raise InputError("step index k is 1-based")
        if self.kind == "geometric":
            return self.gamma**k
        if k > len(self.values):
            raise InputError(f"schedule defines only {len(self.values)} weights, asked for k={k}")
        return self.values[k - 1]

    def weights(self, K: int) -> np.ndarray:
        """Vector (alpha_1 .. alpha_K)."""
        if self.kind == "geometric":
            with np.errstate(over="ignore"):  # as_weights rejects the inf
                return self.gamma ** np.arange(1, K + 1, dtype=float)
        if K > len(self.values):
            raise InputError(f"schedule defines only {len(self.values)} weights, asked for K={K}")
        return np.array(self.values[:K], dtype=float)

    def describe(self) -> str:
        if self.kind == "geometric":
            return f"geometric(gamma={self.gamma:g})"
        vals = ",".join(f"{v:g}" for v in self.values)
        return f"{self.kind}({vals})"


def weighted_loss(stats: SufficientStats, path: CoordinatePath, schedule: WeightSchedule) -> float:
    """Sum over steps of weight(k) * cost(model_k); 0 for the empty path."""
    if path.K == 0:
        return 0.0
    return float(schedule.weights(path.K) @ cost_sequence(stats, path))


def dominates(a, b) -> bool:
    """True iff cost sequence a is <= b componentwise after zero padding."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = max(a.shape[0], b.shape[0])
    ap = np.zeros(n)
    bp = np.zeros(n)
    ap[: a.shape[0]] = a
    bp[: b.shape[0]] = b
    return bool(np.all(ap <= bp))


def path_to_json(path: CoordinatePath) -> dict:
    """Serialize to the wire schema {"base": [...], "steps": [{feature, value}]}."""
    names = path.base.feature_names
    return {
        "base": [float(v) for v in path.base.coefficients],
        "steps": [{"feature": names[idx], "value": val} for idx, val in path.steps],
    }


def path_from_json(payload: dict, feature_names) -> CoordinatePath:
    """Parse and validate the wire schema against known feature names."""
    names = tuple(feature_names)
    if not isinstance(payload, dict) or "base" not in payload or "steps" not in payload:
        raise InputError('path JSON must have "base" and "steps" keys')
    base_vals = parse_floats(payload["base"], "base")
    if base_vals.shape != (len(names),):
        raise InputError(f"path base has shape {base_vals.shape}, "
                         f"expected {len(names)} coefficients")
    base = LinearModel(base_vals, names)
    if not isinstance(payload["steps"], (list, tuple)):
        raise InputError('path "steps" must be a list')
    index = {n: i for i, n in enumerate(names)}
    steps = []
    for s, step in enumerate(payload["steps"]):
        if not isinstance(step, dict) or "feature" not in step or "value" not in step:
            raise InputError(f'step {s + 1} must have "feature" and "value" keys')
        if not isinstance(step["feature"], str) or step["feature"] not in index:
            raise InputError(f"step {s + 1}: unknown feature {step['feature']!r}")
        value = parse_floats(step["value"], f"step {s + 1} value")
        if value.ndim:
            raise InputError(f"step {s + 1}: value must be one number")
        steps.append((index[step["feature"]], float(value)))
    return CoordinatePath(base, tuple(steps))


def model_from_json(payload: dict, feature_names) -> LinearModel:
    """Parse a model from JSON; features, when present, must match by name."""
    names = tuple(feature_names)
    if not isinstance(payload, dict) or "coefficients" not in payload:
        raise InputError(f"model JSON must look like {MODEL_JSON_HINT}")
    coeffs = parse_floats(payload["coefficients"], "coefficients")
    given = payload.get("features")
    if given is not None:
        if not isinstance(given, (list, tuple)) or list(given) != list(names):
            raise InputError(f"model features {given!r} do not match dataset {list(names)}")
    if coeffs.shape != (len(names),):
        raise InputError(f"model coefficients have shape {coeffs.shape}, expected ({len(names)},)")
    return LinearModel(coeffs, names)
