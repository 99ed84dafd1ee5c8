import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pathlens import (
    CoordinatePath,
    InputError,
    LinearModel,
    WeightSchedule,
    complexity_loss,
    cost_sequence,
    dominates,
    explanation_loss,
    materialize,
    model_complexity,
    path_from_json,
    path_to_json,
    stats_from_moments,
    weighted_loss,
)
from conftest import TOY_OLS, random_stats


def path_a(base):  # introduce the fitted coefficients one by one
    return CoordinatePath(base, ((0, 2.12), (1, -0.94)))


def path_b(base):
    return CoordinatePath(base, ((1, -0.94), (0, 2.12)))


def path_c(base):  # three steps, revisiting the first coordinate
    return CoordinatePath(base, ((0, 1.70), (1, -0.94), (0, 2.12)))


class TestMaterialize:
    def test_two_step(self, toy_zero):
        models = materialize(path_a(toy_zero))
        assert np.allclose(models[0].coefficients, [2.12, 0.0])
        assert np.allclose(models[1].coefficients, [2.12, -0.94])

    def test_empty(self, toy_zero):
        assert materialize(CoordinatePath(toy_zero, ())) == []

    def test_revisit_overwrites(self, toy_zero):
        models = materialize(path_c(toy_zero))
        assert len(models) == 3
        assert np.allclose(models[0].coefficients, [1.70, 0.0])
        assert np.allclose(models[2].coefficients, [2.12, -0.94])

    def test_out_of_range_index(self, toy_zero):
        with pytest.raises(InputError, match="out of range"):
            CoordinatePath(toy_zero, ((5, 1.0),))


class TestCostSequence:
    def test_path_a(self, toy_stats, toy_zero):
        assert np.allclose(cost_sequence(toy_stats, path_a(toy_zero)), [1.13, 0.25], atol=0.005)

    def test_path_c(self, toy_stats, toy_zero):
        assert np.allclose(
            cost_sequence(toy_stats, path_c(toy_zero)), [0.60, 0.43, 0.25], atol=0.005
        )

    def test_empty(self, toy_stats, toy_zero):
        assert cost_sequence(toy_stats, CoordinatePath(toy_zero, ())).shape == (0,)


class TestComplexity:
    def test_complexity_loss(self, toy_zero):
        assert complexity_loss(path_a(toy_zero)) == 2
        assert complexity_loss(path_c(toy_zero)) == 3
        assert complexity_loss(CoordinatePath(toy_zero, ())) == 0

    def test_model_complexity(self, toy_zero):
        target = LinearModel(TOY_OLS, toy_zero.feature_names)
        assert model_complexity(toy_zero, target) == 2
        assert model_complexity(target, target) == 0

    def test_warm_start_complexity(self):
        names = tuple("abcde")
        base = LinearModel(np.array([-0.87, 0, 0, 0, 0]), names)
        target = LinearModel(np.array([-0.59, 0.23, -0.18, 0.07, 0]), names)
        assert model_complexity(base, target) == 4

    def test_sparsity_recovery(self):
        # Minimum explanation length from a zero base equals the number of
        # nonzero target coefficients; exhaustively checked for d <= 3.
        for d in (1, 2, 3):
            stats = random_stats(40 + d, d=d)
            base = LinearModel.zeros(stats.feature_names)
            rng = np.random.default_rng(d)
            target_vec = np.where(rng.random(d) < 0.6, rng.standard_normal(d), 0.0)
            target = LinearModel(target_vec, stats.feature_names)
            m = int(np.count_nonzero(target_vec))
            schedule = WeightSchedule.geometric(1.0)
            if m > 0:
                assert explanation_loss(stats, base, target, schedule, m - 1) == np.inf
            assert explanation_loss(stats, base, target, schedule, m) < np.inf


class TestWeightSchedule:
    def test_geometric(self):
        s = WeightSchedule.geometric(2.0)
        assert s.weight(1) == 2.0 and s.weight(3) == 8.0
        assert np.allclose(s.weights(3), [2, 4, 8])

    def test_geometric_requires_positive(self):
        with pytest.raises(InputError):
            WeightSchedule.geometric(0.0)

    def test_explicit_bounds(self):
        s = WeightSchedule.explicit([1.0, 0.5])
        assert s.weight(2) == 0.5
        with pytest.raises(InputError, match="only 2"):
            s.weight(3)
        with pytest.raises(InputError):
            WeightSchedule.explicit([1.0, -0.1])

    def test_distribution_must_sum_to_one(self):
        WeightSchedule.distribution([0.25, 0.75])
        with pytest.raises(InputError, match="sum to 1"):
            WeightSchedule.distribution([0.5, 0.2])


class TestWeightedLoss:
    def test_toy_values(self, toy_stats, toy_zero):
        gamma1 = WeightSchedule.geometric(1.0)
        assert weighted_loss(toy_stats, path_a(toy_zero), gamma1) == pytest.approx(1.38, abs=0.01)
        assert weighted_loss(toy_stats, path_b(toy_zero), gamma1) == pytest.approx(4.99, abs=0.01)
        assert weighted_loss(toy_stats, CoordinatePath(toy_zero, ()), gamma1) == 0.0

    def test_depends_only_on_cost_sequence(self, toy_stats, toy_zero):
        gamma = WeightSchedule.geometric(0.7)
        path = path_c(toy_zero)
        direct = weighted_loss(toy_stats, path, gamma)
        via_sequence = float(gamma.weights(path.K) @ cost_sequence(toy_stats, path))
        assert direct == via_sequence


class TestDominates:
    def test_table_values(self):
        assert dominates([1.13, 0.25], [4.74, 0.25])
        assert dominates([1.13, 0.25], [1.13, 0.25])
        assert not dominates([0.42, 0.39], [1.13, 0.25])
        assert not dominates([1.13, 0.25], [0.42, 0.39])

    def test_zero_padding(self):
        assert dominates([1.0], [1.0, 0.5])
        assert not dominates([1.0, 0.5], [1.0])


class TestJson:
    def test_round_trip(self, toy_zero):
        path = path_c(toy_zero)
        payload = path_to_json(path)
        text = json.dumps(payload, indent=2, sort_keys=True)
        again = path_from_json(json.loads(text), toy_zero.feature_names)
        assert again.steps == path.steps
        assert json.dumps(path_to_json(again), indent=2, sort_keys=True) == text

    def test_schema(self, toy_zero):
        payload = path_to_json(path_a(toy_zero))
        assert payload["base"] == [0.0, 0.0]
        assert payload["steps"][0] == {"feature": "height", "value": 2.12}

    def test_unknown_feature_rejected(self, toy_zero):
        payload = {"base": [0.0, 0.0], "steps": [{"feature": "nope", "value": 1.0}]}
        with pytest.raises(InputError, match="unknown feature"):
            path_from_json(payload, toy_zero.feature_names)

    def test_wrong_length_rejected(self, toy_zero):
        with pytest.raises(InputError, match="coefficients"):
            path_from_json({"base": [0.0], "steps": []}, toy_zero.feature_names)

    @pytest.mark.parametrize("payload", [
        {"base": 5, "steps": []},
        {"base": [0.0, 0.0], "steps": 5},
        {"base": ["a", 0], "steps": []},
        {"base": [0.0, 0.0], "steps": [{"feature": "x1", "value": "abc"}]},
        {"base": [0.0, 0.0], "steps": [{"feature": "x1", "value": None}]},
        {"base": [0.0, 0.0], "steps": [{"feature": ["x1"], "value": 1.0}]},
        {"base": [0.0, 0.0], "steps": [{"feature": "x1", "value": [1.0]}]},
    ])
    def test_malformed_payload_rejected(self, payload):
        with pytest.raises(InputError):
            path_from_json(payload, ("x1", "x2"))


# ---------------------------------------------------------------------------
# Coherence and limit properties
# ---------------------------------------------------------------------------


def random_path(rng, base, K):
    steps = tuple(
        (int(rng.integers(base.d)), float(rng.standard_normal() * 2)) for _ in range(K)
    )
    return CoordinatePath(base, steps)


def random_schedule(rng, K):
    return WeightSchedule.explicit(rng.uniform(0.0, 2.0, size=max(K, 1)))


@given(st.integers(0, 10_000))
def test_truncation_never_increases_loss(seed):
    rng = np.random.default_rng(seed)
    stats = random_stats(17, d=3)
    base = LinearModel.zeros(stats.feature_names)
    K = int(rng.integers(1, 5))
    path = random_path(rng, base, K)
    schedule = random_schedule(rng, K)
    truncated = CoordinatePath(base, path.steps[:-1])
    assert weighted_loss(stats, truncated, schedule) <= weighted_loss(stats, path, schedule) + 1e-12


@given(st.integers(0, 10_000))
def test_dominating_pairs_order_losses(seed):
    rng = np.random.default_rng(seed)
    stats = random_stats(23, d=3)
    base = LinearModel.zeros(stats.feature_names)
    K = int(rng.integers(1, 5))
    longer = random_path(rng, base, K)
    shorter = CoordinatePath(base, longer.steps[: int(rng.integers(0, K))])
    a = cost_sequence(stats, shorter)
    b = cost_sequence(stats, longer)
    assert dominates(a, b)
    schedule = random_schedule(rng, K)
    assert weighted_loss(stats, shorter, schedule) <= weighted_loss(stats, longer, schedule) + 1e-12


@given(st.integers(0, 10_000))
def test_identical_cost_sequences_get_identical_losses(seed):
    # On an exchangeable instance (identity gram, constant cross moments),
    # relabeling the coordinates of a path leaves its cost sequence intact.
    rng = np.random.default_rng(seed)
    d = 3
    stats = stats_from_moments(np.eye(d), np.full(d, 0.4), 1.0)
    base = LinearModel.zeros(stats.feature_names)
    K = int(rng.integers(1, 5))
    path = random_path(rng, base, K)
    perm = rng.permutation(d)
    relabeled = CoordinatePath(base, tuple((int(perm[i]), v) for i, v in path.steps))
    assert np.allclose(
        cost_sequence(stats, path), cost_sequence(stats, relabeled), rtol=0, atol=1e-12
    )
    schedule = random_schedule(rng, K)
    assert weighted_loss(stats, path, schedule) == pytest.approx(
        weighted_loss(stats, relabeled, schedule), abs=1e-12
    )


class TestConsistencyLimits:
    """Large gamma favors low-complexity models; small gamma favors models
    reachable by lexicographically dominant (greedy-style) paths."""

    def test_large_gamma_ranks_by_complexity(self, toy_stats, toy_zero):
        names = toy_stats.feature_names
        sparse = LinearModel(np.array([1.274, 0.0]), names)  # complexity 1
        dense = LinearModel(TOY_OLS, names)  # complexity 2
        diffs = []
        for gamma in (10.0, 100.0, 1000.0):
            schedule = WeightSchedule.geometric(gamma)
            l_sparse = explanation_loss(toy_stats, toy_zero, sparse, schedule, 3)
            l_dense = explanation_loss(toy_stats, toy_zero, dense, schedule, 3)
            assert l_sparse < l_dense
            diffs.append(l_dense - l_sparse)
        assert diffs[0] < diffs[1] < diffs[2]

    def test_small_gamma_favors_greedy_reachable(self, toy_stats, toy_zero):
        names = toy_stats.feature_names
        greedy_model = LinearModel(np.array([1.274, 0.0]), names)
        other = LinearModel(np.array([2.12, 0.0]), names)
        schedule = WeightSchedule.geometric(1e-3)
        l_greedy = explanation_loss(toy_stats, toy_zero, greedy_model, schedule, 3)
        l_other = explanation_loss(toy_stats, toy_zero, other, schedule, 3)
        assert l_greedy <= l_other + 1e-12
