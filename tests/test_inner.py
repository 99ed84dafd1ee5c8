import numpy as np
import pytest

from pathlens import (
    InfeasibleError,
    InputError,
    LinearModel,
    WeightSchedule,
    cost,
    greedy_step,
    ols,
    solve_fixed_endpoint,
    solve_free,
    stats_from_moments,
    weighted_loss,
)
from pathlens.inner import build_system, path_from_deltas, tail_weights
from pathlens.paths import cost_sequence
from conftest import TOY_OLS, random_stats
from oracles import eval_objective, fd_gradient, svd_fixed_endpoint


GAMMA1 = WeightSchedule.geometric(1.0)


class TestSolveFree:
    def test_single_step_is_greedy(self, toy_stats, toy_zero):
        delta, obj = solve_free(toy_stats, toy_zero, [0], GAMMA1)
        assert delta[0] == pytest.approx(1.274, abs=1e-9)
        assert obj == pytest.approx(0.42, abs=0.005)

    def test_toy_two_step_beats_both_named_paths(self, toy_stats, toy_zero):
        _, obj = solve_free(toy_stats, toy_zero, [0, 1], GAMMA1)
        assert obj <= 1.38  # install-final-values path
        assert obj <= 0.81  # greedy path

    def test_last_step_only_reaches_ols(self, toy_stats, toy_zero):
        delta, _ = solve_free(toy_stats, toy_zero, [0, 1], [0.0, 1.0])
        final = toy_zero.coefficients.copy()
        final[[0, 1]] += delta
        assert np.max(np.abs(final - ols(toy_stats).coefficients)) <= 1e-6

    def test_objective_matches_direct_evaluation(self):
        rng = np.random.default_rng(4)
        for seed in range(20):
            stats = random_stats(seed, d=4)
            base = LinearModel(rng.standard_normal(4) * 0.5, stats.feature_names)
            K = int(rng.integers(1, 6))
            iv = rng.integers(0, 4, size=K)
            alpha = rng.uniform(0.1, 2.0, size=K)
            delta, obj = solve_free(stats, base, iv, alpha)
            direct = eval_objective(stats, base.coefficients, iv, delta, alpha)
            assert abs(obj - direct) <= 1e-9 * max(1.0, abs(direct))

    def test_beats_random_probes(self):
        rng = np.random.default_rng(5)
        stats = random_stats(31, d=4)
        base = LinearModel.zeros(stats.feature_names)
        iv = np.array([2, 0, 1, 0])
        alpha = np.array([1.0, 0.7, 0.4, 0.2])
        delta, obj = solve_free(stats, base, iv, alpha)
        for _ in range(100):
            probe = delta + rng.standard_normal(4) * rng.uniform(0.01, 2.0)
            assert obj <= eval_objective(stats, base.coefficients, iv, probe, alpha) + 1e-12

    def test_stationarity(self):
        rng = np.random.default_rng(6)
        for seed in range(10):
            stats = random_stats(seed + 60, d=3)
            base = LinearModel(rng.standard_normal(3) * 0.3, stats.feature_names)
            K = int(rng.integers(1, 5))
            iv = rng.integers(0, 3, size=K)
            alpha = rng.uniform(0.2, 2.0, size=K)
            delta, obj = solve_free(stats, base, iv, alpha)
            grad = fd_gradient(stats, base.coefficients, iv, delta, alpha)
            assert np.linalg.norm(grad) <= 1e-7 * max(1.0, abs(obj))

    def test_system_matrix_is_psd(self):
        rng = np.random.default_rng(7)
        for seed in range(10):
            stats = random_stats(seed + 80, d=4)
            K = int(rng.integers(1, 6))
            iv = rng.integers(0, 4, size=K)
            alpha = rng.uniform(0.0, 2.0, size=K)
            H, _ = build_system(stats, np.zeros(4), iv, alpha)
            assert np.min(np.linalg.eigvalsh(H)) >= -1e-10 * max(np.max(np.abs(H)), 1.0)

    def test_repeated_indices_minimum_norm(self, toy_stats, toy_zero):
        # alpha = (0, 1) with a repeated coordinate makes the system singular;
        # the minimum-norm solution still reaches the optimal endpoint.
        delta, obj = solve_free(toy_stats, toy_zero, [0, 0], [0.0, 1.0])
        best_single = 0.42
        assert obj <= best_single
        assert np.all(np.isfinite(delta))

    def test_all_zero_schedule_rejected(self, toy_stats, toy_zero):
        with pytest.raises(InputError, match="positive"):
            solve_free(toy_stats, toy_zero, [0, 1], [0.0, 0.0])


class TestSolveFixedEndpoint:
    def test_forced_two_step(self, toy_stats, toy_zero):
        target = LinearModel(TOY_OLS, toy_stats.feature_names)
        delta, obj = solve_fixed_endpoint(toy_stats, toy_zero, [0, 1], GAMMA1, target)
        assert np.allclose(delta, TOY_OLS, atol=1e-9)
        assert obj == pytest.approx(1.38, abs=0.01)

    def test_three_step_revisit_improves(self, toy_stats, toy_zero):
        target = LinearModel(TOY_OLS, toy_stats.feature_names)
        _, obj = solve_fixed_endpoint(toy_stats, toy_zero, [0, 1, 0], GAMMA1, target)
        assert obj <= 0.60 + 0.43 + 0.25 + 0.01

    def test_missing_support_is_infeasible(self, toy_stats, toy_zero):
        target = LinearModel(TOY_OLS, toy_stats.feature_names)
        with pytest.raises(InfeasibleError):
            solve_fixed_endpoint(toy_stats, toy_zero, [0, 0], GAMMA1, target)

    def test_endpoint_feasibility_and_stationarity(self):
        rng = np.random.default_rng(8)
        for seed in range(10):
            stats = random_stats(seed + 100, d=3)
            base = LinearModel.zeros(stats.feature_names)
            K = int(rng.integers(2, 6))
            iv = rng.integers(0, 3, size=K)
            target_vec = np.zeros(3)
            for c in set(iv.tolist()):
                target_vec[c] = rng.standard_normal()
            target = LinearModel(target_vec, stats.feature_names)
            alpha = rng.uniform(0.2, 2.0, size=K)
            delta, obj = solve_fixed_endpoint(stats, base, iv, alpha, target)
            final = base.coefficients.copy()
            for i, dv in zip(iv, delta):
                final[i] += dv
            assert np.max(np.abs(final - target_vec)) <= 1e-8
            # Stationarity restricted to the constraint null space.
            grad = fd_gradient(stats, base.coefficients, iv, delta, alpha)
            coords = sorted(set(iv.tolist()))
            A = np.zeros((len(coords), K))
            for row, c in enumerate(coords):
                A[row, iv == c] = 1.0
            _, _, vt = np.linalg.svd(A)
            Z = vt[len(coords):].T
            if Z.shape[1]:
                assert np.linalg.norm(Z.T @ grad) <= 1e-7 * max(1.0, abs(obj))

    def test_matches_svd_oracle(self):
        # Nonzero bases, repeated coordinates, touched coordinates the target
        # leaves alone, and (odd trials) zero weights, which make reduced
        # systems singular. There the minimum-norm step sizes of the two
        # eliminations differ, so only objectives and endpoints compare.
        rng = np.random.default_rng(9)
        singular = 0
        for trial in range(300):
            d = int(rng.integers(1, 5))
            stats = random_stats(trial + 200, d=d)
            K = int(rng.integers(1, 6))
            iv = rng.integers(0, d, size=K)
            base = rng.standard_normal(d) * 0.5
            target = base.copy()
            for c in set(iv.tolist()):
                if rng.random() < 0.7:
                    target[c] = rng.standard_normal()
            alpha = rng.uniform(0.1, 2.0, size=K)
            if trial % 2:
                alpha[rng.random(K) < 0.5] = 0.0
                if not np.any(alpha > 0):
                    alpha[-1] = 1.0
            names = stats.feature_names
            delta, obj = solve_fixed_endpoint(
                stats, LinearModel(base, names), iv, alpha, LinearModel(target, names)
            )
            ref_delta, ref_obj, is_singular = svd_fixed_endpoint(stats, base, iv, alpha, target)
            assert abs(obj - ref_obj) <= 1e-9 * abs(ref_obj)
            final = base.copy()
            np.add.at(final, iv, delta)
            assert np.max(np.abs(final - target)) <= 1e-12 * max(1.0, np.max(np.abs(target)))
            if is_singular:
                singular += 1
            else:
                assert np.max(np.abs(delta - ref_delta)) <= 1e-9 * max(
                    1.0, np.max(np.abs(ref_delta))
                )
        assert singular >= 30


class TestGreedyStep:
    def test_toy_first_step(self, toy_stats, toy_zero):
        i, value, new_cost = greedy_step(toy_stats, toy_zero)
        assert i == 0
        assert value == pytest.approx(1.274, abs=1e-9)
        assert new_cost == pytest.approx(0.42, abs=0.005)

    def test_no_improvement_at_ols(self, toy_stats):
        fit = ols(toy_stats)
        i, value, new_cost = greedy_step(toy_stats, fit)
        assert new_cost == pytest.approx(cost(toy_stats, fit), abs=1e-9)

    def test_matches_grid_search(self):
        # Oracle: scan a 10^4-point grid of new values per coordinate.
        stats = random_stats(12, d=4)
        current = LinearModel(np.array([0.2, -0.1, 0.0, 0.4]), stats.feature_names)
        best = None
        for i in range(4):
            for v in np.linspace(-4, 4, 10_000):
                c = cost(stats, current.with_coordinate(i, v))
                if best is None or c < best[0]:
                    best = (c, i, v)
        got_i, got_v, got_c = greedy_step(stats, current)
        grid_c, grid_i, grid_v = best
        assert got_i == grid_i
        assert abs(got_v - grid_v) <= 4 * (8 / 9999)
        assert got_c <= grid_c + 1e-9

    def test_zero_diagonal_rejected(self):
        stats = stats_from_moments(np.zeros((2, 2)), np.zeros(2), 1.0)
        with pytest.raises(InputError, match="diagonal"):
            greedy_step(stats, LinearModel.zeros(stats.feature_names))

    def test_tie_breaks_to_lowest_index(self):
        stats = stats_from_moments(np.eye(2), [0.5, 0.5], 1.0)
        i, _, _ = greedy_step(stats, LinearModel.zeros(stats.feature_names))
        assert i == 0


def test_path_from_deltas_matches_weighted_loss(toy_stats, toy_zero):
    iv = np.array([0, 1, 0])
    delta = np.array([1.7, -0.94, 0.42])
    path = path_from_deltas(toy_zero, iv, delta)
    assert path.steps[-1] == (0, pytest.approx(2.12))
    alpha = GAMMA1.weights(3)
    assert weighted_loss(toy_stats, path, GAMMA1) == pytest.approx(
        float(alpha @ cost_sequence(toy_stats, path))
    )


def test_tail_weights():
    assert np.allclose(tail_weights(np.array([1.0, 2.0, 3.0])), [6.0, 5.0, 3.0])
