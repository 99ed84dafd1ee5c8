import gc
import importlib.util
import itertools
import math
import re
import time
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from pathlens import (
    BudgetError,
    CoordinatePath,
    Dataset,
    InfeasibleError,
    InputError,
    LinearModel,
    OptimizerConfig,
    WeightSchedule,
    best_explanation,
    compute_stats,
    cost,
    cost_sequence,
    default_lambda_grid,
    direct_path,
    exact_path,
    explanation_loss,
    greedy_path,
    local_improvement,
    materialize,
    model_complexity,
    ols,
    solve_fixed_endpoint,
    solve_free,
    stats_from_moments,
    sweep,
    weighted_loss,
)
import pathlens
from pathlens import optimizers, pareto
from pathlens.optimizers import (
    _TIE_RTOL,
    _best_subset_floor,
    _rules_out,
    _enum_direct,
    _enum_fast,
    _grow,
    _kept_chunks,
    _l1_ball,
)
from pathlens.inner import (
    _OBJECTIVE_RTOL,
    as_weights,
    path_from_deltas,
    solve_patterns,
    tail_weights,
)
from conftest import TOY_OLS, collinear_stats, random_dataset, random_stats
from oracles import (
    PivotBreakdown,
    all_lengths_explanation,
    batch_objectives,
    best_subset_costs,
    brute_force_explanation,
    brute_force_unit,
    every_pattern_direct,
    iterwise_local_improvement,
    kept_patterns,
    unblocked_enum_free_fast,
)

GAMMA1 = WeightSchedule.geometric(1.0)


def searched_lengths(monkeypatch) -> list:
    """The K of every exact_path call best_explanation makes from here on."""
    lengths = []
    search = optimizers.exact_path

    def spy(stats, base, cfg):
        lengths.append(cfg.K)
        return search(stats, base, cfg)

    monkeypatch.setattr(optimizers, "exact_path", spy)
    return lengths


def enum_direct_path(stats, base, K, alpha, endpoint=None) -> CoordinatePath:
    """_enum_direct's pattern with its steps from solve_patterns, as
    exact_paths solves it."""
    iv = _enum_direct(stats, base, K, alpha, endpoint)[1]
    target = None if endpoint is None else endpoint.coefficients
    delta = solve_patterns(stats, base.coefficients, iv[None], alpha, target)[0][0]
    return path_from_deltas(base, iv, delta)


class TestGreedyPath:
    def test_toy_costs(self, toy_stats, toy_zero):
        path = greedy_path(toy_stats, toy_zero, 2)
        assert np.allclose(cost_sequence(toy_stats, path), [0.42, 0.39], atol=0.005)

    def test_zero_steps(self, toy_stats, toy_zero):
        assert greedy_path(toy_stats, toy_zero, 0).K == 0

    def test_two_steps_do_not_reach_ols(self, toy_stats, toy_zero):
        path = greedy_path(toy_stats, toy_zero, 2)
        final_cost = cost_sequence(toy_stats, path)[-1]
        assert final_cost > cost(toy_stats, ols(toy_stats)) + 0.1

    def test_costs_non_increasing(self):
        stats = random_stats(1, d=5)
        path = greedy_path(stats, LinearModel.zeros(stats.feature_names), 8)
        costs = cost_sequence(stats, path)
        assert np.all(np.diff(costs) <= 1e-12)


class TestDirectPath:
    def test_toy_matches_install_order(self, toy_stats, toy_zero):
        path = direct_path(toy_stats, toy_zero, 2)
        models = materialize(path)
        assert np.allclose(models[0].coefficients, [2.12, 0.0], atol=0.005)
        assert np.allclose(models[1].coefficients, TOY_OLS, atol=0.005)
        assert np.allclose(cost_sequence(toy_stats, path), [1.13, 0.25], atol=0.005)

    def test_zero_steps(self, toy_stats, toy_zero):
        assert direct_path(toy_stats, toy_zero, 0).K == 0

    def test_full_length_reaches_ols(self):
        stats = random_stats(2, d=3)
        base = LinearModel.zeros(stats.feature_names)
        path = direct_path(stats, base, 3)
        assert cost_sequence(stats, path)[-1] <= cost(stats, ols(stats)) + 1e-9

    def test_too_many_steps_rejected(self, toy_stats, toy_zero):
        with pytest.raises(InputError, match="exceeds"):
            direct_path(toy_stats, toy_zero, 3)

    @pytest.mark.parametrize("d", [2, 4])
    def test_base_dimension_mismatch_rejected(self, d):
        stats = random_stats(3, d=3)
        base = LinearModel.zeros(tuple(f"x{i}" for i in range(d)))
        with pytest.raises(InputError, match="base dimension does not match stats"):
            direct_path(stats, base, 1)


@pytest.mark.parametrize("call", [
    lambda stats, base: exact_path(stats, base, OptimizerConfig(K=2, schedule=GAMMA1)),
    lambda stats, base: local_improvement(
        stats, base, OptimizerConfig(K=2, schedule=GAMMA1), iv0=[0, 1]),
    lambda stats, base: local_improvement(
        stats, base, OptimizerConfig(K=3, schedule=GAMMA1, endpoint=base)),
    lambda stats, base: solve_free(stats, base, [0, 1], GAMMA1),
    lambda stats, base: solve_fixed_endpoint(
        stats, base, [0, 1], GAMMA1, LinearModel(np.ones(3), ("a", "b", "c"))),
    lambda stats, base: best_explanation(stats, base, base, GAMMA1, 2),
], ids=["exact_path", "local_iv0", "local_endpoint", "solve_free", "solve_fixed_endpoint",
        "best_explanation_complexity0"])
@pytest.mark.parametrize("d", [2, 4])
def test_entry_points_reject_base_of_other_dimension(call, d):
    stats = random_stats(3, d=3)
    base = LinearModel(np.full(d, 0.5), tuple(f"x{i}" for i in range(d)))
    with pytest.raises(InputError, match="base dimension does not match stats"):
        call(stats, base)


class TestExactPath:
    def test_toy_free_two_step(self, toy_stats, toy_zero):
        path = exact_path(toy_stats, toy_zero, OptimizerConfig(K=2, schedule=GAMMA1))
        obj = weighted_loss(toy_stats, path, GAMMA1)
        assert obj <= 0.81 and obj <= 1.38

    def test_k1_equals_greedy(self, toy_stats, toy_zero):
        path = exact_path(toy_stats, toy_zero, OptimizerConfig(K=1, schedule=GAMMA1))
        greedy = greedy_path(toy_stats, toy_zero, 1)
        assert weighted_loss(toy_stats, path, GAMMA1) == pytest.approx(
            weighted_loss(toy_stats, greedy, GAMMA1), abs=1e-12
        )

    def test_beats_random_search(self):
        # Oracle: 1e5 random (pattern, value) paths can never beat the optimum.
        stats = random_stats(3, d=3)
        base = LinearModel.zeros(stats.feature_names)
        path = exact_path(stats, base, OptimizerConfig(K=3, schedule=GAMMA1))
        obj = weighted_loss(stats, path, GAMMA1)
        rng = np.random.default_rng(0)
        alpha = GAMMA1.weights(3)
        best = np.inf
        for _ in range(100_000 // 100):
            ivs = rng.integers(0, 3, size=(100, 3))
            deltas = rng.standard_normal((100, 3)) * 1.5
            vals = batch_objectives(stats, base.coefficients, ivs, deltas, alpha)
            best = min(best, float(vals.min()))
        assert obj <= best + 1e-9

    def test_budget_error_mentions_fallback(self, toy_stats, toy_zero):
        cfg = OptimizerConfig(K=4, schedule=GAMMA1, budget=10)
        with pytest.raises(BudgetError, match="local_improvement"):
            exact_path(toy_stats, toy_zero, cfg)

    @pytest.mark.parametrize("K,count", [(4, "16"), (10, "1,024"), (6000, "about 10^1806.2")])
    def test_budget_error_names_the_count(self, toy_stats, toy_zero, K, count):
        cfg = OptimizerConfig(K=K, schedule=GAMMA1, budget=10)
        with pytest.raises(BudgetError, match=re.escape(f"needs {count} inner solves")):
            exact_path(toy_stats, toy_zero, cfg)

    @pytest.mark.parametrize("entry", ["continuous", "unit", "pinned", "unit_pinned", "sweep",
                                       "solve_tradeoff", "best_explanation"])
    def test_budget_checked_before_weights(self, toy_stats, toy_zero, entry, monkeypatch):
        # At K = 10^6 every exact entry raises BudgetError before it asks the
        # schedule for its K weights (a sweep's rows would take 0.5 GB).
        weights = WeightSchedule.weights

        def spy(schedule, K):
            assert K <= 2, f"{K:,} weights built before the budget check"
            return weights(schedule, K)

        monkeypatch.setattr(WeightSchedule, "weights", spy)
        K, target = 10**6, LinearModel(TOY_OLS, toy_stats.feature_names)
        cfg = OptimizerConfig(K=K, schedule=GAMMA1,
                              step_mode="unit" if entry.startswith("unit") else "continuous",
                              endpoint=target if entry.endswith("pinned") else None)
        with pytest.raises(BudgetError):
            if entry == "sweep":
                sweep(toy_stats, toy_zero, GAMMA1, default_lambda_grid(), K)
            elif entry == "solve_tradeoff":
                pareto.solve_tradeoff(toy_stats, toy_zero, GAMMA1, 1.0, K)
            elif entry == "best_explanation":
                best_explanation(toy_stats, toy_zero, target, GAMMA1, K)
            else:
                exact_path(toy_stats, toy_zero, cfg)

    def test_k0(self, toy_stats, toy_zero):
        assert exact_path(toy_stats, toy_zero, OptimizerConfig(K=0, schedule=GAMMA1)).K == 0

    def test_exact_beats_greedy(self):
        for seed in range(5):
            stats = random_stats(seed + 10, d=4)
            base = LinearModel.zeros(stats.feature_names)
            schedule = WeightSchedule.geometric(0.8)
            exact = exact_path(stats, base, OptimizerConfig(K=4, schedule=schedule))
            greedy = greedy_path(stats, base, 4)
            assert weighted_loss(stats, exact, schedule) <= weighted_loss(
                stats, greedy, schedule
            ) + 1e-9

    def test_fixed_endpoint_toy(self, toy_stats, toy_zero):
        target = LinearModel(TOY_OLS, toy_stats.feature_names)
        cfg = OptimizerConfig(K=2, schedule=GAMMA1, endpoint=target)
        path = exact_path(toy_stats, toy_zero, cfg)
        assert np.allclose(path.final.coefficients, TOY_OLS, atol=1e-8)
        assert weighted_loss(toy_stats, path, GAMMA1) == pytest.approx(1.38, abs=0.01)

    def test_fixed_endpoint_unreachable(self, toy_stats, toy_zero):
        target = LinearModel(TOY_OLS, toy_stats.feature_names)
        with pytest.raises(InfeasibleError):
            exact_path(toy_stats, toy_zero, OptimizerConfig(K=1, schedule=GAMMA1, endpoint=target))

    def test_k0_reaches_only_the_base(self, toy_stats, toy_zero):
        # With no step, an endpoint equal to the base gives the empty path
        # and any other is unreachable.
        cfg = OptimizerConfig(K=0, schedule=GAMMA1, endpoint=toy_zero)
        assert exact_path(toy_stats, toy_zero, cfg).steps == ()
        target = LinearModel(TOY_OLS, toy_stats.feature_names)
        with pytest.raises(InfeasibleError, match="K=0 steps cannot reach it"):
            exact_path(toy_stats, toy_zero, replace(cfg, endpoint=target))

    @pytest.mark.parametrize("K,weights,step_mode", [
        (0, None, "continuous"), (1, None, "continuous"), (2, None, "continuous"),
        (2, (1.0, 0.0), "continuous"), (2, None, "unit"),
    ], ids=["k0", "pinned_k1_direct", "recursion", "zero_weight_direct", "unit"])
    def test_unreachable_endpoint_on_every_route(self, K, weights, step_mode):
        # A target K steps cannot reach raises the same InfeasibleError
        # whichever search the length, weights and step mode would pick;
        # over budget it raises BudgetError first.
        stats = random_stats(71, d=3)
        base = LinearModel.zeros(stats.feature_names)
        target = LinearModel((np.arange(3) <= K).astype(float), stats.feature_names)
        schedule = GAMMA1 if weights is None else WeightSchedule.explicit(weights)
        cfg = OptimizerConfig(K=K, schedule=schedule, step_mode=step_mode, endpoint=target)
        message = f"target differs from base in {K + 1} coordinates; K={K} steps cannot reach it"
        with pytest.raises(InfeasibleError, match=re.escape(message)):
            exact_path(stats, base, cfg)
        if K > 0:  # d**0 = 1 pattern is within any budget
            with pytest.raises(BudgetError):
                exact_path(stats, base, replace(cfg, budget=1))


def _blocking_battery():
    """((d, K, _BLOCK_LEAVES), upper, stats, base, alpha) for each run of the
    exact search's oracle battery. Small chunks grow every level a few
    parents at a time; the fixed cases add d = 1, K <= 2 and one parent per
    chunk. Each case also runs with a weight that breaks the factorization:
    a first weight too small to change the tail weights (repeated
    coordinates fail at the first pivot they share) or a near-zero weight
    at K-2 (the fused step's last pivot). The upper cases put a 1e-12
    weight at an early step m, so that the pivot of a pattern repeating
    step m's coordinate at step m + 1, positive but below the breakdown
    floor, lies in the levels above the last grown one."""
    rng = np.random.default_rng(4)
    cases = [(1, 5, 1), (1, 3, 50_000), (3, 1, 1), (4, 2, 1), (3, 2, 5), (3, 6, 1), (4, 5, 16)]
    for _ in range(100):
        d = int(rng.integers(1, 6))
        K = int(rng.integers(1, 8))
        rng.choice([1, d, d * d, 50, 2_000_000])  # unused; keeps the later draws fixed
        cases.append((d, K, int(rng.choice([1, 2, 5, 64, 50_000]))))
    # (d, K, _BLOCK_LEAVES, step of the 1e-12 weight)
    upper_cases = [(3, 6, 50_000, 0), (3, 6, 1, 1), (3, 6, 5, 1),
                   (2, 7, 5, 3), (4, 5, 64, 0), (4, 5, 1, 1),
                   (3, 7, 16, 2), (2, 6, 1, 2), (5, 4, 64, 0)]
    for seed, (d, K, block, *pos) in enumerate(cases + upper_cases):
        stats = random_stats(seed + 200, d=d)
        base = rng.standard_normal(d) * 0.5
        alpha = as_weights(rng.uniform(0.1, 2.0, size=K), K)
        tiny = alpha.copy()
        if pos:
            tiny[pos[0]] = 1e-12
        elif seed % 2 and K >= 3:
            tiny[K - 2] = 1e-14
        else:
            tiny[0] = 1e-20
        for a in ((tiny,) if pos else (alpha, tiny) if K >= 2 else (alpha,)):
            yield (d, K, block), bool(pos), stats, base, a


def tied_moments(d, gram, tilt=0.0):
    """(stats, perm): moments under which perm[iv], a pattern iv with its
    coordinates relabeled, has iv's objective, up to rounding and the tilt,
    which adds tilt * (0, 1, ...) to the cross moments. "identity": G = I
    and equal cross moments, relabeled by i -> (i + 1) % d. "exchangeable":
    a gram that is not the identity, under which only coordinates 0 and 1
    are exchangeable, swapped."""
    names = tuple(f"x{i}" for i in range(d))
    if gram == "identity":
        G, cross, perm = np.eye(d), np.full(d, 0.5), (np.arange(d) + 1) % d
    else:
        G = np.array([[1.0, 0.4, 0.2, 0.1], [0.4, 1.0, 0.2, 0.1],
                      [0.2, 0.2, 1.0, -0.3], [0.1, 0.1, -0.3, 1.0]])[:d, :d]
        cross, perm = np.array([0.5, 0.5, 0.3, 0.2])[:d], np.r_[1, 0, 2:d]
    return stats_from_moments(G, cross + tilt * np.arange(d), 2.0, names), perm


class TestEnumerationEngines:
    """The incremental-factor engine must agree with per-candidate solves."""

    @pytest.mark.parametrize("seed,d,K", [(0, 2, 5), (1, 3, 4), (2, 4, 7), (3, 4, 3), (4, 2, 2)])
    def test_engines_agree(self, seed, d, K):
        stats = random_stats(seed + 50, d=d)
        base = np.zeros(d)
        rng = np.random.default_rng(seed)
        alpha = as_weights(rng.uniform(0.1, 2.0, size=K), K)
        (v_fast,), (iv_fast,), (broken,) = _enum_fast(stats, base, K, alpha[None])
        v_direct, iv_direct = _enum_direct(stats, LinearModel(base, stats.feature_names), K, alpha)
        assert not broken
        assert v_fast == pytest.approx(v_direct, rel=1e-8, abs=1e-10)
        assert np.array_equal(iv_fast, iv_direct)

    def test_engines_agree_nonzero_base(self):
        stats = random_stats(99, d=3)
        rng = np.random.default_rng(99)
        base = rng.standard_normal(3) * 0.5
        alpha = as_weights(rng.uniform(0.1, 2.0, size=4), 4)
        (v_fast,), (iv_fast,), (broken,) = _enum_fast(stats, base, 4, alpha[None])
        v_direct, iv_direct = _enum_direct(stats, LinearModel(base, stats.feature_names), 4, alpha)
        assert not broken
        assert v_fast == pytest.approx(v_direct, rel=1e-8, abs=1e-10)
        assert np.array_equal(iv_fast, iv_direct)

    def test_blocked_matches_unblocked_oracle(self, monkeypatch):
        # Whatever _BLOCK_LEAVES is, the search must give the one
        # breadth-first oracle's objective bit for bit and its pattern, and
        # mark a row broken iff the oracle breaks down.
        broke = upper_broke = uppers = 0
        for (d, K, block), upper, stats, base, a in _blocking_battery():
            monkeypatch.setattr(optimizers, "_BLOCK_LEAVES", block)
            (value,), (iv,), (broken,) = _enum_fast(stats, base, K, a[None])
            uppers += upper
            try:
                expected = unblocked_enum_free_fast(stats, base, K, a)
            except PivotBreakdown:
                assert broken, (d, K, block)
                broke += 1
                upper_broke += upper
                continue
            assert not broken, (d, K, block)
            assert value == expected[0], (d, K, block)
            assert np.array_equal(iv, expected[1]), (d, K, block)
        assert broke > upper_broke == uppers > 0

    def test_folded_leaves_match_explicit_pivots(self, monkeypatch):
        # The last two steps fold the step weights into per-node terms. The
        # formula from the explicit second pivot must agree with them on the
        # same battery: the same broken rows and patterns, and objectives
        # equal up to the tie tolerance.
        for case, _, stats, base, a in _blocking_battery():
            monkeypatch.setattr(optimizers, "_BLOCK_LEAVES", case[2])
            (value,), (iv,), (broken,) = _enum_fast(stats, base, case[1], a[None])
            try:
                expected = unblocked_enum_free_fast(stats, base, case[1], a, folded=False)
            except PivotBreakdown:
                assert broken, case
                continue
            assert not broken, case
            assert abs(value - expected[0]) <= _TIE_RTOL * abs(expected[0]), case
            assert np.array_equal(iv, expected[1]), case

    @pytest.mark.parametrize("alpha", [[1.0, 1.0, 1e-300], [0.7, 1.3, 5e-324],
                                       [1e160, 2e160, 0.5e160], [1.0, 1e-14, 1.0],
                                       [0.5, 1.0, 1e-14, 1.5]],
                             ids=["last 1e-300", "last subnormal", "overflowing",
                                  "1e-14 at K-2", "1e-14 at K-2, K=4"])
    def test_extreme_weights_break_as_explicit_pivots(self, alpha):
        # The folded leaves divide by the last weight. That must not change
        # which rows break: each row is broken iff the explicit-pivot formula
        # breaks down, and otherwise finds its pattern, while exact_path
        # returns _enum_direct's path for a broken row. Stacked with an
        # ordinary row, each row still gives its one-row results bit for bit.
        stats = random_stats(1, d=3)
        base = LinearModel.zeros(stats.feature_names)
        alpha = np.array(alpha)
        K = alpha.shape[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (value,), (iv,), (broken,) = _enum_fast(stats, base.coefficients, K, alpha[None])
            stacked = _enum_fast(stats, base.coefficients, K, np.stack([np.ones(K), alpha]))
            path = exact_path(stats, base,
                              OptimizerConfig(K=K, schedule=WeightSchedule.explicit(alpha)))
        assert [x[1].tolist() for x in stacked] == [value.tolist(), iv.tolist(), broken.tolist()]
        try:
            with np.errstate(all="ignore"):
                expected = unblocked_enum_free_fast(stats, base.coefficients, K, alpha,
                                                    folded=False)
        except PivotBreakdown:
            assert broken
            assert path.steps == enum_direct_path(stats, base, K, alpha).steps
            return
        assert not broken
        assert abs(value - expected[0]) <= _TIE_RTOL * abs(expected[0])
        assert np.array_equal(iv, expected[1])

    @pytest.mark.parametrize("d,K,block,gram", [
        (3, 4, 1, "identity"), (4, 4, 1, "identity"), (2, 5, 1, "identity"),
        (3, 5, 2 * 3**3, "identity"), (4, 5, 2 * 4**3, "identity"),
        (3, 5, 2 * 3**3, "exchangeable"), (4, 5, 2 * 4**3, "exchangeable")], ids=[
        "3-4", "4-4", "2-5", "3-5-two-parents", "4-5-two-parents",
        "3-5-two-parents-exchangeable", "4-5-two-parents-exchangeable"])
    def test_ties_across_blocks_resolve_to_first_pattern(self, monkeypatch, d, K, block, gram):
        # Relabeling the coordinates maps each pattern to one with exactly
        # the same objective (tied_moments), so every optimum is tied with
        # patterns in later blocks. Blocks of 2 d^3 leaves grow two parents
        # per chunk at K = 5, so the level-2 nodes' subtrees are visited out
        # of lexicographic order and a later tied pattern may come first.
        stats, perm = tied_moments(d, gram)
        base = LinearModel.zeros(stats.feature_names)
        alpha = as_weights(np.ones(K), K)
        monkeypatch.setattr(optimizers, "_BLOCK_LEAVES", block)
        _, (iv,), _ = _enum_fast(stats, base.coefficients, K, alpha[None])
        _, iv_direct = _enum_direct(stats, base, K, alpha)
        assert np.array_equal(iv, iv_direct)
        relabeled = perm[iv]
        assert relabeled.tolist() > iv.tolist()
        assert solve_free(stats, base, relabeled, alpha)[1] == pytest.approx(
            solve_free(stats, base, iv, alpha)[1], rel=1e-12
        )

    def test_pivot_breakdown_in_small_blocks_falls_back(self, monkeypatch):
        # A near-zero weight at position K-2 makes the last pivot of every
        # pattern that repeats its last coordinate vanish.
        monkeypatch.setattr(optimizers, "_BLOCK_LEAVES", 1)
        stats = random_stats(7, d=3)
        base = LinearModel.zeros(stats.feature_names)
        schedule = WeightSchedule.explicit([1.0, 1.0, 1e-14, 1.0])
        alpha = as_weights(schedule, 4)
        assert _enum_fast(stats, base.coefficients, 4, alpha[None])[2].tolist() == [True]
        path = exact_path(stats, base, OptimizerConfig(K=4, schedule=schedule))
        assert path.steps == enum_direct_path(stats, base, 4, alpha).steps

    def test_marked_rows_fall_back_to_direct(self, monkeypatch):
        # exact_paths must solve a row _enum_fast marks as broken
        # with _enum_direct, and never use that row's pattern.
        stats = random_stats(8, d=3)
        base = LinearModel.zeros(stats.feature_names)
        alphas = np.array([[1.0, 0.5, 2.0], [0.3, 1.0, 1.0], [2.0, 2.0, 0.1]])
        expected = optimizers.exact_paths(stats, base, alphas)
        fast = optimizers._enum_fast

        def mark_middle_row(*args):
            values, ivs, broken = fast(*args)
            ivs[1] = (ivs[1] + 1) % 3
            broken[1] = True
            return values, ivs, broken

        monkeypatch.setattr(optimizers, "_enum_fast", mark_middle_row)
        paths = optimizers.exact_paths(stats, base, alphas)
        assert paths[1].steps == enum_direct_path(stats, base, 3, alphas[1]).steps
        assert paths[0].steps == expected[0].steps and paths[2].steps == expected[2].steps

    @pytest.mark.parametrize("pinned", [False, True], ids=["free", "pinned"])
    def test_every_route_gets_steps_from_one_solve(self, pinned, monkeypatch):
        # One call whose rows take every route: the recursion, a zero weight
        # (at d = 2 its winner must repeat a coordinate), and a row the
        # recursion marks broken. Each row's steps must be solve_patterns'
        # for its pattern under its own weights, and its one-row call's.
        stats = random_stats(9, d=2)
        base = LinearModel(np.array([0.2, -0.1]), stats.feature_names)
        endpoint = ols(stats) if pinned else None
        target = None if endpoint is None else endpoint.coefficients
        alphas = np.array([[1.0, 0.5, 2.0, 0.7], [1.0, 0.0, 0.0, 1.0], [0.3, 1.0, 1.0, 0.4]])
        fast = optimizers._enum_fast

        def mark_last_row(stats, base, K, alphas, target):
            values, ivs, broken = fast(stats, base, K, alphas, target)
            broken |= (alphas == [0.3, 1.0, 1.0, 0.4]).all(axis=1)
            return values, ivs, broken

        monkeypatch.setattr(optimizers, "_enum_fast", mark_last_row)
        paths = optimizers.exact_paths(stats, base, alphas, endpoint=endpoint)
        ivs = [np.array([i for i, _ in path.steps]) for path in paths]
        _, (iv_fast,), (broken,) = fast(stats, base.coefficients, 4, alphas[:1], target)
        assert not broken and np.array_equal(ivs[0], iv_fast)
        assert len(set(ivs[1].tolist())) < 4
        assert np.array_equal(ivs[2], _enum_direct(stats, base, 4, alphas[2], endpoint)[1])
        for j, (path, iv) in enumerate(zip(paths, ivs)):
            delta = solve_patterns(stats, base.coefficients, iv[None], alphas[j], target)[0][0]
            assert path.steps == path_from_deltas(base, iv, delta).steps
            assert path.steps == optimizers.exact_paths(stats, base, alphas[j:j + 1],
                                                        endpoint=endpoint)[0].steps

    def test_pinned_k1_gets_steps_from_one_solve(self):
        # Pinned K = 1 rows skip the recursion; each must still be the
        # one-row call's path, with solve_patterns' step.
        stats = random_stats(10, d=3)
        base = LinearModel.zeros(stats.feature_names)
        endpoint = LinearModel(np.array([0.0, 0.4, 0.0]), stats.feature_names)
        alphas = np.array([[1.0], [0.25], [3.0]])
        paths = optimizers.exact_paths(stats, base, alphas, endpoint=endpoint)
        for j, path in enumerate(paths):
            delta = solve_patterns(stats, base.coefficients, np.array([[1]]), alphas[j],
                                   endpoint.coefficients)[0][0]
            assert path.steps == path_from_deltas(base, np.array([1]), delta).steps == ((1, 0.4),)
            assert path.steps == optimizers.exact_paths(stats, base, alphas[j:j + 1],
                                                        endpoint=endpoint)[0].steps

    def test_weight_rows_match_one_row_calls(self, monkeypatch):
        # Each row of a multi-row call must equal its own one-row call: same
        # objective bit for bit and same pattern. A row with a zero or
        # near-zero weight breaks down; the call must mark it, and no row
        # that does not break down alone. Small blocks and row-node minimums
        # run passes of one and of several rows, and one parent per chunk.
        # The fixed cases put several rows in one pass with one parent per
        # chunk: (d, K, _BLOCK_LEAVES, _BLOCK_ROW_NODES).
        rng = np.random.default_rng(11)
        cases = [(4, 6, 192, 1), (3, 5, 18, 1), (2, 4, 64, 1),
                 (3, 4, 1, 64), (2, 6, 1, 64), (4, 4, 1, 64),
                 (1, 3, 1, 64), (3, 1, 1, 64), (2, 2, 64, 64)]
        for _ in range(40):
            d = int(rng.integers(1, 5))
            K = int(rng.integers(1, 7))
            rng.choice([1, d, d * d, 50, 2_000_000])  # unused; keeps the later draws fixed
            cases.append((d, K, int(rng.choice([1, 2, 5, 64, 50_000])), int(rng.choice([1, 64]))))
        broke = 0
        for seed, (d, K, block, row_nodes) in enumerate(cases):
            stats = random_stats(seed + 400, d=d)
            base = rng.standard_normal(d) * 0.5
            alphas = rng.uniform(0.1, 2.0, size=(int(rng.integers(2, 6)), K))
            if K >= 3 and seed % 3 == 0:
                alphas[int(rng.integers(len(alphas))), K - 2] = 1e-14
            elif K >= 2 and seed % 3 == 1:  # equal first two tail weights: fails at step 2
                alphas[int(rng.integers(len(alphas))), 0] = 0.0
            monkeypatch.setattr(optimizers, "_BLOCK_LEAVES", block)
            monkeypatch.setattr(optimizers, "_BLOCK_ROW_NODES", row_nodes)
            alone = [_enum_fast(stats, base, K, a[None]) for a in alphas]
            values, ivs, broken = _enum_fast(stats, base, K, alphas)
            assert broken.tolist() == [bool(b[2][0]) for b in alone], (d, K, block)
            broke += int(broken.sum())
            for j in np.flatnonzero(~broken):
                assert values[j] == alone[j][0][0], (d, K, block)
                assert np.array_equal(ivs[j], alone[j][1][0]), (d, K, block)
        assert broke > 0

    @pytest.mark.parametrize("K", [1, 2, 5])
    def test_leaves_no_reference_cycle(self, K):
        # Garbage kept for the collector would hold the call's buffers past
        # its return, and peak memory would grow from call to call. Pinned
        # calls (K >= 2) carry more buffers and a generator of leaf pieces.
        stats = random_stats(12, d=4)
        targets = [None] + [np.array([0.5, -0.2, 0.0, 0.1])] * (K >= 2)
        gc.collect()
        gc.disable()
        try:
            for target in targets:
                _enum_fast(stats, np.zeros(4), K, np.ones((3, K)), target)
                assert gc.collect() == 0
        finally:
            gc.enable()

    def test_weight_rows_resolve_ties_to_first_pattern(self, monkeypatch):
        # As test_ties_across_blocks_resolve_to_first_pattern, with several
        # weight rows in one call.
        d, K = 3, 4
        names = tuple(f"x{i}" for i in range(d))
        stats = stats_from_moments(np.eye(d), np.full(d, 0.5), 2.0, names)
        base = LinearModel.zeros(names)
        alphas = np.array([[1.0, 1.0, 1.0, 1.0], [0.2, 0.5, 1.0, 2.0], [3.0, 1.0, 0.5, 0.1]])
        monkeypatch.setattr(optimizers, "_BLOCK_LEAVES", 1)
        _, ivs, _ = _enum_fast(stats, base.coefficients, K, alphas)
        for a, iv in zip(alphas, ivs):
            assert np.array_equal(iv, _enum_direct(stats, base, K, a)[1])

    def test_pinned_matches_direct_oracle(self, monkeypatch):
        # Pinned rows of the recursion must pick _enum_direct's pattern, with
        # its objective to 1e-12: d 1-6, K from the target's complexity (at
        # least 2) to two more, targets that keep some base coordinates,
        # several weight rows per call, and random block and piece sizes.
        rng = np.random.default_rng(21)
        checked = 0
        for seed in range(90):
            d = int(rng.integers(1, 7))
            stats = random_stats(seed + 600, d=d)
            names = stats.feature_names
            base = rng.standard_normal(d) * 0.5 * (seed % 2)
            target = base.copy()
            moved = rng.choice(d, int(rng.integers(1, d + 1)), replace=False)
            target[moved] += rng.standard_normal(moved.size)
            K = max(2, moved.size) + int(rng.integers(0, 3))
            alphas = rng.uniform(0.1, 2.0, size=(int(rng.integers(1, 4)), K))
            block = int(rng.choice([1, 5, 64, 50_000]))
            piece = int(rng.choice([1, 100, 200_000]))
            monkeypatch.setattr(optimizers, "_BLOCK_ROW_NODES", int(rng.choice([1, 64])))
            if d**K > 50_000:
                continue
            # Small blocks and pieces make many short passes: keep them to small trees.
            small = d**K <= 2_000
            monkeypatch.setattr(optimizers, "_BLOCK_LEAVES", block if small else 50_000)
            monkeypatch.setattr(optimizers, "_PIECE_ENTRIES", piece if small else 200_000)
            values, ivs, broken = _enum_fast(stats, base, K, alphas, target)
            assert not broken.any(), (d, K)
            for value, iv, alpha in zip(values, ivs, alphas):
                expected, iv_direct = _enum_direct(stats, LinearModel(base, names), K, alpha,
                                                   LinearModel(target, names))
                assert np.array_equal(iv, iv_direct), (d, K)
                assert value == pytest.approx(expected, rel=1e-12, abs=1e-12), (d, K)
                checked += 1
        assert checked > 100

    @pytest.mark.parametrize("tilt", [0.0, 1e-14], ids=["exact", "near"])
    @pytest.mark.parametrize("d,K,block,gram", [
        (3, 3, 1, "identity"), (3, 5, 1, "identity"), (4, 5, 1, "identity"),
        (3, 3, 50_000, "identity"), (3, 5, 50_000, "identity"), (4, 5, 50_000, "identity"),
        (3, 5, 2 * 3**3, "identity"), (4, 5, 2 * 4**3, "identity"),
        (3, 5, 2 * 3**3, "exchangeable"), (4, 5, 2 * 4**3, "exchangeable")], ids=[
        "3-3-1", "3-5-1", "4-5-1", "3-3-50000", "3-5-50000", "4-5-50000", "3-5-two-parents",
        "4-5-two-parents", "3-5-two-parents-exchangeable", "4-5-two-parents-exchangeable"])
    def test_pinned_ties_resolve_as_direct(self, monkeypatch, block, d, K, tilt, gram):
        # With the target at the cross moments, relabeling the coordinates
        # maps each pattern to one with the same objective (tied_moments), so
        # the pinned optimum ties with later patterns, within a piece of
        # leaves and across chunks and pieces (block 1 makes one parent per
        # chunk and one leaf per piece; 2 d^3 two parents per chunk, whose
        # level-2 subtrees are visited out of lexicographic order). Tilting
        # the cross moments (and the target) splits those ties by about
        # 1e-14, far less than _TIE_RTOL: a later pattern is lower but still
        # a tie, and the first one must win, as in _enum_direct.
        stats, perm = tied_moments(d, gram, tilt)
        base = LinearModel.zeros(stats.feature_names)
        target = LinearModel(stats.cross, stats.feature_names)
        alpha = as_weights(np.ones(K), K)
        monkeypatch.setattr(optimizers, "_BLOCK_LEAVES", block)
        monkeypatch.setattr(optimizers, "_PIECE_ENTRIES", block)
        _, (iv,), (broken,) = _enum_fast(stats, base.coefficients, K, alpha[None],
                                         target.coefficients)
        _, iv_direct = _enum_direct(stats, base, K, alpha, target)
        assert not broken
        assert np.array_equal(iv, iv_direct)
        relabeled = perm[iv]
        assert relabeled.tolist() > iv.tolist()
        assert solve_fixed_endpoint(stats, base, relabeled, alpha, target)[1] == pytest.approx(
            solve_fixed_endpoint(stats, base, iv, alpha, target)[1], rel=1e-12
        )

    def test_pinned_breakdown_falls_back_to_direct(self):
        # A 1e-12 weight at step K-2 makes the last pivot of every pattern
        # that repeats its last coordinate vanish, reaching ones included.
        stats = random_stats(7, d=3)
        base = LinearModel.zeros(stats.feature_names)
        target = ols(stats)
        schedule = WeightSchedule.explicit([1.0, 1.0, 1e-12, 1.0])
        alpha = as_weights(schedule, 4)
        assert _enum_fast(stats, base.coefficients, 4, alpha[None],
                          target.coefficients)[2].tolist() == [True]
        path = exact_path(stats, base, OptimizerConfig(K=4, schedule=schedule, endpoint=target))
        assert path.steps == enum_direct_path(stats, base, 4, alpha, target).steps

    @pytest.mark.parametrize("pinned", [False, True], ids=["free", "pinned"])
    def test_overflowing_weights_fall_back_to_direct(self, pinned):
        # Finite weights near 1e160 overflow the recursion's products to inf
        # and its pivots to NaN. The row must be marked broken, without a
        # warning, and exact_path must return _enum_direct's path.
        stats = random_stats(1, d=3)
        base = LinearModel.zeros(stats.feature_names)
        endpoint = LinearModel(np.array([0.3, -0.2, 0.0]), stats.feature_names) if pinned else None
        alpha = np.array([1.0, 2.0, 0.5]) * 1e160
        cfg = OptimizerConfig(K=3, schedule=WeightSchedule.explicit(alpha), endpoint=endpoint)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, _, broken = _enum_fast(stats, base.coefficients, 3, alpha[None],
                                      None if endpoint is None else endpoint.coefficients)
            path = exact_path(stats, base, cfg)
        assert broken.tolist() == [True]
        assert path.steps == enum_direct_path(stats, base, 3, alpha, endpoint).steps

    def test_zero_weight_schedule_uses_direct_engine(self, toy_stats, toy_zero):
        # alpha with zeros makes the system singular; exact_path must still work.
        cfg = OptimizerConfig(K=2, schedule=WeightSchedule.explicit([0.0, 1.0]))
        path = exact_path(toy_stats, toy_zero, cfg)
        assert cost(toy_stats, path.final) <= cost(toy_stats, ols(toy_stats)) + 1e-8

    @given(kind=st.sampled_from(["random", "tilted", "collinear"]), d=st.integers(1, 4),
           K=st.integers(1, 4), seed=st.integers(0, 999), pinned=st.booleans(),
           correlated=st.booleans(), tilt=st.sampled_from([1e-16, 1e-15, 1e-14, 1e-13]),
           noise=st.sampled_from([0.0, 1e-9, 1e-7]),
           weights=st.lists(st.floats(0.1, 2.0), min_size=4, max_size=4))
    def test_paths_do_not_depend_on_the_engine(self, kind, d, K, seed, pinned, correlated,
                                                tilt, noise, weights):
        # Whichever enumerator runs, exact_path must return _enum_direct's
        # path, on near-ties and on singular or near-singular grams too. The
        # tilted grams are I or I + 0.3 off the diagonal, with cross moments
        # 1 + k * tilt: relabeling coordinates maps each pattern to one within
        # about tilt (relative), far inside the tie tolerance.
        if kind == "random":
            stats = random_stats(seed, d=d)
        elif kind == "tilted":
            gram = np.eye(d) + 0.3 * correlated * (1 - np.eye(d))
            stats = stats_from_moments(gram, 1 + tilt * np.arange(d), 2.0 * d,
                                       tuple(f"x{i}" for i in range(d)))
        else:
            assume(d >= 2)
            stats = collinear_stats(seed, d=d, noise=noise)
        base = LinearModel.zeros(stats.feature_names)
        endpoint = ols(stats) if pinned else None
        assume(not pinned or model_complexity(base, endpoint) <= K)
        schedule = WeightSchedule.explicit(weights[:K])
        path = exact_path(stats, base, OptimizerConfig(K=K, schedule=schedule, endpoint=endpoint))
        assert path.steps == enum_direct_path(stats, base, K, schedule.weights(K), endpoint).steps

    def test_positive_weights_on_singular_gram_use_recursion(self, monkeypatch):
        # An exactly repeated feature makes the gram singular, but with
        # positive weights every pattern's inner matrix stays positive
        # definite, so the recursion must serve it, free and pinned, with
        # _enum_direct's path. A zero-variance coordinate (the recursion
        # marks the row broken) and a zero weight must still fall back.
        class DirectRan(Exception):
            pass

        def no_direct(*args, **kwargs):
            raise DirectRan

        stats = collinear_stats(5, d=3, noise=0.0)
        assert np.linalg.matrix_rank(stats.gram) == 2
        base = LinearModel.zeros(stats.feature_names)
        schedule = WeightSchedule.explicit([1.0, 0.5, 2.0, 1.0])
        alpha = schedule.weights(4)
        endpoints = (None, ols(stats))
        expected = [enum_direct_path(stats, base, 4, alpha, e) for e in endpoints]
        X, y = random_dataset(5, d=3)
        X[:, 1] = 0.0
        flat = compute_stats(Dataset(X, y, stats.feature_names))
        monkeypatch.setattr(optimizers, "_enum_direct", no_direct)
        for endpoint, want in zip(endpoints, expected):
            cfg = OptimizerConfig(K=4, schedule=schedule, endpoint=endpoint)
            assert exact_path(stats, base, cfg).steps == want.steps
        for case, sched in ((flat, schedule), (stats, WeightSchedule.explicit([1.0, 0.0, 1.0]))):
            with pytest.raises(DirectRan):
                exact_path(case, base, OptimizerConfig(K=3, schedule=sched))


@pytest.mark.parametrize("d,K,chunk", [
    (1, 1, 3), (1, 4, 2), (3, 1, 2), (3, 4, 7), (2, 3, 8),
    (6, 6, max(256, optimizers._CHUNK_ENTRIES // 36)),  # _enum_direct's chunk at K=6
    (4, 6, max(1, 200_000 // 3**6)),  # 4**6 in uneven chunks
    (4, 6, 5),  # 4**6 in many short chunks
])
def test_iv_chunks_match_itertools_product(d, K, chunk):
    # Positive weights keep every pattern.
    expected = np.asarray(list(itertools.product(range(d), repeat=K)), dtype=np.int64)
    assert_chunks(list(_kept_chunks(d, K, np.ones(K), chunk)), expected, chunk)


def test_kept_chunks_match_the_keep_rule():
    # The product of run segments lists exactly the patterns the keep rule
    # filters from itertools.product, each once, on schedules mixing
    # zero and positive weights (leading, interior and trailing zero runs,
    # runs longer than d).
    rng = np.random.default_rng(20)
    schedules = [(3, (0, 0, 0, 1)), (2, (1, 0, 0, 1, 0, 0)), (4, (0, 0, 0, 0)), (5, (0,) * 6)]
    for _ in range(40):
        d, K = int(rng.integers(1, 6)), int(rng.integers(1, 7))
        schedules.append((d, np.where(rng.random(K) < 0.6, 0.0, rng.uniform(0.1, 2.0, K))))
    for d, alpha in schedules:
        alpha = np.asarray(alpha, dtype=float)
        K = len(alpha)
        expected = kept_patterns(d, K, alpha)
        for chunk in (1, 7, 100):
            assert_chunks(list(_kept_chunks(d, K, alpha, chunk)), expected, chunk)


def assert_chunks(chunks, expected, chunk):
    """chunks are expected's rows, `chunk` at a time, as int64, in any order
    (expected is in lexicographic order)."""
    K = expected.shape[1]
    assert [c.shape for c in chunks] == [
        (min(chunk, len(expected) - s), K) for s in range(0, len(expected), chunk)
    ]
    assert all(c.dtype == np.int64 for c in chunks)
    ivs = np.concatenate(chunks)
    assert np.array_equal(ivs[np.lexsort(ivs.T[::-1])], expected)


def grown_levels(stats, base, alphas, levels, pinned):
    """The recursion's nodes, level by level, grown by _grow from the root
    over G (free) or [G | I] with M (pinned): a list of (nodes, the nodes'
    lexicographic indices, broken) for levels 1 to `levels`."""
    G, d, L = stats.gram, stats.d, alphas.shape[0]
    D = 2 * d if pinned else d
    Gx = np.hstack([G, np.eye(d)]) if pinned else G
    nodes = (np.zeros((L, d, D, 1)), np.zeros((L, D, 1)), np.zeros((L, 1)))
    nodes += (np.zeros((L, d, d, 1)),) if pinned else ()
    index, broken = np.zeros(1, dtype=np.int64), np.zeros(L, dtype=bool)
    w = tail_weights(alphas)[:, :, None, None]
    out = []
    with np.errstate(divide="ignore", invalid="ignore"):
        for m in range(levels):
            nodes = _grow(nodes, Gx, np.diag(G).copy(), stats.residual_cross(base), w[:, m],
                          broken, (None, None))
            index = (index * d + np.arange(d)[:, None]).ravel()
            out.append((nodes, index, broken.copy()))
    return out


class TestNodeLayout:
    """A pinned node is a free node over [G | I] plus M = E'E."""

    @pytest.mark.parametrize("d,levels", [(1, 3), (3, 4), (4, 3)])
    def test_free_search_is_the_pinned_one_without_e(self, d, levels):
        # The first d columns of [G | I] are G, so Q, u, ssq and the broken
        # mask must come out bitwise equal; the second weight row repeats
        # its first step's tail weight, so a repeated coordinate breaks it.
        stats = random_stats(31 + d, d=d)
        base = np.random.default_rng(d).standard_normal(d) * 0.5
        alphas = np.array([[1.0, 0.5, 2.0, 0.3], [0.0, 1.0, 1.5, 0.7]])[:, :levels]
        free = grown_levels(stats, base, alphas, levels, pinned=False)
        pinned = grown_levels(stats, base, alphas, levels, pinned=True)
        for (fn, fi, fb), (pn, pi, pb) in zip(free, pinned):
            assert len(fn) == 3 and len(pn) == 4
            assert fn[0].shape[2] == d and pn[0].shape[2] == 2 * d
            assert np.array_equal(fi, pi) and np.array_equal(fb, pb)
            assert fn[0].tobytes() == np.ascontiguousarray(pn[0][:, :, :d]).tobytes()
            assert fn[1].tobytes() == np.ascontiguousarray(pn[1][:, :d]).tobytes()
            assert fn[2].tobytes() == pn[2].tobytes()
        assert free[-1][2].tolist() == [False, True]

    @pytest.mark.parametrize("seed", range(4))
    def test_pinned_summaries_match_explicit_factor(self, seed):
        # Node (i_1..i_m) under the tail weights w_1..w_m of a row's K = 4
        # weights factors its inner matrix
        # H[j, l] = min(w_j, w_l) G[i_j, i_l] as L L'; with B = L^-1 G[iv, :],
        # E = L^-1 C' (C'[j, i_j] = 1) and y = L^-1 (w_j r[i_j])_j, its
        # QT is [B'B | B'E], uT [B'y; E'y] and MT E'E.
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 5))
        stats = random_stats(70 + seed, d=d)
        base = rng.standard_normal(d) * 0.5
        r = stats.residual_cross(base)
        alphas = rng.uniform(0.2, 2.0, size=(2, 4))
        for m, (nodes, index, broken) in enumerate(grown_levels(stats, base, alphas, 4, True), 1):
            assert not broken.any()
            QT, uT, ssq, MT = nodes
            for p in rng.choice(index.size, min(index.size, 12), replace=False):
                iv = optimizers._patterns(index[p], d, m)
                for row, alpha in enumerate(alphas):
                    w = tail_weights(alpha)[:m]
                    H = np.minimum.outer(w, w) * stats.gram[np.ix_(iv, iv)]
                    Lf = np.linalg.cholesky(H)
                    B = np.linalg.solve(Lf, stats.gram[iv])
                    E = np.linalg.solve(Lf, np.eye(d)[iv])
                    y = np.linalg.solve(Lf, w * r[iv])
                    for got, want in [(QT[row, :, :d, p], B.T @ B), (QT[row, :, d:, p], B.T @ E),
                                      (MT[row, :, :, p], E.T @ E), (uT[row, :d, p], B.T @ y),
                                      (uT[row, d:, p], E.T @ y), (ssq[row, p], y @ y)]:
                        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestZeroRuns:
    @pytest.mark.parametrize("d,alpha,kept", [
        (6, (0, 0, 0, 1), 401),  # 360 orderings of 4 distinct, and 41 smaller sets
        (6, (1, 0, 0, 0, 1), 2406),  # search's zero-weight slice: 6 first steps x 401
        (4, (1, 0, 0, 1), 136),  # search's ill-conditioned slice: 4 x (24 + 10)
        (8, (0, 0, 0, 0, 0, 1), 20378),
        (3, (0, 0, 1, 0, 0), 12 * 9),  # a run of 3 (6 + 3 + 3), then a trailing run of 2
        (6, (1, 1, 1, 1), 1296),  # positive weights keep every pattern
        (3, (0, 0, 0, 1), 81),  # a run longer than d keeps every pattern
        (2, (1, 0, 0, 1), 16),
    ])
    def test_kept_pattern_counts(self, d, alpha, kept):
        chunk = 100
        chunks = list(optimizers._kept_chunks(d, len(alpha), np.array(alpha, float), chunk))
        assert [len(c) for c in chunks] == [chunk] * (kept // chunk) + [kept % chunk] * (
            kept % chunk > 0)
        assert len(np.unique(np.concatenate(chunks), axis=0)) == kept  # each pattern once

    def test_kept_patterns_are_first_arrangements(self):
        ivs = np.concatenate(list(optimizers._kept_chunks(3, 3, np.array([0.0, 0.0, 1.0]), 7)))
        kept = {tuple(iv) for iv in ivs.tolist()}
        assert set(itertools.permutations(range(3))) <= kept  # every ordering of a full set
        assert {(0, 0, 1), (0, 0, 2), (1, 1, 2), (0, 0, 0), (2, 2, 2)} <= kept
        assert not {(0, 1, 0), (1, 0, 0), (0, 1, 1), (1, 1, 0), (2, 1, 1)} & kept
        assert len(kept) == 6 + 3 + 3

    @given(kind=st.sampled_from(["random", "tilted"]), d=st.integers(1, 4),
           K=st.integers(1, 6), seed=st.integers(0, 999), changed=st.integers(0, 4),
           correlated=st.booleans(), tilt=st.sampled_from([1e-16, 1e-15, 1e-14, 1e-13]),
           zeros=st.lists(st.booleans(), min_size=6, max_size=6),
           weights=st.lists(st.floats(0.1, 2.0), min_size=6, max_size=6))
    @example(kind="tilted", d=3, K=4, seed=0, changed=0, correlated=False, tilt=1e-16,
             zeros=[True, True, True, False, True, True], weights=[1.0] * 6)
    @example(kind="random", d=3, K=4, seed=1, changed=0, correlated=False, tilt=1e-16,
             zeros=[False, True, True, True, True, True], weights=[1.0] * 6)  # trailing zeros
    @example(kind="random", d=3, K=4, seed=1, changed=2, correlated=False, tilt=1e-16,
             zeros=[False, True, True, True, True, True], weights=[1.0] * 6)
    @example(kind="random", d=2, K=5, seed=2, changed=2, correlated=False, tilt=1e-16,
             zeros=[True, True, True, True, False, True], weights=[1.0] * 6)  # run > d
    @example(kind="tilted", d=4, K=6, seed=3, changed=4, correlated=True, tilt=1e-14,
             zeros=[False, True, True, False, True, True], weights=[0.5] * 6)
    def test_direct_matches_every_pattern(self, kind, d, K, seed, changed, correlated, tilt,
                                          zeros, weights):
        # Skipping equivalent orderings inside zero-weight runs must leave
        # the pattern of the search over all d^K patterns bit for bit, with
        # leading, interior and trailing zeros, runs longer than d, free and
        # pinned endpoints, and near-ties (the tilted grams relabel patterns
        # to within about tilt, see test_paths_do_not_depend_on_the_engine).
        # A pinned target changes the first `changed` coordinates, so the
        # best set of a run may be smaller than the run.
        if kind == "random":
            stats = random_stats(seed, d=d)
        else:
            gram = np.eye(d) + 0.3 * correlated * (1 - np.eye(d))
            stats = stats_from_moments(gram, 1 + tilt * np.arange(d), 2.0 * d,
                                       tuple(f"x{i}" for i in range(d)))
        alpha = np.where(zeros[:K], 0.0, weights[:K])
        assume(alpha.any())
        base = LinearModel.zeros(stats.feature_names)
        target = None
        if changed:
            target = np.where(np.arange(d) < min(changed, d, K), ols(stats).coefficients, 0.0)
        endpoint = None if target is None else LinearModel(target, stats.feature_names)
        value, iv = _enum_direct(stats, base, K, alpha, endpoint)
        expected = every_pattern_direct(stats, base.coefficients, K, alpha, target)
        assert np.array_equal(iv, expected[1])
        assert value == expected[0]

    @pytest.mark.parametrize("pinned", [False, True], ids=["free", "pinned"])
    @pytest.mark.parametrize("correlated", [False, True], ids=["identity", "correlated"])
    @pytest.mark.parametrize("d,alpha", [(3, (0, 0, 1, 0, 0)), (4, (1, 0, 0, 1)),
                                         (4, (0, 0, 0, 0, 1, 1)), (3, (1, 0, 0, 0, 0, 1))],
                             ids=["3-interior", "4-ill-conditioned", "4-leading", "3-run>d"])
    def test_direct_ignores_visiting_order(self, monkeypatch, d, alpha, correlated, pinned):
        # _enum_direct must return the same objective and pattern when
        # _kept_chunks lists its patterns reversed and in uneven chunks
        # (1, 2, 3, ... rows), on the tilted near-tie grams of
        # test_direct_matches_every_pattern: relabeled patterns tie there,
        # so a rule that kept the first tie visited would pick another.
        gram = np.eye(d) + 0.3 * correlated * (1 - np.eye(d))
        stats = stats_from_moments(gram, 1 + 1e-14 * np.arange(d), 2.0 * d,
                                   tuple(f"x{i}" for i in range(d)))
        base = LinearModel.zeros(stats.feature_names)
        endpoint = ols(stats) if pinned else None
        alpha = np.array(alpha, dtype=float)
        K = len(alpha)
        expected = _enum_direct(stats, base, K, alpha, endpoint)
        kept = optimizers._kept_chunks

        def reversed_uneven(d, K, alpha, chunk):
            ivs = np.concatenate(list(kept(d, K, alpha, chunk)))[::-1]
            cuts = np.arange(1, ivs.shape[0]).cumsum()
            yield from np.split(ivs, cuts[cuts < ivs.shape[0]])

        monkeypatch.setattr(optimizers, "_kept_chunks", reversed_uneven)
        value, iv = _enum_direct(stats, base, K, alpha, endpoint)
        assert np.array_equal(iv, expected[1])
        assert value == expected[0]

    def test_zero_weight_search_solves_kept_patterns_only(self, monkeypatch):
        # search's zero-weight shape, d = 6, K = 5, weights (1, 0, 0, 0, 1):
        # 2,406 of the 7,776 patterns, then the winner once more.
        stats = random_stats(5, n=100, d=6)
        base = LinearModel.zeros(stats.feature_names)
        items = []

        def spy(stats, base, ivs, *args):
            items.append(ivs.shape[0])
            return solve_patterns(stats, base, ivs, *args)

        monkeypatch.setattr(optimizers, "solve_patterns", spy)
        cfg = OptimizerConfig(K=5, schedule=WeightSchedule.explicit([1.0, 0.0, 0.0, 0.0, 1.0]))
        path = exact_path(stats, base, cfg)
        assert items == [2406, 1]
        steps = [i for i, _ in path.steps]
        assert steps[1:] == sorted(set(steps[1:]))  # the run's set, ascending


class TestLocalImprovement:
    def test_k0_returns_the_base(self, toy_stats, toy_zero):
        path = local_improvement(toy_stats, toy_zero, OptimizerConfig(K=0, schedule=GAMMA1))
        assert path.steps == ()
        assert np.array_equal(path.base.coefficients, toy_zero.coefficients)

    def test_iv0_of_wrong_length_rejected(self, toy_stats, toy_zero):
        cfg = OptimizerConfig(K=3, schedule=GAMMA1)
        with pytest.raises(InputError, match="iv0 has length 2, expected K=3"):
            local_improvement(toy_stats, toy_zero, cfg, iv0=[0, 1])

    def test_t0_equals_inner_solved_start(self, toy_stats, toy_zero):
        cfg = OptimizerConfig(K=3, schedule=GAMMA1, T=0, q=1)
        iv0 = [0, 1, 0]
        path = local_improvement(toy_stats, toy_zero, cfg, iv0=iv0)
        _, obj = solve_free(toy_stats, toy_zero, iv0, GAMMA1)
        assert weighted_loss(toy_stats, path, GAMMA1) == pytest.approx(obj, abs=1e-9)

    def test_monotone_in_iterations(self):
        stats = random_stats(21, d=5)
        base = LinearModel.zeros(stats.feature_names)
        objs = []
        for T in (0, 2, 5, 10, 25):
            cfg = OptimizerConfig(K=6, schedule=GAMMA1, T=T, q=2, seed=3)
            path = local_improvement(stats, base, cfg)
            objs.append(weighted_loss(stats, path, GAMMA1))
        assert all(a >= b - 1e-12 for a, b in zip(objs, objs[1:]))

    def test_deterministic_for_fixed_seed(self):
        stats = random_stats(22, d=5)
        base = LinearModel.zeros(stats.feature_names)
        cfg = OptimizerConfig(K=6, schedule=GAMMA1, T=30, q=2, seed=7)
        p1 = local_improvement(stats, base, cfg)
        p2 = local_improvement(stats, base, cfg)
        assert p1.steps == p2.steps

    def test_exact_never_worse(self):
        for seed in range(4):
            stats = random_stats(seed + 30, d=4)
            base = LinearModel.zeros(stats.feature_names)
            exact = exact_path(stats, base, OptimizerConfig(K=4, schedule=GAMMA1))
            exact_obj = weighted_loss(stats, exact, GAMMA1)
            for s in range(3):
                cfg = OptimizerConfig(K=4, schedule=GAMMA1, T=40, q=2, seed=s)
                local = local_improvement(stats, base, cfg)
                assert exact_obj <= weighted_loss(stats, local, GAMMA1) + 1e-9

    def test_small_instance_reaches_optimum(self):
        stats = random_stats(33, d=3)
        base = LinearModel.zeros(stats.feature_names)
        exact = exact_path(stats, base, OptimizerConfig(K=5, schedule=GAMMA1))
        cfg = OptimizerConfig(K=5, schedule=GAMMA1, T=150, q=2, seed=0)
        local = local_improvement(stats, base, cfg)
        assert weighted_loss(stats, local, GAMMA1) == pytest.approx(
            weighted_loss(stats, exact, GAMMA1), rel=1e-6
        )

    def test_fixed_endpoint(self, toy_stats, toy_zero):
        target = LinearModel(TOY_OLS, toy_stats.feature_names)
        cfg = OptimizerConfig(K=3, schedule=GAMMA1, endpoint=target, T=60, q=1, seed=1)
        path = local_improvement(toy_stats, toy_zero, cfg)
        assert np.allclose(path.final.coefficients, TOY_OLS, atol=1e-8)
        exact = exact_path(toy_stats, toy_zero, OptimizerConfig(K=3, schedule=GAMMA1, endpoint=target))
        assert weighted_loss(toy_stats, path, GAMMA1) >= weighted_loss(
            toy_stats, exact, GAMMA1
        ) - 1e-9

    def test_unit_mode_rejected_before_endpoint_check(self, toy_stats, toy_zero):
        # An unreachable endpoint must not mask the unsupported step mode.
        target = LinearModel(TOY_OLS, toy_stats.feature_names)
        cfg = OptimizerConfig(K=1, schedule=GAMMA1, endpoint=target, step_mode="unit")
        with pytest.raises(InputError, match="continuous steps only"):
            local_improvement(toy_stats, toy_zero, cfg)

    def test_q_larger_than_k_rejected(self):
        with pytest.raises(InputError, match="q="):
            OptimizerConfig(K=2, schedule=GAMMA1, q=3)

    @pytest.mark.parametrize("patience", [0, -1])
    def test_patience_below_one_rejected(self, patience):
        with pytest.raises(InputError, match="patience must be >= 1"):
            OptimizerConfig(K=2, schedule=GAMMA1, patience=patience)

    @pytest.mark.parametrize("seed", [-1, -3])
    def test_negative_seed_rejected(self, seed):
        with pytest.raises(InputError, match="seed must be >= 0"):
            OptimizerConfig(K=2, schedule=GAMMA1, seed=seed)


def path_bits(path):
    """A path's base and steps with every float as its exact bit pattern."""
    return ([float.hex(float(c)) for c in path.base.coefficients],
            [(i, float.hex(v)) for i, v in path.steps])


# (d, K, q, T, patience, pinned, weights, iv0, moments); pinned endpoints
# are the least-squares fit, weights None means unit weights. moments are
# random_stats; "collinear", collinear_stats with the last feature the first
# up to 1e-7 noise; "near_tie", near_tie_stats with gram I and then
# I + 0.3 (1 - I), so that many candidates tie or nearly tie and the
# confirmation band decides; or "zero_variance", a coordinate with gram
# diagonal 0. A poor start improves often, so some windows of several
# iterations hold more than one improving iteration. A weight of 1e-13
# makes two tail weights nearly equal, so pivots break and the screened
# search falls back to scoring every candidate.
WINDOW_CASES = {
    "free_q1": (4, 5, 1, 60, None, False, None, None, "random"),
    "free_q2": (5, 6, 2, 100, None, False, None, None, "random"),
    "free_q3": (4, 5, 3, 40, None, False, None, None, "random"),
    "free_q3_d5": (5, 7, 3, 60, None, False, None, None, "random"),
    "pinned_q1": (4, 5, 1, 60, None, True, None, None, "random"),
    "pinned_q2": (5, 6, 2, 100, None, True, None, None, "random"),
    "pinned_q3": (3, 5, 3, 40, None, True, None, None, "random"),
    "T0": (4, 4, 2, 0, None, False, None, None, "random"),
    "T1": (4, 4, 2, 1, None, False, None, None, "random"),
    "T1_pinned": (4, 4, 2, 1, None, True, None, None, "random"),
    "T600": (4, 6, 2, 600, None, False, None, None, "random"),
    "T600_patience": (6, 8, 2, 600, 40, False, None, None, "random"),
    "patience1": (5, 6, 2, 100, 1, False, None, None, "random"),
    "patience1_pinned": (5, 6, 2, 100, 1, True, None, None, "random"),
    "patience5_q1": (5, 7, 1, 200, 5, False, None, None, "random"),
    "patience12_q3": (4, 7, 3, 200, 12, False, None, [0] * 7, "random"),
    "iv0": (4, 5, 2, 60, None, False, None, [3, 3, 2, 1, 0], "random"),
    "iv0_pinned": (4, 6, 2, 60, 10, True, None, [3, 0, 2, 1, 0, 1], "random"),
    "poor_start_q1": (6, 9, 1, 100, None, False, None, [0] * 9, "random"),
    "poor_start_q1_pinned": (5, 7, 1, 100, None, True, None, [0, 1, 2, 3, 4, 0, 1], "random"),
    "poor_start_q2_pinned": (6, 9, 2, 100, None, True, None, [0, 1, 2, 3, 4, 5, 0, 1, 2],
                             "random"),
    "zero_weight": (5, 5, 2, 100, None, False, [1.0, 0.0, 0.0, 0.0, 1.0], None, "random"),
    "zero_weight_pinned": (4, 6, 2, 100, None, True, [0.0, 1.0, 0.0, 2.0, 0.0, 1.0], None,
                           "random"),
    "collinear": (4, 6, 2, 100, None, False, None, None, "collinear"),
    "collinear_zero_weight": (4, 4, 2, 100, None, False, [1.0, 0.0, 0.0, 1.0], None,
                              "collinear"),
    "collinear_pinned": (4, 5, 2, 100, None, True, None, None, "collinear"),
    "collinear_broken_pivots": (4, 6, 2, 100, None, False, [1.0, 1e-13, 1.0, 1.0, 1.0, 1.0],
                                None, "collinear"),
    "near_tie": (5, 7, 2, 100, None, False, None, None, "near_tie"),
    "near_tie_q1": (6, 8, 1, 100, None, False, None, [0] * 8, "near_tie"),
    "near_tie_q3": (4, 6, 3, 60, None, False, None, None, "near_tie"),
    "zero_variance": (4, 5, 2, 60, None, False, None, None, "zero_variance"),
    # Every window keeps a position on the zero-variance coordinate, whose
    # zero pivot makes the Cholesky factorization of H_AA raise.
    "zero_variance_iv0": (4, 5, 2, 60, None, False, None, [2, 2, 0, 1, 2], "zero_variance"),
    # 66 position sets: the draws cross a block boundary before all are scored.
    "converged_after_blocks": (4, 12, 2, 600, None, False, None, None, "random"),
}


def window_stats(moments, seed, d):
    if moments == "collinear":
        return collinear_stats(70 + seed, d, noise=1e-7)
    if moments == "near_tie":
        return near_tie_stats(np.random.default_rng(70 + seed), d, 0.3 * seed)
    if moments == "zero_variance":  # coordinate 2 has gram diagonal 0: its pivots are 0
        gram = np.eye(d) + 0.3 * seed * (1 - np.eye(d))
        gram[2] = gram[:, 2] = 0.0
        return stats_from_moments(gram, np.r_[0.5, 0.2, 0.0, 0.1 * np.ones(d - 3)], 2.0)
    return random_stats(70 + seed, d=d)


@pytest.mark.parametrize("cap", [None, 1, 60], ids=["cap_default", "cap1", "cap60"])
@pytest.mark.parametrize("case", list(WINDOW_CASES))
def test_windows_match_iterwise_oracle(case, cap, monkeypatch):
    """Windowed local search returns bitwise the path of the search that
    solves one iteration per call, whatever the window cap."""
    if cap is not None:
        monkeypatch.setattr(optimizers, "_WINDOW_CANDIDATES", cap)
    d, K, q, T, patience, pinned, weights, iv0, moments = WINDOW_CASES[case]
    for seed in range(2):
        stats = window_stats(moments, seed, d)
        base = LinearModel.zeros(stats.feature_names)
        schedule = GAMMA1 if weights is None else WeightSchedule.explicit(weights)
        cfg = OptimizerConfig(K=K, schedule=schedule, q=q, T=T, seed=seed, patience=patience,
                              endpoint=ols(stats) if pinned else None)
        path = local_improvement(stats, base, cfg, iv0=iv0)
        assert path_bits(path) == path_bits(iterwise_local_improvement(stats, base, cfg, iv0))


@given(seed=st.integers(0, 10**6), d=st.integers(1, 6), K=st.integers(1, 8),
       q=st.sampled_from([1, 2, 3]), moments=st.sampled_from(["random", "collinear", "near_tie"]),
       noise=st.sampled_from([1e-3, 1e-5, 1e-7]),
       weights=st.sampled_from(["ones", "geometric", "zero", "tiny"]), pinned=st.booleans(),
       patience=st.sampled_from([None, 1, 4]), T=st.integers(0, 200))
def test_local_search_matches_iterwise_oracle_property(seed, d, K, q, moments, noise, weights,
                                                       pinned, patience, T):
    # The screen, its confirmation band and every fallback (zero weights,
    # pinned endpoints, broken pivots) against the search that scores each
    # iteration's d^q candidates in one solve_patterns call. Collinear grams
    # reach condition numbers of about 1e15 at noise 1e-7.
    assume(q <= K and d**q <= 216)
    rng = np.random.default_rng(seed)
    if moments == "collinear":
        assume(d >= 2)
        stats = collinear_stats(seed % 1000, d, noise=noise)
    elif moments == "near_tie":
        stats = near_tie_stats(rng, d, rng.choice([0.0, 0.3]))
    else:
        stats = random_stats(seed % 1000, d=d)
    alpha = {"ones": np.ones(K), "geometric": 0.7 ** np.arange(1, K + 1),
             "zero": np.where(np.arange(K) == rng.integers(K), 0.0, 1.0),
             "tiny": np.where(np.arange(K) == rng.integers(K), 1e-13, 1.0)}[weights]
    assume(alpha.any())
    endpoint = None
    if pinned:
        moved = rng.choice(d, size=rng.integers(min(K, d) + 1), replace=False)
        target = np.zeros(d)
        target[moved] = ols(stats).coefficients[moved]
        endpoint = LinearModel(target, stats.feature_names)
    base = LinearModel.zeros(stats.feature_names)
    cfg = OptimizerConfig(K=K, schedule=WeightSchedule.explicit(alpha), q=q, T=T,
                          seed=seed % 7, patience=patience, endpoint=endpoint)
    path = local_improvement(stats, base, cfg)
    assert path_bits(path) == path_bits(iterwise_local_improvement(stats, base, cfg))


@pytest.mark.parametrize("K", list(range(1, 13)) + [100, 10_000])
def test_draw_positions_replays_choice(K):
    # Draw for draw the stream of sorted Generator.choice, across blocks of
    # uneven sizes.
    for q in range(1, (K if K <= 12 else 3) + 1):
        for seed in range(20):
            ref, rng = np.random.default_rng(seed), np.random.default_rng(seed)
            want = [tuple(np.sort(ref.choice(K, size=q, replace=False)).tolist())
                    for _ in range(300)]
            got = [p for n in (1, 100, 199) for p in optimizers._draw_positions(rng, K, q, n)]
            assert got == want, (K, q, seed)


def test_window_case_converges_after_a_block(monkeypatch):
    # converged_after_blocks draws more than one block, and scores every
    # position set against its final incumbent before T runs out.
    blocks = []
    draw = optimizers._draw_positions

    def counting(rng, K, q, n):
        blocks.append(n)
        return draw(rng, K, q, n)

    monkeypatch.setattr(optimizers, "_draw_positions", counting)
    d, K, q, T, *_ = WINDOW_CASES["converged_after_blocks"]
    for seed in range(2):
        blocks.clear()
        stats = window_stats("random", seed, d)
        cfg = OptimizerConfig(K=K, schedule=GAMMA1, q=q, T=T, seed=seed)
        local_improvement(stats, LinearModel.zeros(stats.feature_names), cfg)
        assert len(blocks) > 1 and sum(blocks) < T


def test_converged_search_stops_before_T():
    # d=3, K=3, q=2 has 3 position sets: once each is scored against the
    # incumbent the search returns, whatever T.
    stats = random_stats(5, d=3)
    base = LinearModel.zeros(stats.feature_names)
    cfg = OptimizerConfig(K=3, schedule=GAMMA1, q=2, T=200)
    t0 = time.perf_counter()
    path = local_improvement(stats, base, replace(cfg, T=10**7))
    assert time.perf_counter() - t0 < 1.0
    assert path_bits(path) == path_bits(local_improvement(stats, base, cfg))
    assert path_bits(path) == path_bits(iterwise_local_improvement(stats, base, cfg))


def count_solve_patterns(monkeypatch) -> list:
    """The item counts of each optimizers.solve_patterns call from now on."""
    items = []
    solve = optimizers.solve_patterns

    def counting(stats, base, ivs, *args):
        items.append(ivs.shape[0])
        return solve(stats, base, ivs, *args)

    monkeypatch.setattr(optimizers, "solve_patterns", counting)
    return items


@pytest.mark.parametrize("seed", range(4))
def test_screen_confirms_one_candidate_per_improvement(seed, monkeypatch):
    # A well-conditioned free q=2 search sends solve_patterns only the
    # near-winners: on random moments no two candidates tie, so each
    # improvement takes one candidate, and an iteration that cannot improve
    # takes none. A silent fall back to full scoring would send 36 per
    # iteration.
    incumbents = set()
    screen = optimizers._Screen.__call__

    def watching(self, iv, positions, margin):
        incumbents.add(iv.tobytes())
        return screen(self, iv, positions, margin)

    monkeypatch.setattr(optimizers._Screen, "__call__", watching)
    items = count_solve_patterns(monkeypatch)
    stats = random_stats(80 + seed, d=6)
    cfg = OptimizerConfig(K=9, schedule=GAMMA1, q=2, T=100, seed=seed)
    local_improvement(stats, LinearModel.zeros(stats.feature_names), cfg)
    assert items[0] == 1  # the start
    assert len(incumbents) >= 3
    assert sum(items[1:]) <= len(incumbents)


@pytest.mark.parametrize("case", ["zero_weight", "zero_weight_pinned", "pinned_q2",
                                  "collinear_broken_pivots"])
def test_fallback_scores_every_candidate(case, monkeypatch):
    # Zero weights, pinned endpoints and windows whose pivots break send
    # every candidate of each iteration they score to solve_patterns.
    items = count_solve_patterns(monkeypatch)
    d, K, q, T, patience, pinned, weights, iv0, moments = WINDOW_CASES[case]
    stats = window_stats(moments, 0, d)
    schedule = GAMMA1 if weights is None else WeightSchedule.explicit(weights)
    cfg = OptimizerConfig(K=K, schedule=schedule, q=q, T=T, seed=0, patience=patience,
                          endpoint=ols(stats) if pinned else None)
    local_improvement(stats, LinearModel.zeros(stats.feature_names), cfg, iv0=iv0)
    assert len(items) > 1
    assert all(n % d**q == 0 for n in items[1:])


@pytest.mark.parametrize("seed", range(3))
def test_pinned_search_scores_its_neighbourhood_in_one_window(seed, monkeypatch):
    # Pinned windows start full: at d=5, K=5, q=2 all C(5, 2) = 10 position
    # sets x 25 reassignments fit in one window, and none improves on the
    # start, so the search ends after it.
    items = count_solve_patterns(monkeypatch)
    stats = random_stats(70 + seed, d=5)
    cfg = OptimizerConfig(K=5, schedule=GAMMA1, q=2, T=100, seed=seed, endpoint=ols(stats))
    local_improvement(stats, LinearModel.zeros(stats.feature_names), cfg)
    assert items == [1, 250]


def test_free_zero_weight_windows_start_one_iteration_wide(monkeypatch):
    # Free searches with a zero weight keep start-at-1-and-double: the first
    # window scores one iteration's 25 candidates.
    items = count_solve_patterns(monkeypatch)
    d, K, q, T, patience, pinned, weights, iv0, moments = WINDOW_CASES["zero_weight"]
    assert not pinned
    stats = window_stats(moments, 0, d)
    cfg = OptimizerConfig(K=K, schedule=WeightSchedule.explicit(weights), q=q, T=T, seed=0,
                          patience=patience)
    local_improvement(stats, LinearModel.zeros(stats.feature_names), cfg, iv0=iv0)
    assert items[:2] == [1, d**q]


@pytest.mark.parametrize("through", ["local_improvement", "solve_fixed_endpoint"])
def test_unreachable_endpoint_names_missing_coordinates(through):
    # The fit changes every coordinate; this index vector never touches 1 or 3.
    stats = random_stats(70, d=5)
    base = LinearModel.zeros(stats.feature_names)
    iv0 = [0, 2, 4, 0, 2]
    message = re.escape("target changes coordinates [1, 3] that the index vector never touches")
    with pytest.raises(InfeasibleError, match=message):
        if through == "local_improvement":
            cfg = OptimizerConfig(K=5, schedule=GAMMA1, q=2, T=10, endpoint=ols(stats))
            local_improvement(stats, base, cfg, iv0=iv0)
        else:
            solve_fixed_endpoint(stats, base, iv0, GAMMA1, ols(stats))


def test_screen_is_sure_only_within_the_margin():
    # A weight of 1e-9 makes two tail weights nearly equal. On collinear
    # moments (gram condition number 7e10) that keeps every pivot above
    # _PIVOT_RTOL but puts some candidates' steps far along a near-null
    # direction, where the screen and solve_patterns differ by up to 50
    # margins. The screen must call those values unsure, and every value it
    # calls sure must be within half a margin of solve_patterns'.
    stats = collinear_stats(55, 5, noise=1e-5)
    alpha = np.r_[1.0, 1e-9, np.ones(5)]
    assignments = np.array(list(itertools.product(range(5), repeat=2)))
    iv = np.array([3, 4, 0, 1, 2, 4, 1])
    base = np.zeros(5)
    margin = 1e-9 * max(1.0, float(solve_patterns(stats, base, iv[None], alpha)[1][0]))
    positions = np.array(list(itertools.combinations(range(7), 2)))
    vals, sure = optimizers._Screen(stats, base, alpha, assignments)(iv, positions, margin)
    ivs = np.repeat(iv[None], vals.size, axis=0)
    ivs[np.arange(vals.size)[:, None], np.repeat(positions, 25, axis=0)] = np.tile(
        assignments, (len(positions), 1))
    err = np.abs(vals.ravel() - solve_patterns(stats, base, ivs, alpha)[1])
    sure = sure.ravel()[np.isfinite(err)]  # the incumbent's own candidates are +inf
    err = err[np.isfinite(err)]
    assert np.all(err[sure] <= margin / 2)
    assert np.any(err[~sure] > margin)


@pytest.mark.parametrize("seed,d,K,q", [(14, 6, 4, 1), (44, 5, 4, 1), (155, 6, 6, 2),
                                        (173, 5, 4, 1)])
def test_confirmation_band_decides_near_ties(seed, d, K, q):
    # Under near_tie_stats with 0.3 off the diagonal, improving candidates
    # tie to within rounding, and the screen rounds them otherwise than
    # solve_patterns: confirming only the screen's own minimum, without the
    # band around it, returns another path on each of these instances.
    stats = near_tie_stats(np.random.default_rng(seed), d, 0.3)
    base = LinearModel.zeros(stats.feature_names)
    cfg = OptimizerConfig(K=K, schedule=GAMMA1, q=q, T=40, seed=seed % 5)
    path = local_improvement(stats, base, cfg)
    assert path_bits(path) == path_bits(iterwise_local_improvement(stats, base, cfg))


def near_tie_stats(rng, d, off):
    """Moments with gram I + off (1 - I) and cross moments 0.5 (1 + k eps),
    eps from 1e-16 to 1e-13, so that many unit-step paths nearly tie."""
    gram = np.eye(d) + off * (1 - np.eye(d))
    cross = 0.5 * (1 + rng.integers(0, 4, size=d) * 10.0 ** -rng.integers(13, 17))
    return stats_from_moments(gram, cross, 5.0)


def unit_cfg(stats, K, alpha, target):
    """A unit-step OptimizerConfig under weights alpha, free if target is None."""
    endpoint = None if target is None else LinearModel(target, stats.feature_names)
    return OptimizerConfig(K=K, schedule=WeightSchedule.explicit(alpha), step_mode="unit",
                           endpoint=endpoint)


class TestUnitMode:
    def test_steps_change_by_one_point(self):
        stats = random_stats(41, d=3)
        base = LinearModel.zeros(stats.feature_names)
        cfg = OptimizerConfig(K=4, schedule=GAMMA1, step_mode="unit")
        path = exact_path(stats, base, cfg)
        prev = base.coefficients
        for model in materialize(path):
            assert np.sum(np.abs(model.coefficients - prev)) in (0.0, 1.0)
            prev = model.coefficients

    @pytest.mark.parametrize("seed,d,K,weights,target", [
        (42, 2, 3, None, None),
        (44, 3, 3, None, None),
        (45, 2, 4, None, None),
        (46, 3, 3, None, [1.0, -1.0, 0.0]),
        (47, 2, 4, None, [2.0, -1.0]),
        (48, 3, 4, [0.5, 1.0, 2.0, 1.0], [0.0, 1.0, 1.0]),
        (49, 3, 3, [1.0, 0.0, 1.0], None),
    ], ids=["seed42", "seed44", "seed45", "pinned46", "pinned47", "pinned48", "zero_weight49"])
    def test_matches_brute_force(self, seed, d, K, weights, target):
        stats = random_stats(seed, d=d)
        base = LinearModel.zeros(stats.feature_names)
        schedule = GAMMA1 if weights is None else WeightSchedule.explicit(weights)
        endpoint = None if target is None else LinearModel(np.array(target), stats.feature_names)
        cfg = OptimizerConfig(K=K, schedule=schedule, step_mode="unit", endpoint=endpoint)
        path = exact_path(stats, base, cfg)
        obj = weighted_loss(stats, path, schedule)
        alpha = schedule.weights(K)
        best = np.inf
        for iv in itertools.product(range(d), repeat=K):
            for signs in itertools.product((-1.0, 0.0, 1.0), repeat=K):
                beta = base.coefficients.copy()
                total = 0.0
                for k in range(K):
                    beta[iv[k]] += signs[k]
                    total += alpha[k] * cost(stats, LinearModel(beta.copy(), stats.feature_names))
                if endpoint is None or np.array_equal(beta, endpoint.coefficients):
                    best = min(best, total)
        assert obj == pytest.approx(best, abs=1e-9)
        if endpoint is not None:
            assert np.array_equal(path.final.coefficients, endpoint.coefficients)

    def test_chunks_bound_memory(self):
        # The dynamic program holds the L1 ball's 681 states at d=4, K=5
        # with their successors and costs-to-go, far below the bound.
        stats = random_stats(1, d=4)
        base = LinearModel.zeros(stats.feature_names)
        cfg = OptimizerConfig(K=5, schedule=GAMMA1, step_mode="unit")
        tracemalloc.start()
        try:
            exact_path(stats, base, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    def test_unit_endpoint(self):
        stats = random_stats(43, d=2)
        base = LinearModel.zeros(stats.feature_names)
        target = LinearModel(np.array([2.0, -1.0]), stats.feature_names)
        cfg = OptimizerConfig(K=3, schedule=GAMMA1, step_mode="unit", endpoint=target)
        path = exact_path(stats, base, cfg)
        assert np.allclose(path.final.coefficients, target.coefficients, atol=1e-9)

    @example(seed=3, d=4, K=5, weights="zero_last", pinned=True, tie=None)
    @example(seed=4, d=4, K=5, weights="zero", pinned=False, tie=0.3)
    @given(seed=st.integers(1, 10**6), d=st.integers(1, 4), K=st.integers(1, 5),
           weights=st.sampled_from(["ones", "geometric", "zero", "zero_last"]),
           pinned=st.booleans(), tie=st.sampled_from([None, 0.0, 0.3]))
    def test_matches_sign_enumeration_property(self, seed, d, K, weights, pinned, tie):
        # The dynamic program against the enumeration of all (3d)^K
        # candidates: the same optimum always, and the same steps wherever
        # the optimal state sequence is unique. tie: None for random
        # moments, else a gram I (+ tie off the diagonal) with near-equal
        # cross moments, so that many state sequences nearly tie.
        assume(d**K * 3**K <= 250_000)
        rng = np.random.default_rng(seed)
        stats = random_stats(seed, d=d) if tie is None else near_tie_stats(rng, d, tie)
        alpha = {"ones": np.ones(K), "geometric": 0.7 ** np.arange(1, K + 1),
                 "zero": np.where(np.arange(K) == rng.integers(K), 0.0, 1.0),
                 "zero_last": np.r_[np.ones(K - 1), 0.0]}[weights]
        assume(alpha.any())
        target = None
        if pinned:
            target = np.zeros(d)
            np.add.at(target, rng.integers(d, size=K), rng.choice([-1.0, 0.0, 1.0], size=K))
        low, iv, signs, unique = brute_force_unit(stats, np.zeros(d), K, alpha, target)
        base = LinearModel.zeros(stats.feature_names)
        cfg = unit_cfg(stats, K, alpha, target)
        if low == np.inf:
            with pytest.raises(InfeasibleError):
                exact_path(stats, base, cfg)
            return
        path = exact_path(stats, base, cfg)
        assert weighted_loss(stats, path, cfg.schedule) == pytest.approx(low, rel=1e-12, abs=0)
        if unique:
            assert path.steps == path_from_deltas(path.base, iv, signs).steps

    @pytest.mark.parametrize("case", range(24))
    def test_near_ties_match_sign_enumeration(self, case):
        # Tilted near-ties (near_tie_stats), zero weights, pinned targets. The dynamic program's move-by-move tie
        # rule must pick the enumeration's first tied (iv, signs).
        d, K = 2 + case % 3, 3 + case % 2
        rng = np.random.default_rng(case)
        stats = near_tie_stats(rng, d, 0.3 * (case % 2))
        alpha = np.ones(K)
        if case % 4 == 3:
            alpha[1] = 0.0
        target = None
        if case % 3 == 0:
            target = np.zeros(d)
            target[[0, -1]] += 1.0
        _, iv, signs, _ = brute_force_unit(stats, np.zeros(d), K, alpha, target)
        path = exact_path(stats, LinearModel.zeros(stats.feature_names),
                          unit_cfg(stats, K, alpha, target))
        assert path.steps == path_from_deltas(path.base, iv, signs).steps

    def test_d6_k10_within_default_budget(self):
        # 1.9M state moves; enumeration would need 18^10 = 3.6e12 candidates.
        # Padding the K=5 optimum with stays gives a K=10 path, which the
        # optimum cannot be worse than.
        stats = random_stats(61, d=6)
        base = LinearModel.zeros(stats.feature_names)
        path = exact_path(stats, base, OptimizerConfig(K=10, schedule=GAMMA1, step_mode="unit"))
        prev = base.coefficients
        for model in materialize(path):
            assert np.sum(np.abs(model.coefficients - prev)) in (0.0, 1.0)
            prev = model.coefficients
        short = exact_path(stats, base, OptimizerConfig(K=5, schedule=GAMMA1, step_mode="unit"))
        padded = CoordinatePath(base, short.steps + ((0, short.final.coefficients[0]),) * 5)
        assert weighted_loss(stats, path, GAMMA1) <= weighted_loss(stats, padded, GAMMA1)

    def test_budget_counts_states_times_moves(self):
        # d=6, K=10: the layers k < 10 hold 149,830 states in all, each with
        # 13 moves, 1,947,790 (the L1 ball of radius k holds
        # sum_i 2^i C(6, i) C(k, i) states).
        stats = random_stats(62, d=6)
        base = LinearModel.zeros(stats.feature_names)
        cfg = OptimizerConfig(K=10, schedule=GAMMA1, step_mode="unit", budget=1_947_790)
        exact_path(stats, base, cfg)
        with pytest.raises(BudgetError, match="1,947,790 state moves") as err:
            exact_path(stats, base, replace(cfg, budget=1_947_789))
        assert "local_improvement" not in str(err.value)  # it rejects unit steps

    @pytest.mark.parametrize("d,K", [(1, 4), (2, 3), (3, 2), (3, 5), (4, 4), (5, 1)])
    def test_l1_ball_lists_each_vector_once(self, d, K):
        atoms, bits, layer, find = _l1_ball(d, K)
        dense = np.zeros((len(atoms), d + 1), dtype=int)  # column d takes the padding
        np.put_along_axis(dense, atoms >> bits, (atoms & (1 << bits) - 1) - K, axis=1)
        z = dense[:, :d]
        norm = np.abs(z).sum(axis=1)
        expected = sorted(v for v in itertools.product(range(-K, K + 1), repeat=d)
                          if sum(map(abs, v)) <= K)
        assert sorted(map(tuple, z)) == expected
        assert np.all(np.diff(norm) >= 0)
        assert np.array_equal(layer, np.cumsum(np.bincount(norm)))
        assert np.array_equal(find(atoms), np.arange(len(atoms)))

    def test_memory_grows_with_nonzeros_not_d(self):
        # d=300, K=2: the ball holds 180,601 states. Stored as dense rows of
        # d int64 they alone would take 433 MB; as at most K nonzeros each,
        # with their successors and costs, a few tens of MB at most.
        stats = random_stats(63, d=300)
        base = LinearModel.zeros(stats.feature_names)
        cfg = OptimizerConfig(K=2, schedule=GAMMA1, step_mode="unit")
        tracemalloc.start()
        try:
            exact_path(stats, base, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48e6

    def test_far_target_fails_before_the_ball_is_built(self, monkeypatch):
        stats = random_stats(64, d=3)
        target = LinearModel(np.array([1.0, 1.0, 1.0]), stats.feature_names)
        cfg = OptimizerConfig(K=2, schedule=GAMMA1, step_mode="unit", endpoint=target)

        def no_ball(*args):
            raise AssertionError("the ball was built before the reachability check")

        monkeypatch.setattr(optimizers, "_l1_ball", no_ball)
        with pytest.raises(InfeasibleError, match="3 coordinates"):
            exact_path(stats, LinearModel.zeros(stats.feature_names), cfg)

    def test_unit_endpoint_unreachable(self):
        stats = random_stats(44, d=2)
        base = LinearModel.zeros(stats.feature_names)
        target = LinearModel(np.array([0.5, 0.0]), stats.feature_names)
        cfg = OptimizerConfig(K=2, schedule=GAMMA1, step_mode="unit", endpoint=target)
        with pytest.raises(InfeasibleError):
            exact_path(stats, base, cfg)


def test_single_feature_instance():
    from pathlens import stats_from_moments

    stats = stats_from_moments([[1.0]], [0.7], 1.0, ("only",))
    base = LinearModel.zeros(stats.feature_names)
    path = exact_path(stats, base, OptimizerConfig(K=3, schedule=GAMMA1))
    greedy = greedy_path(stats, base, 3)
    assert weighted_loss(stats, path, GAMMA1) <= weighted_loss(stats, greedy, GAMMA1) + 1e-12
    assert all(i == 0 for i, _ in path.steps)


def test_two_step_cost_continuum(toy_stats, toy_zero):
    # Sweeping the relative weight of the two steps traces non-dominated
    # (c1, c2) pairs between the greedy and install-final-values extremes.
    pairs = []
    lo = np.geomspace(1e-4, 0.5, 12)
    for a in np.concatenate([lo, 1 - lo]):
        path = exact_path(
            toy_stats, toy_zero, OptimizerConfig(K=2, schedule=WeightSchedule.explicit([a, 1 - a]))
        )
        c = cost_sequence(toy_stats, path)
        pairs.append((float(c[0]), float(c[1])))
    for p in pairs:
        for q in pairs:
            assert not (q[0] < p[0] - 1e-9 and q[1] < p[1] - 1e-9)
    c1s = [p[0] for p in pairs]
    c2s = [p[1] for p in pairs]
    assert min(c1s) == pytest.approx(0.42, abs=0.01)   # greedy end of the continuum
    assert c2s[c1s.index(min(c1s))] == pytest.approx(0.39, abs=0.01)
    assert min(c2s) == pytest.approx(0.25, abs=0.01)   # least-squares end
    assert c1s[c2s.index(min(c2s))] == pytest.approx(1.13, abs=0.01)


class TestBestExplanation:
    def test_toy_k2(self, toy_stats, toy_zero):
        target = LinearModel(TOY_OLS, toy_stats.feature_names)
        path = best_explanation(toy_stats, toy_zero, target, GAMMA1, 2)
        assert weighted_loss(toy_stats, path, GAMMA1) == pytest.approx(1.38, abs=0.01)

    def test_toy_k3_improves(self, toy_stats, toy_zero, monkeypatch):
        # The floor does not rule K = 3 out, and its search beats K = 2.
        lengths = searched_lengths(monkeypatch)
        target = LinearModel(TOY_OLS, toy_stats.feature_names)
        path = best_explanation(toy_stats, toy_zero, target, GAMMA1, 3)
        assert weighted_loss(toy_stats, path, GAMMA1) <= 1.28
        assert lengths == [2, 3] and path.K == 3

    def test_target_equals_base(self, toy_stats, toy_zero):
        path = best_explanation(toy_stats, toy_zero, toy_zero, GAMMA1, 2)
        assert path.K == 0

    def test_k_max_too_small(self, toy_stats, toy_zero):
        target = LinearModel(TOY_OLS, toy_stats.feature_names)
        with pytest.raises(InfeasibleError, match="complexity"):
            best_explanation(toy_stats, toy_zero, target, GAMMA1, 1)

    def test_over_budget_fails_before_any_search(self, toy_stats, toy_zero, monkeypatch):
        # d**K_max = 32 is over the budget; the shorter lengths are not, but
        # searching them first would spend what the budget forbids.
        def no_search(*args):
            raise AssertionError("exact_path ran before the budget check")

        monkeypatch.setattr(optimizers, "exact_path", no_search)
        monkeypatch.setattr(optimizers, "_best_subset_floor", no_search)
        target = LinearModel(TOY_OLS, toy_stats.feature_names)
        with pytest.raises(BudgetError, match="32"):
            best_explanation(toy_stats, toy_zero, target, GAMMA1, 5, budget=16)

    def test_sweep_over_budget_fails_before_any_search(self, toy_stats, toy_zero, monkeypatch):
        # The tradeoff sweep checks the longest length's d**K_max = 32 too.
        def no_search(*args):
            raise AssertionError("exact_paths ran before the budget check")

        monkeypatch.setattr(pareto, "exact_paths", no_search)
        cfg = OptimizerConfig(K=0, schedule=GAMMA1, budget=16)
        with pytest.raises(BudgetError, match="32"):
            sweep(toy_stats, toy_zero, GAMMA1, default_lambda_grid(), 5, cfg=cfg)

    def test_matches_brute_force_oracle(self):
        # Geometric, positive explicit, and zero-weight schedules; ties
        # (common with zero weights) must go to the shortest, then
        # lexicographically first, pattern.
        rng = np.random.default_rng(11)
        for trial in range(30):
            d = 2 + trial % 3
            K_max = 4 if d == 4 else 5
            stats = random_stats(trial + 500, d=d)
            base = rng.standard_normal(d) * 0.5 * (trial % 2)
            target = base.copy()
            changed = rng.choice(d, int(rng.integers(1, min(d, 3) + 1)), replace=False)
            target[changed] = rng.standard_normal(changed.shape[0])
            weights = rng.uniform(0.1, 2.0, K_max)
            if trial % 3 == 2:
                weights[1:][rng.random(K_max - 1) < 0.5] = 0.0
            if trial % 3 == 0:
                schedule = WeightSchedule.geometric(0.8)
            else:
                schedule = WeightSchedule.explicit(weights)
            names = stats.feature_names
            path = best_explanation(
                stats, LinearModel(base, names), LinearModel(target, names), schedule, K_max
            )
            ref_obj, ref_iv = brute_force_explanation(
                stats, base, target, schedule.weights, K_max
            )
            assert tuple(i for i, _ in path.steps) == ref_iv
            assert weighted_loss(stats, path, schedule) == pytest.approx(ref_obj, rel=1e-9)


    def test_short_schedule_fails_at_the_same_length(self, monkeypatch):
        # Three weights for K_max = 5: the search of every length fails at
        # K = 4, and so does the one that skips lengths, whatever it skipped.
        stats = random_stats(3, d=3)
        base = LinearModel.zeros(stats.feature_names)
        target = LinearModel(np.array([0.7, 0.0, -0.4]), stats.feature_names)
        schedule = WeightSchedule.explicit([1.0, 0.5, 2.0])
        with pytest.raises(InputError) as oracle:
            all_lengths_explanation(stats, base, target, schedule, 5)
        lengths = searched_lengths(monkeypatch)
        with pytest.raises(InputError, match="asked for K=4") as pruned:
            best_explanation(stats, base, target, schedule, 5)
        assert str(pruned.value) == str(oracle.value)
        assert lengths[0] == 2 and set(lengths) <= {2, 3}

    def test_bench_instance_runs_one_search(self, monkeypatch):
        # scripts/bench.py's pinned topic explains the d = 5 fit: the floor
        # rules out K = 6 and 7, so only the K = 5 search runs.
        spec = importlib.util.spec_from_file_location(
            "bench_script", Path(__file__).resolve().parents[1] / "scripts" / "bench.py")
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)
        stats = bench.tradeoff_stats(pathlens, 5)
        base = LinearModel.zeros(stats.feature_names)
        lengths = searched_lengths(monkeypatch)
        path = best_explanation(stats, base, ols(stats), GAMMA1, 7)
        assert lengths == [5]
        monkeypatch.undo()
        assert path.steps == all_lengths_explanation(stats, base, ols(stats), GAMMA1, 7).steps

    def test_matches_all_lengths_oracle(self, monkeypatch):
        # 240 instances, d = 2..5, K_max = complexity .. complexity + 2:
        # geometric gamma 0.5, 1 and 1.5, positive explicit weights and
        # explicit weights with zeros; least-squares, sparse and dense
        # non-least-squares targets; zero and nonzero bases; every fifth
        # gram near-collinear (x_d = x_1 + 1e-7 noise). Each path is the
        # oracle's bit for bit, the lengths the floor rules out are not
        # searched, and no final model's cost falls below cost(target) by
        # anywhere near the skip margin.
        rng = np.random.default_rng(23)
        search = optimizers.exact_path
        drift = []  # alpha_K (cost(target) - cost(final)) of each search of a call
        worst = 0.0  # the largest over the skip margin of the call's result

        def measured(stats, base, cfg):
            path = search(stats, base, cfg)
            gap = cost(stats, cfg.endpoint) - cost(stats, path.final)
            drift.append(cfg.schedule.weight(cfg.K) * gap)
            return path

        monkeypatch.setattr(optimizers, "exact_path", measured)
        all_lengths = searched = 0
        for trial in range(240):
            d = 2 + trial % 4
            stats = (collinear_stats(trial, d, noise=1e-7) if trial % 5 == 4
                     else random_stats(trial + 900, d=d))
            names = stats.feature_names
            base = rng.standard_normal(d) * (trial % 2)
            kind = trial % 3
            if kind == 0:
                target = ols(stats).coefficients
            else:
                target = base.copy()
                m = d if kind == 2 else int(rng.integers(1, d + 1))
                changed = rng.choice(d, m, replace=False)
                target[changed] += rng.standard_normal(m)
            complexity = int(np.sum(target != base))
            K_max = complexity + int(rng.integers(0, 3))
            choice = trial // 3 % 5
            if choice < 3:
                schedule = WeightSchedule.geometric((0.5, 1.0, 1.5)[choice])
            else:
                weights = rng.uniform(0.1, 2.0, K_max)
                if choice == 4:
                    weights[rng.random(K_max) < 0.5] = 0.0
                    weights[rng.integers(complexity)] = rng.uniform(0.1, 2.0)
                schedule = WeightSchedule.explicit(weights)
            args = (stats, LinearModel(base, names), LinearModel(target, names), schedule,
                    K_max)
            drift.clear()
            path = best_explanation(*args)
            margin = _OBJECTIVE_RTOL * max(1.0, weighted_loss(stats, path, schedule))
            worst = max(worst, max(drift) / margin)
            searched += len(drift)
            with monkeypatch.context() as patch:
                patch.setattr(optimizers, "exact_path", search)
                expected = all_lengths_explanation(*args)
                assert explanation_loss(*args) == weighted_loss(stats, path, schedule)
            assert path.steps == expected.steps
            all_lengths += K_max - complexity + 1
        assert searched < all_lengths
        assert worst < 1e-3


    def test_target_term_bounds_every_final_cost(self):
        # x3 = x1 + 1e-7 noise puts the fit's coefficients near 2e6, and a
        # pinned path's final model then evaluates below cost(target): the
        # target term of the bound keeps a rounding band below every one.
        stats = collinear_stats(12, 3, noise=1e-7)
        base = LinearModel.zeros(stats.feature_names)
        target = ols(stats)
        floor = optimizers._cost_floor_near(stats, target, 5)
        finals = [cost(stats, exact_path(stats, base, OptimizerConfig(
            K=K, schedule=GAMMA1, endpoint=target)).final) for K in (3, 4, 5)]
        assert min(finals) < cost(stats, target)
        assert floor <= min(finals)


class TestRulesOut:
    def test_rounding_margin(self):
        # A bound rules out only past _OBJECTIVE_RTOL max(1, |best|).
        best = np.array([0.5, 0.5, 1e4, 1e4, 2.0])
        bound = best + np.array([0.9, 1.1, 0.9, 1.1, -1.0]) * _OBJECTIVE_RTOL * np.array(
            [1.0, 1.0, 1e4, 1e4, 2.0])
        assert _rules_out(bound, best).tolist() == [False, True, False, True, False]

    def test_infinities(self):
        # An infinite bound rules out a finite best and, as NaN, an infinite one;
        # a finite bound never rules out an infinite best.
        assert _rules_out(math.inf, 1.0) and _rules_out(math.inf, math.inf)
        assert not _rules_out(1.0, math.inf)


class TestBestSubsetFloor:
    """The floor C*(k) bounds the cost of every model that differs from the
    base in at most k coordinates, and is non-increasing in k."""

    @staticmethod
    def check(stats, base, K_max, budget=optimizers.DEFAULT_BUDGET):
        floor = _best_subset_floor(stats, base, K_max, budget)
        brute = best_subset_costs(stats, base.coefficients, K_max)
        assert floor.shape == (K_max + 1,)
        assert floor[0] == cost(stats, base)
        assert np.all(np.diff(floor) <= 0)
        assert np.all(floor <= brute)
        return floor, brute

    @settings(max_examples=40)
    @given(seed=st.integers(0, 10_000), d=st.integers(1, 5), K_max=st.integers(0, 7),
           nonzero_base=st.booleans(), collinear=st.booleans())
    def test_floor_bounds_brute_force(self, seed, d, K_max, nonzero_base, collinear):
        assume(d >= 2 or not collinear)
        stats = collinear_stats(seed, d, noise=1e-7) if collinear else random_stats(seed, d=d)
        rng = np.random.default_rng(seed)
        base = LinearModel(rng.standard_normal(d) * nonzero_base, stats.feature_names)
        floor, brute = self.check(stats, base, K_max)
        if not collinear:  # the rounding band is tiny on well-conditioned grams
            assert np.all(floor >= brute - 1e-9 * np.maximum(1.0, brute))
        # Every model of an optimal path, and random models, cost at least the floor.
        for K in range(1, K_max + 1):
            path = exact_path(stats, base, OptimizerConfig(K=K, schedule=GAMMA1))
            assert np.all(cost_sequence(stats, path) >= floor[1:K + 1])
        for _ in range(20):
            k = int(rng.integers(0, min(d, K_max) + 1))
            beta = base.coefficients.copy()
            beta[rng.choice(d, k, replace=False)] += 3 * rng.standard_normal(k)
            assert cost(stats, LinearModel(beta, stats.feature_names)) >= floor[k]

    def test_collinear_gram(self):
        # x4 = x1 + 1e-7 noise: the pair's refit runs far along a near-null
        # direction, and the floor still stays below the lstsq costs.
        stats = collinear_stats(3, 4, noise=1e-7)
        base = LinearModel(np.array([0.5, -1.0, 0.0, 2.0]), stats.feature_names)
        self.check(stats, base, 6)

    def test_budget_falls_back_to_the_full_fit(self):
        # A budget of d subsets covers size 1 only; larger sizes get the full
        # least-squares fit's bound.
        stats = random_stats(4, d=5)
        base = LinearModel.zeros(stats.feature_names)
        full = self.check(stats, base, 7)[0]
        floor, brute = self.check(stats, base, 7, budget=5)
        assert floor[1] == full[1]
        assert np.all(floor[2:] == full[5]) and full[5] == pytest.approx(brute[5], rel=1e-9)
        assert floor[2] < brute[2]
