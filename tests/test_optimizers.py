import itertools

import numpy as np
import pytest

from pathlens import (
    BudgetError,
    InfeasibleError,
    InputError,
    LinearModel,
    OptimizerConfig,
    WeightSchedule,
    best_explanation,
    cost,
    cost_sequence,
    direct_path,
    exact_path,
    greedy_path,
    local_improvement,
    materialize,
    ols,
    solve_free,
    stats_from_moments,
    weighted_loss,
)
from pathlens import optimizers
from pathlens.optimizers import _enum_direct, _enum_free_fast, _iv_chunks
from pathlens.inner import as_weights, path_from_deltas
from conftest import TOY_OLS, random_stats
from oracles import (
    PivotBreakdown,
    batch_objectives,
    brute_force_explanation,
    unblocked_enum_free_fast,
)

GAMMA1 = WeightSchedule.geometric(1.0)


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


class TestEnumerationEngines:
    """The incremental-factor engine must agree with per-candidate solves."""

    @pytest.mark.parametrize("seed,d,K", [(0, 2, 5), (1, 3, 4), (2, 4, 7), (3, 4, 3), (4, 2, 2)])
    def test_engines_agree(self, seed, d, K):
        stats = random_stats(seed + 50, d=d)
        base = np.zeros(d)
        rng = np.random.default_rng(seed)
        alpha = as_weights(rng.uniform(0.1, 2.0, size=K), K)
        (v_fast,), (iv_fast,), (broken,) = _enum_free_fast(stats, base, K, alpha[None])
        v_direct, iv_direct, _ = _enum_direct(
            stats, LinearModel(base, stats.feature_names), K, alpha
        )
        assert not broken
        assert v_fast == pytest.approx(v_direct, rel=1e-8, abs=1e-10)
        assert np.array_equal(iv_fast, iv_direct)

    def test_engines_agree_nonzero_base(self):
        stats = random_stats(99, d=3)
        rng = np.random.default_rng(99)
        base = rng.standard_normal(3) * 0.5
        alpha = as_weights(rng.uniform(0.1, 2.0, size=4), 4)
        (v_fast,), (iv_fast,), (broken,) = _enum_free_fast(stats, base, 4, alpha[None])
        v_direct, iv_direct, _ = _enum_direct(
            stats, LinearModel(base, stats.feature_names), 4, alpha
        )
        assert not broken
        assert v_fast == pytest.approx(v_direct, rel=1e-8, abs=1e-10)
        assert np.array_equal(iv_fast, iv_direct)

    def test_blocked_matches_unblocked_oracle(self, monkeypatch):
        # Small segment caps and blocks run t > 0 roots and many blocks per
        # root; the fixed cases add d = 1, K <= 2 and one parent per block.
        # Each case also runs with a weight that breaks the factorization:
        # a first weight too small to change the tail weights (repeated
        # coordinates fail at the root or the next pivot) or a near-zero
        # weight at K-2 (the fused step's last pivot).
        rng = np.random.default_rng(4)
        cases = [(1, 5, 1, 1), (1, 3, 2_000_000, 50_000), (3, 1, 2_000_000, 1),
                 (4, 2, 1, 1), (3, 2, 2_000_000, 5), (3, 6, 9, 1), (4, 5, 2_000_000, 16)]
        for _ in range(100):
            d = int(rng.integers(1, 6))
            K = int(rng.integers(1, 8))
            cases.append((d, K, int(rng.choice([1, d, d * d, 50, 2_000_000])),
                          int(rng.choice([1, 2, 5, 64, 50_000]))))
        broke = 0
        for seed, (d, K, cap, block) in enumerate(cases):
            stats = random_stats(seed + 200, d=d)
            base = rng.standard_normal(d) * 0.5
            alpha = as_weights(rng.uniform(0.1, 2.0, size=K), K)
            monkeypatch.setattr(optimizers, "_SEGMENT_CAP", cap)
            monkeypatch.setattr(optimizers, "_BLOCK_LEAVES", block)
            tiny = alpha.copy()
            if seed % 2 and K >= 3:
                tiny[K - 2] = 1e-14
            else:
                tiny[0] = 1e-20
            for a in (alpha, tiny) if K >= 2 else (alpha,):
                (value,), (iv,), (broken,) = _enum_free_fast(stats, base, K, a[None])
                try:
                    expected = unblocked_enum_free_fast(stats, base, K, a, segment_cap=cap)
                except PivotBreakdown:
                    assert broken, (d, K, cap, block)
                    broke += 1
                    continue
                assert not broken, (d, K, cap, block)
                assert value == expected[0], (d, K, cap, block)
                assert np.array_equal(iv, expected[1]), (d, K, cap, block)
        assert broke > 0

    @pytest.mark.parametrize("d,K", [(3, 4), (4, 4), (2, 5)])
    def test_ties_across_blocks_resolve_to_first_pattern(self, monkeypatch, d, K):
        # With G = I and equal cross moments, relabeling the coordinates maps
        # each pattern to one with exactly the same objective, so every
        # optimum is tied with patterns in later blocks.
        names = tuple(f"x{i}" for i in range(d))
        stats = stats_from_moments(np.eye(d), np.full(d, 0.5), 2.0, names)
        base = LinearModel.zeros(names)
        alpha = as_weights(np.ones(K), K)
        monkeypatch.setattr(optimizers, "_BLOCK_LEAVES", 1)  # one parent per block
        _, (iv,), _ = _enum_free_fast(stats, base.coefficients, K, alpha[None])
        _, iv_direct, _ = _enum_direct(stats, base, K, alpha)
        assert np.array_equal(iv, iv_direct)
        relabeled = (iv + 1) % d
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
        assert _enum_free_fast(stats, base.coefficients, 4, alpha[None])[2].tolist() == [True]
        path = exact_path(stats, base, OptimizerConfig(K=4, schedule=schedule))
        _, iv, delta = _enum_direct(stats, base, 4, alpha)
        assert path.steps == path_from_deltas(base, iv, delta).steps

    def test_marked_rows_fall_back_to_direct(self, monkeypatch):
        # exact_free_paths must solve a row _enum_free_fast marks as broken
        # with _enum_direct, and never use that row's pattern.
        stats = random_stats(8, d=3)
        base = LinearModel.zeros(stats.feature_names)
        alphas = np.array([[1.0, 0.5, 2.0], [0.3, 1.0, 1.0], [2.0, 2.0, 0.1]])
        expected = optimizers.exact_free_paths(stats, base, alphas)
        fast = optimizers._enum_free_fast

        def mark_middle_row(*args):
            values, ivs, broken = fast(*args)
            ivs[1] = (ivs[1] + 1) % 3
            broken[1] = True
            return values, ivs, broken

        monkeypatch.setattr(optimizers, "_enum_free_fast", mark_middle_row)
        paths = optimizers.exact_free_paths(stats, base, alphas)
        _, iv, delta = _enum_direct(stats, base, 3, alphas[1])
        assert paths[1].steps == path_from_deltas(base, iv, delta).steps
        assert paths[0].steps == expected[0].steps and paths[2].steps == expected[2].steps

    def test_weight_rows_match_one_row_calls(self, monkeypatch):
        # Each row of a multi-row call must equal its own one-row call: same
        # objective bit for bit and same pattern. A row with a zero or
        # near-zero weight breaks down; the call must mark it, and no row
        # that does not break down alone. Small segment caps, blocks and
        # row-node minimums run t > 0 roots, passes of one and of several
        # rows, and one parent per block. The fixed
        # cases put several rows in one pass with t > 0 and one parent per
        # block: (d, K, _SEGMENT_CAP, _BLOCK_LEAVES, _BLOCK_ROW_NODES).
        rng = np.random.default_rng(11)
        cases = [(4, 6, 768, 192, 1), (3, 5, 20, 18, 1), (2, 4, 2_000_000, 64, 1),
                 (3, 4, 1, 1, 64), (2, 6, 4, 1, 64), (4, 4, 2_000_000, 1, 64),
                 (1, 3, 1, 1, 64), (3, 1, 2_000_000, 1, 64), (2, 2, 2_000_000, 64, 64)]
        for _ in range(40):
            d = int(rng.integers(1, 5))
            cases.append((d, int(rng.integers(1, 7)),
                          int(rng.choice([1, d, d * d, 50, 2_000_000])),
                          int(rng.choice([1, 2, 5, 64, 50_000])), int(rng.choice([1, 64]))))
        broke = 0
        for seed, (d, K, cap, block, row_nodes) in enumerate(cases):
            stats = random_stats(seed + 400, d=d)
            base = rng.standard_normal(d) * 0.5
            alphas = rng.uniform(0.1, 2.0, size=(int(rng.integers(2, 6)), K))
            if K >= 3 and seed % 3 == 0:
                alphas[int(rng.integers(len(alphas))), K - 2] = 1e-14
            elif K >= 2 and seed % 3 == 1:  # equal first two tail weights: fails at the root
                alphas[int(rng.integers(len(alphas))), 0] = 0.0
            monkeypatch.setattr(optimizers, "_SEGMENT_CAP", cap)
            monkeypatch.setattr(optimizers, "_BLOCK_LEAVES", block)
            monkeypatch.setattr(optimizers, "_BLOCK_ROW_NODES", row_nodes)
            alone = [_enum_free_fast(stats, base, K, a[None]) for a in alphas]
            values, ivs, broken = _enum_free_fast(stats, base, K, alphas)
            assert broken.tolist() == [bool(b[2][0]) for b in alone], (d, K, cap, block)
            broke += int(broken.sum())
            for j in np.flatnonzero(~broken):
                assert values[j] == alone[j][0][0], (d, K, cap, block)
                assert np.array_equal(ivs[j], alone[j][1][0]), (d, K, cap, block)
        assert broke > 0

    def test_weight_rows_resolve_ties_to_first_pattern(self, monkeypatch):
        # As test_ties_across_blocks_resolve_to_first_pattern, with several
        # weight rows in one call.
        d, K = 3, 4
        names = tuple(f"x{i}" for i in range(d))
        stats = stats_from_moments(np.eye(d), np.full(d, 0.5), 2.0, names)
        base = LinearModel.zeros(names)
        alphas = np.array([[1.0, 1.0, 1.0, 1.0], [0.2, 0.5, 1.0, 2.0], [3.0, 1.0, 0.5, 0.1]])
        monkeypatch.setattr(optimizers, "_BLOCK_LEAVES", 1)
        _, ivs, _ = _enum_free_fast(stats, base.coefficients, K, alphas)
        for a, iv in zip(alphas, ivs):
            assert np.array_equal(iv, _enum_direct(stats, base, K, a)[1])

    def test_zero_weight_schedule_uses_direct_engine(self, toy_stats, toy_zero):
        # alpha with zeros makes the system singular; exact_path must still work.
        cfg = OptimizerConfig(K=2, schedule=WeightSchedule.explicit([0.0, 1.0]))
        path = exact_path(toy_stats, toy_zero, cfg)
        assert cost(toy_stats, path.final) <= cost(toy_stats, ols(toy_stats)) + 1e-8


@pytest.mark.parametrize("d,K,chunk", [
    (1, 1, 3), (1, 4, 2), (3, 1, 2), (3, 4, 7), (2, 3, 8),
    (6, 6, max(256, optimizers._CHUNK_ENTRIES // 36)),  # _enum_direct's chunk at K=6
    (4, 6, max(1, 200_000 // 3**6)),  # _enum_direct's unit-step chunk at K=6
])
def test_iv_chunks_match_itertools_product(d, K, chunk):
    expected = np.asarray(list(itertools.product(range(d), repeat=K)), dtype=int)
    chunks = list(_iv_chunks(d, K, chunk))
    assert [c.shape for c in chunks] == [
        (min(chunk, len(expected) - s), K) for s in range(0, len(expected), chunk)
    ]
    assert all(c.dtype == expected.dtype for c in chunks)
    assert np.array_equal(np.concatenate(chunks), expected)


class TestLocalImprovement:
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

    def test_unit_endpoint(self):
        stats = random_stats(43, d=2)
        base = LinearModel.zeros(stats.feature_names)
        target = LinearModel(np.array([2.0, -1.0]), stats.feature_names)
        cfg = OptimizerConfig(K=3, schedule=GAMMA1, step_mode="unit", endpoint=target)
        path = exact_path(stats, base, cfg)
        assert np.allclose(path.final.coefficients, target.coefficients, atol=1e-9)

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

    def test_toy_k3_improves(self, toy_stats, toy_zero):
        target = LinearModel(TOY_OLS, toy_stats.feature_names)
        path = best_explanation(toy_stats, toy_zero, target, GAMMA1, 3)
        assert weighted_loss(toy_stats, path, GAMMA1) <= 1.28

    def test_target_equals_base(self, toy_stats, toy_zero):
        path = best_explanation(toy_stats, toy_zero, toy_zero, GAMMA1, 2)
        assert path.K == 0

    def test_k_max_too_small(self, toy_stats, toy_zero):
        target = LinearModel(TOY_OLS, toy_stats.feature_names)
        with pytest.raises(InfeasibleError, match="complexity"):
            best_explanation(toy_stats, toy_zero, target, GAMMA1, 1)

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
