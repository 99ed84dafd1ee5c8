import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pathlens import (
    InputError,
    LinearModel,
    OptimizerConfig,
    WeightSchedule,
    cost,
    default_lambda_grid,
    exact_path,
    expected_cost_path,
    greedy_path,
    local_improvement,
    ols,
    solve_tradeoff,
    sweep,
    weighted_loss,
)
from pathlens import pareto
from pathlens.cli import canonical_json
from pathlens.optimizers import exact_paths
from pathlens.pareto import check_front_rows, front_to_csv, front_to_json
from conftest import collinear_stats, random_stats
from oracles import per_lambda_solve_tradeoff, per_lambda_sweep

GAMMA1 = WeightSchedule.geometric(1.0)


class TestSolveTradeoff:
    def test_huge_lambda_selects_empty_path(self, toy_stats, toy_zero):
        point = solve_tradeoff(toy_stats, toy_zero, GAMMA1, 1e6, 3)
        assert point.K == 0
        assert np.allclose(point.model.coefficients, 0.0)
        assert point.cost == pytest.approx(toy_stats.target_second_moment)
        assert point.interp_loss == 0.0

    def test_lambda_zero_attains_ols_cost(self, toy_stats, toy_zero):
        point = solve_tradeoff(toy_stats, toy_zero, GAMMA1, 0.0, 2)
        assert point.cost <= cost(toy_stats, ols(toy_stats)) + 1e-6

    def test_k_selection_spans_all_lengths(self, toy_stats, toy_zero):
        ks = {
            solve_tradeoff(toy_stats, toy_zero, GAMMA1, lam, 3).K
            for lam in default_lambda_grid()
        }
        assert ks == {0, 1, 2, 3}

    def test_negative_lambda_rejected(self, toy_stats, toy_zero):
        with pytest.raises(InputError):
            solve_tradeoff(toy_stats, toy_zero, GAMMA1, -0.5, 2)

    @pytest.mark.parametrize("lam", [np.nan, np.inf])
    def test_non_finite_lambda_rejected(self, toy_stats, toy_zero, lam):
        with pytest.raises(InputError, match="lambda must be finite and >= 0"):
            solve_tradeoff(toy_stats, toy_zero, GAMMA1, lam, 2)
        with pytest.raises(InputError, match="lambda grid values must be finite and >= 0"):
            sweep(toy_stats, toy_zero, GAMMA1, [0.5, lam], 2)

    def test_point_invariants(self, toy_stats, toy_zero):
        point = solve_tradeoff(toy_stats, toy_zero, GAMMA1, 0.3, 3)
        assert point.cost == pytest.approx(cost(toy_stats, point.model))
        assert point.interp_loss == pytest.approx(weighted_loss(toy_stats, point.path, GAMMA1))
        assert np.allclose(point.path.final.coefficients, point.model.coefficients)


class TestSweep:
    def test_toy_front_structure(self, toy_stats, toy_zero):
        report = sweep(toy_stats, toy_zero, GAMMA1, default_lambda_grid(), 3)
        ks = {p.K for p in report.points}
        assert ks == {0, 1, 2, 3}
        assert any(
            p.cost == pytest.approx(2.04, abs=1e-9) and p.interp_loss == 0.0
            for p in report.points
        )
        assert any(p.cost == pytest.approx(0.25, abs=0.01) for p in report.points)

    def test_single_lambda(self, toy_stats, toy_zero):
        report = sweep(toy_stats, toy_zero, GAMMA1, [0.0], 2)
        assert len(report.points) == 1
        assert report.points[0].cost <= cost(toy_stats, ols(toy_stats)) + 1e-6

    def test_no_dominated_points(self, toy_stats, toy_zero):
        report = sweep(toy_stats, toy_zero, GAMMA1, default_lambda_grid(), 3)
        for p in report.points:
            for q in report.points:
                if p is q:
                    continue
                strictly_better = q.cost < p.cost - 1e-12 or q.interp_loss < p.interp_loss - 1e-12
                weakly_leq = q.cost <= p.cost + 1e-12 and q.interp_loss <= p.interp_loss + 1e-12
                assert not (strictly_better and weakly_leq)

    def test_monotone_along_grid(self, toy_stats, toy_zero):
        grid = np.logspace(-3, 3, 25)
        points = [solve_tradeoff(toy_stats, toy_zero, GAMMA1, lam, 3) for lam in grid]
        # Increasing lambda: cost goes up, interpretability loss goes down.
        for a, b in zip(points, points[1:]):
            assert b.cost >= a.cost - 1e-9
            assert b.interp_loss <= a.interp_loss + 1e-9

    def test_duplicates_keep_smallest_lambda(self, toy_stats, toy_zero):
        report = sweep(toy_stats, toy_zero, GAMMA1, [1e5, 1e6], 3)
        assert len(report.points) == 1
        assert report.points[0].lam == pytest.approx(1e5)

    def test_metadata(self, toy_stats, toy_zero):
        report = sweep(toy_stats, toy_zero, GAMMA1, [0.1, 1.0], 2)
        assert report.metadata["K_max"] == 2
        assert report.metadata["solver"] == "exact"
        assert len(report.metadata["selected_K"]) == 2

    def test_workers_do_not_change_result(self, toy_stats, toy_zero):
        grid = np.logspace(-2, 2, 9)
        r1 = sweep(toy_stats, toy_zero, GAMMA1, grid, 2, workers=1)
        r2 = sweep(toy_stats, toy_zero, GAMMA1, grid, 2, workers=4)
        assert [(p.cost, p.interp_loss, p.K) for p in r1.points] == [
            (p.cost, p.interp_loss, p.K) for p in r2.points
        ]

    def test_local_solver(self, toy_stats, toy_zero):
        cfg = OptimizerConfig(K=0, schedule=GAMMA1, T=40, seed=5)
        report = sweep(toy_stats, toy_zero, GAMMA1, [0.1, 1.0, 10.0], 2, solver="local", cfg=cfg)
        assert len(report.points) >= 1

    def test_cfg_endpoint_is_ignored(self, toy_stats, toy_zero):
        grid = np.logspace(-2, 2, 9)
        target = ols(toy_stats)
        plain_cfg = OptimizerConfig(K=0, schedule=GAMMA1)
        pinned_cfg = OptimizerConfig(K=0, schedule=GAMMA1, endpoint=target)
        plain = sweep(toy_stats, toy_zero, GAMMA1, grid, 2, cfg=plain_cfg)
        pinned = sweep(toy_stats, toy_zero, GAMMA1, grid, 2, cfg=pinned_cfg)
        assert front_to_json(pinned) == front_to_json(plain)


def front_artifacts(report):
    return canonical_json(front_to_json(report)), front_to_csv(report)


SCHEDULES = {
    "gamma1": GAMMA1,
    "gamma0.7": WeightSchedule.geometric(0.7),
    "zero_middle": WeightSchedule.explicit([1.0, 0.0, 0.5, 0.0]),
    "zero_first": WeightSchedule.explicit([0.0, 1.0, 0.0, 2.0]),
}
# Mostly values where paths of length >= 2 win, so their step sizes reach
# the front; 0 and 1e-13 give zero-weight and breakdown rows.
LAMBDAS = st.one_of(st.sampled_from([0.0, 1e-13, 1e-3, 0.05, 0.3, 1.0, 40.0]),
                    st.floats(-3.0, 1.0).map(lambda e: 10.0**e))


class TestPerLambdaOracle:
    """The sweep that enumerates once per length must write the same front,
    byte for byte, as one exact_path (or local_improvement) per lambda and
    length."""

    @staticmethod
    def check(seed, d, K_max, grid, schedule="gamma1", nonzero_base=False, collinear=False,
              solver="exact", workers=1):
        stats = collinear_stats(seed, d) if collinear else random_stats(seed, d=d)
        rng = np.random.default_rng(seed)
        base = LinearModel(rng.standard_normal(d) * nonzero_base, stats.feature_names)
        cfg = OptimizerConfig(K=0, schedule=GAMMA1, T=8, seed=seed)
        args = (stats, base, SCHEDULES[schedule], grid, K_max, solver, cfg)
        expected = front_artifacts(per_lambda_sweep(*args))
        assert front_artifacts(sweep(*args, workers=workers)) == expected

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize(
        "case",
        [
            # lambda = 0 gives zero weights on all but the last step.
            dict(grid=[0.0, 0.5, 2.0]),
            dict(grid=[0.7]),
            dict(grid=[1.0, 0.1, 1.0, 0.1, 5.0, 5.0]),
            dict(grid=[30.0, 0.01, 2.0, 0.2, 0.05]),
            # Weights within 1e-10 of each other break the factorization of
            # patterns that repeat a coordinate, in those rows only.
            dict(grid=[1e-13, 0.1, 1e-12, 3.0]),
            dict(schedule="zero_middle", K_max=4),
            dict(schedule="zero_first", K_max=4),
            dict(collinear=True),
            dict(nonzero_base=True, schedule="gamma0.7"),
            dict(solver="local"),
        ],
        ids=["lambda_zero", "one_value", "duplicates", "unsorted", "tiny_lambda",
             "zero_middle_weights", "zero_first_weights", "collinear", "nonzero_base",
             "local"],
    )
    def test_front_matches_oracle(self, case, workers):
        case = dict(case)
        grid = case.pop("grid", list(np.logspace(-3, 3, 13)))
        self.check(21, 4, case.pop("K_max", 3), grid, workers=workers, **case)

    @settings(max_examples=30)
    @given(seed=st.integers(0, 10_000), d=st.integers(3, 4), K_max=st.integers(2, 3),
           grid=st.lists(LAMBDAS, min_size=2, max_size=12),
           schedule=st.sampled_from(sorted(SCHEDULES)), nonzero_base=st.booleans(),
           collinear=st.sampled_from([False, False, False, True]),
           solver=st.sampled_from(["exact", "exact", "exact", "local"]),
           workers=st.integers(1, 3))
    def test_front_matches_oracle_property(self, seed, d, K_max, grid, schedule, nonzero_base,
                                           collinear, solver, workers):
        self.check(seed, d, K_max, grid, schedule, nonzero_base, collinear, solver, workers)

    def test_collinear_zero_first_weights(self):
        # A zero first weight leaves step 1 free, and on a gram singular at
        # working precision its inner solve ran off to coefficients near 1e9,
        # whose cost cancels to a negative value: the path won with a
        # clamped objective of 0 and cost() then raised InputError.
        self.check(196, 3, 3, [0.0, 0.05], schedule="zero_first", collinear=True)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_thousand_value_grid(self, workers):
        stats = random_stats(8, d=4)
        base = LinearModel.zeros(stats.feature_names)
        grid = np.random.default_rng(8).permutation(np.logspace(-4, 4, 1000))
        expected = front_artifacts(per_lambda_sweep(stats, base, GAMMA1, grid, 3))
        assert front_artifacts(sweep(stats, base, GAMMA1, grid, 3, workers=workers)) == expected

    def test_solve_tradeoff_matches_oracle(self):
        stats = random_stats(9, d=4)
        base = LinearModel.zeros(stats.feature_names)
        for lam in (0.0, 1e-13, 0.02, 1.0, 500.0):
            point = solve_tradeoff(stats, base, GAMMA1, lam, 3)
            expected = per_lambda_solve_tradeoff(stats, base, GAMMA1, lam, 3)
            assert (point.K, point.lam, point.cost, point.interp_loss, point.path.steps) == (
                expected.K, expected.lam, expected.cost, expected.interp_loss,
                expected.path.steps)


# Schedules for K_max up to 6, zero weights leading, inside and trailing.
LONG_SCHEDULES = {
    "gamma1": GAMMA1,
    "gamma0.7": WeightSchedule.geometric(0.7),
    "zero_middle": WeightSchedule.explicit([1.0, 0.0, 0.5, 0.0, 1.0, 0.3]),
    "zero_first": WeightSchedule.explicit([0.0, 1.0, 0.0, 2.0, 0.0, 1.0]),
    "zero_last": WeightSchedule.explicit([1.0, 0.0, 2.0, 0.0, 0.0, 0.0]),
}


class TestSkippedLengths:
    """Rows whose best-subset bound rules a length out skip its search, and
    the front stays the per-value oracle's, byte for byte."""

    @settings(max_examples=40)
    @given(seed=st.integers(0, 10_000), d=st.integers(2, 4), extra=st.integers(-1, 2),
           top=st.sampled_from([1.0, 2.0, 3.0]), size=st.integers(2, 13),
           zero=st.booleans(),
           schedule=st.sampled_from(sorted(LONG_SCHEDULES)),
           nonzero_base=st.booleans(), collinear=st.sampled_from([False, False, True]),
           solver=st.sampled_from(["exact", "exact", "local"]), workers=st.integers(1, 2))
    def test_front_matches_oracle_where_rows_are_skipped(self, seed, d, extra, top, size, zero,
                                                         schedule, nonzero_base, collinear,
                                                         solver, workers):
        # Grids up to 1e3 rule out long paths; K_max > d ties lengths past d.
        grid = list(np.logspace(-3.0, top, size)) + [0.0] * zero
        K_max = max(1, d + extra)
        stats = collinear_stats(seed, d, noise=1e-7) if collinear else random_stats(seed, d=d)
        rng = np.random.default_rng(seed)
        base = LinearModel(rng.standard_normal(d) * nonzero_base, stats.feature_names)
        cfg = OptimizerConfig(K=0, schedule=GAMMA1, T=8, seed=seed)
        args = (stats, base, LONG_SCHEDULES[schedule], grid, K_max, solver, cfg)
        assert front_artifacts(sweep(*args, workers=workers)) == front_artifacts(
            per_lambda_sweep(*args))

    def test_default_grid_skips_rows(self, monkeypatch):
        stats = random_stats(6, d=6)
        base = LinearModel.zeros(stats.feature_names)
        rows = []

        def spy(stats, base, alphas, *args):
            rows.append(len(alphas))
            return exact_paths(stats, base, alphas, *args)

        monkeypatch.setattr(pareto, "exact_paths", spy)
        report = sweep(stats, base, GAMMA1, default_lambda_grid(), 6)
        assert 0 < sum(rows) < 61 * 6
        monkeypatch.undo()
        assert front_artifacts(report) == front_artifacts(
            per_lambda_sweep(stats, base, GAMMA1, default_lambda_grid(), 6))


    def test_floor_solves_at_most_d_subsets_per_row(self, monkeypatch):
        # 2 values x 4 lengths at d = 12 allow 96 subsets: the 12 singles and
        # not the 66 pairs, so sizes from 2 on get the full fit's bound.
        stats = random_stats(7, d=12)
        base = LinearModel.zeros(stats.feature_names)
        budgets = []
        floor = pareto._best_subset_floor

        def spy(stats, base, K_max, budget):
            budgets.append(budget)
            return floor(stats, base, K_max, budget)

        monkeypatch.setattr(pareto, "_best_subset_floor", spy)
        cfg = OptimizerConfig(K=0, schedule=GAMMA1, T=5)
        args = (stats, base, GAMMA1, [0.1, 10.0], 4, "local", cfg)
        report = sweep(*args)
        assert budgets == [2 * 4 * 12]
        monkeypatch.undo()
        assert front_artifacts(report) == front_artifacts(per_lambda_sweep(*args))


class TestBruteForceValidation:
    def test_sweep_points_undominated_on_grid(self, toy_stats, toy_zero):
        # Quick version of the full grid check (the acceptance suite runs the
        # 41-point version): enumerate all paths with K <= 3 over a coarse
        # per-step value grid and confirm no grid path beats a sweep point in
        # both objectives.
        report = sweep(toy_stats, toy_zero, GAMMA1, np.logspace(-3, 3, 13), 3)
        values = np.linspace(-3.2, 3.2, 21)
        pts = grid_front(toy_stats, toy_zero, values, 3)
        for p in report.points:
            bad = (
                (pts[:, 0] <= p.cost + 1e-9)
                & (pts[:, 1] <= p.interp_loss + 1e-9)
                & ((pts[:, 0] < p.cost - 1e-6) | (pts[:, 1] < p.interp_loss - 1e-6))
            )
            assert not bad.any()


def grid_front(stats, base, values, K_max):
    """All (final cost, gamma=1 loss) pairs over grid-valued paths, K <= K_max."""
    import itertools

    from pathlens.regression import cost_of_many

    out = [(cost(stats, base), 0.0)]
    d = stats.d
    for K in range(1, K_max + 1):
        for iv in itertools.product(range(d), repeat=K):
            combos = np.array(list(itertools.product(values, repeat=K)))
            betas = np.repeat(base.coefficients[None, :], combos.shape[0], axis=0)
            loss = np.zeros(combos.shape[0])
            costs = None
            for k in range(K):
                betas[:, iv[k]] = combos[:, k]
                costs = cost_of_many(stats, betas)
                loss += costs
            out.extend(zip(costs.tolist(), loss.tolist()))
    return np.array(out)


class TestExpectedCostPath:
    def test_point_mass_matches_final_cost_objective(self, toy_stats, toy_zero):
        path = expected_cost_path(toy_stats, toy_zero, [0.0, 1.0])
        ref = exact_path(
            toy_stats, toy_zero, OptimizerConfig(K=2, schedule=WeightSchedule.explicit([0.0, 1.0]))
        )
        sched = WeightSchedule.distribution([0.0, 1.0])
        assert weighted_loss(toy_stats, path, sched) == pytest.approx(
            weighted_loss(toy_stats, ref, sched), abs=1e-9
        )

    def test_uniform_beats_greedy_bound(self, toy_stats, toy_zero):
        path = expected_cost_path(toy_stats, toy_zero, [0.5, 0.5])
        sched = WeightSchedule.distribution([0.5, 0.5])
        expected = weighted_loss(toy_stats, path, sched)
        greedy = greedy_path(toy_stats, toy_zero, 2)
        assert expected <= weighted_loss(toy_stats, greedy, sched) + 1e-9
        assert expected <= (0.42 + 0.39) / 2

    def test_invalid_distribution(self, toy_stats, toy_zero):
        with pytest.raises(InputError):
            expected_cost_path(toy_stats, toy_zero, [0.5, 0.2])

    def test_local_solver_runs_the_local_search(self, toy_stats, toy_zero):
        # The search takes cfg's knobs and the distribution's length and weights.
        p = [0.25, 0.25, 0.5]
        cfg = OptimizerConfig(K=0, schedule=WeightSchedule.geometric(1.0), q=2, T=20, seed=3)
        path = expected_cost_path(toy_stats, toy_zero, p, solver="local", cfg=cfg)
        ref = local_improvement(toy_stats, toy_zero, OptimizerConfig(
            K=3, schedule=WeightSchedule.distribution(p), q=2, T=20, seed=3))
        assert path.steps == ref.steps


class TestSerialization:
    def test_csv_and_json(self, toy_stats, toy_zero):
        report = sweep(toy_stats, toy_zero, GAMMA1, [0.01, 1.0, 100.0], 2)
        text = front_to_csv(report)
        lines = text.strip().splitlines()
        assert lines[0] == "interp_loss,cost,K,lambda"
        assert len(lines) == len(report.points) + 1
        rows = [(float(ln.split(",")[0]), float(ln.split(",")[1])) for ln in lines[1:]]
        assert check_front_rows(rows) == []
        payload = front_to_json(report)
        assert len(payload["points"]) == len(report.points)
        assert payload["metadata"]["K_max"] == 2

    def test_check_front_rows_catches_domination(self):
        rows = [(0.0, 1.0), (0.5, 0.2), (0.6, 0.5)]  # third dominated by second
        problems = check_front_rows(rows)
        assert any("dominated" in p for p in problems)
