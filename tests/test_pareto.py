import numpy as np
import pytest

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
    ols,
    solve_tradeoff,
    sweep,
    weighted_loss,
)
from pathlens.pareto import check_front_rows, front_to_csv, front_to_json

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


class TestSerialization:
    def test_csv_and_json(self, toy_stats, toy_zero):
        report = sweep(toy_stats, toy_zero, GAMMA1, [0.01, 1.0, 100.0], 2)
        text = front_to_csv(report)
        lines = text.strip().splitlines()
        assert lines[0] == "interp_loss,cost,K,lambda"
        assert len(lines) == len(report.points) + 1
        rows = [(ln.split(",")[0], ln.split(",")[1]) for ln in lines[1:]]
        assert check_front_rows(rows) == []
        payload = front_to_json(report)
        assert len(payload["points"]) == len(report.points)
        assert payload["metadata"]["K_max"] == 2

    def test_check_front_rows_catches_domination(self):
        rows = [(0.0, 1.0), (0.5, 0.2), (0.6, 0.5)]  # third dominated by second
        problems = check_front_rows(rows)
        assert any("dominated" in p for p in problems)
