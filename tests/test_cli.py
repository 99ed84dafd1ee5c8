import json
import math
import warnings

import numpy as np
import pytest

from pathlens import (
    LinearModel,
    OptimizerConfig,
    WeightSchedule,
    default_lambda_grid,
    exact_path,
    stats_from_moments,
    sweep,
    weighted_loss,
)
from pathlens import cli
from pathlens.cli import canonical_json, main
from pathlens.pareto import front_to_json
from conftest import TOY_CROSS, TOY_GRAM, TOY_TSM


@pytest.fixture
def toy_moments(tmp_path):
    f = tmp_path / "toy.json"
    f.write_text(
        json.dumps(
            {"gram": TOY_GRAM, "cross": TOY_CROSS, "tsm": TOY_TSM, "names": ["height", "weight"]}
        ),
        encoding="utf-8",
    )
    return str(f)


@pytest.fixture
def toy_csv(tmp_path):
    rng = np.random.default_rng(0)
    n = 200
    x1 = rng.standard_normal(n)
    x2 = 0.9 * x1 + np.sqrt(1 - 0.81) * rng.standard_normal(n)
    y = 2.0 * x1 - 0.8 * x2 + 0.4 * rng.standard_normal(n)
    lines = ["h,w,age"] + [f"{a},{b},{c}" for a, b, c in zip(x1, x2, y)]
    f = tmp_path / "toy.csv"
    f.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(f)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestStats:
    def test_moments(self, capsys, toy_moments):
        code, out, _ = run(capsys, "stats", "--moments", toy_moments)
        assert code == 0
        assert "height" in out and "2.0400" in out
        assert "0.2490" in out

    def test_csv_standardized(self, capsys, toy_csv):
        code, out, _ = run(capsys, "stats", "--input", toy_csv, "--target", "age")
        assert code == 0
        assert "cost of zero model: 1.0000" in out

    def test_moments_export_reload(self, capsys, toy_csv, tmp_path):
        out_file = str(tmp_path / "m.json")
        code, _, _ = run(capsys, "stats", "--input", toy_csv, "--target", "age", "--out", out_file)
        assert code == 0
        code, out, _ = run(capsys, "stats", "--moments", out_file)
        assert code == 0
        assert "cost of zero model: 1.0000" in out

    def test_requires_one_source(self, capsys):
        code, _, err = run(capsys, "stats")
        assert code == 2
        assert "exactly one input source" in err

    @pytest.mark.parametrize(
        "moments, key",
        [
            ({"gram": "abc", "cross": [0.5], "tsm": 1.0}, "'gram'"),
            ({"gram": [[1, 0], [0]], "cross": [0.5, 0.1], "tsm": 1.0}, "'gram'"),
            ({"gram": [[1.0]], "cross": {"a": 1}, "tsm": 1.0}, "'cross'"),
            ({"gram": [[1.0]], "cross": [0.5], "tsm": "x"}, "'tsm'"),
            ({"gram": [[1.0]], "cross": [0.5], "tsm": [1.0, 2.0]}, "'tsm'"),
            ({"gram": [[1.0]], "cross": [0.5], "tsm": 1.0, "names": 5}, "'names'"),
            ({"gram": np.eye(2).tolist(), "cross": [0.5, 0.1], "tsm": 1.0, "names": "ab"},
             "'names'"),
            (5, "JSON object"),
            ("gram cross tsm", "JSON object"),
            ({"gram": [[1.0]], "cross": [0.5]}, "missing 'tsm' key"),
        ],
        ids=["gram_string", "gram_ragged", "cross_object", "tsm_string", "tsm_list",
             "names_number", "names_string", "top_number", "top_string", "missing_key"],
    )
    def test_malformed_moments_exit_2(self, capsys, tmp_path, moments, key):
        f = tmp_path / "m.json"
        f.write_text(json.dumps(moments), encoding="utf-8")
        code, _, err = run(capsys, "stats", "--moments", str(f))
        assert code == 2
        assert key in err


class TestPath:
    def test_exact_defaults_to_ols_endpoint(self, capsys, toy_moments):
        code, out, _ = run(
            capsys, "path", "exact", "--moments", toy_moments, "--K", "2", "--gamma", "1"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-2].split()[-1] == "0.2490"  # final model row ends at the OLS cost

    def test_greedy_k0(self, capsys, toy_moments):
        code, out, _ = run(capsys, "path", "greedy", "--moments", toy_moments, "--K", "0")
        assert code == 0
        assert "beta_0" in out and "2.0400" in out
        assert "beta_1" not in out

    def test_local_rerun_is_byte_identical(self, capsys, toy_moments):
        argv = [
            "path", "local", "--moments", toy_moments,
            "--K", "10", "--q", "2", "--seed", "7", "--gamma", "1",
        ]
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_artifact_round_trip(self, capsys, toy_moments, tmp_path):
        out_file = tmp_path / "path.json"
        code, _, _ = run(
            capsys, "path", "exact", "--moments", toy_moments, "--K", "2", "--out", str(out_file)
        )
        assert code == 0
        text = out_file.read_text(encoding="utf-8")
        payload = json.loads(text)
        assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == text
        assert [s["feature"] for s in payload["steps"]] == ["height", "weight"]

    def test_direct_installs_the_fit(self, capsys, toy_moments):
        code, out, _ = run(capsys, "path", "direct", "--moments", toy_moments, "--K", "2")
        assert code == 0
        assert out.strip().splitlines()[-2].split()[-1] == "0.2490"  # the OLS cost

    def test_endpoint_file(self, capsys, toy_moments, tmp_path):
        model = tmp_path / "target.json"
        model.write_text(json.dumps({"coefficients": [1.274, 0.0]}), encoding="utf-8")
        out_file = tmp_path / "path.json"
        code, _, _ = run(capsys, "path", "exact", "--moments", toy_moments, "--K", "1",
                         "--endpoint", str(model), "--out", str(out_file))
        assert code == 0
        steps = json.loads(out_file.read_text(encoding="utf-8"))["steps"]
        assert steps == [{"feature": "height", "value": 1.274}]

    def test_model_file_with_invalid_json_exits_2(self, capsys, toy_moments, tmp_path):
        f = tmp_path / "model.json"
        f.write_text('{"coefficients": [1.0, ', encoding="utf-8")
        code, _, err = run(capsys, "path", "greedy", "--moments", toy_moments, "--K", "1",
                           "--base", str(f))
        assert code == 2
        assert "invalid JSON" in err

    @pytest.mark.parametrize("flag,value,schedule", [
        ("--weights", "0.5,1", WeightSchedule.explicit([0.5, 1.0])),
        ("--dist", "0.25,0.75", WeightSchedule.distribution([0.25, 0.75])),
    ], ids=["weights", "dist"])
    def test_schedule_flags(self, capsys, toy_moments, tmp_path, flag, value, schedule):
        # path and pareto search under the schedule the flag gives.
        stats = stats_from_moments(TOY_GRAM, TOY_CROSS, TOY_TSM, ("height", "weight"))
        base = LinearModel.zeros(stats.feature_names)
        code, out, _ = run(capsys, "path", "exact", "--moments", toy_moments, "--K", "2",
                           "--endpoint", "free", flag, value)
        assert code == 0
        path = exact_path(stats, base, OptimizerConfig(K=2, schedule=schedule))
        assert f"[{schedule.describe()}]: {weighted_loss(stats, path, schedule):.4f}" in out
        code, _, _ = run(capsys, "pareto", "--moments", toy_moments, "--K", "2", flag, value,
                         "--out", str(tmp_path / "front"))
        assert code == 0
        report = sweep(stats, base, schedule, default_lambda_grid(), 2)
        text = (tmp_path / "front.json").read_text(encoding="utf-8")
        assert text == canonical_json(front_to_json(report))

    def test_free_endpoint(self, capsys, toy_moments):
        code, out, _ = run(
            capsys, "path", "exact", "--moments", toy_moments, "--K", "2", "--endpoint", "free"
        )
        assert code == 0
        assert "0.7802" in out

    def test_non_numeric_csv_exits_2(self, capsys, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("a,y\n1,2\nx,3\n", encoding="utf-8")
        code, _, err = run(capsys, "path", "greedy", "--input", str(f), "--target", "y", "--K", "1")
        assert code == 2
        assert "column 'a'" in err

    @pytest.mark.parametrize(
        "blob, source",
        [
            (b"a,caf\xe9,y\n1,2,3\n4,5,7\n", "--input"),
            (b"a,b,y\n" + b"1,2,3\n4,5,7\n" * 2000 + b"\xe9,5,7\n", "--input"),
            (b'{"gram": [[1.0]], "cross": [0.5], "tsm": 1.0, "names": ["caf\xe9"]}', "--moments"),
        ],
        ids=["csv_header", "csv_body", "moments"],
    )
    def test_non_utf8_input_exits_2(self, capsys, tmp_path, blob, source):
        f = tmp_path / "bad.dat"
        f.write_bytes(blob)
        code, _, err = run(capsys, "stats", source, str(f), "--target", "y")
        assert code == 2
        assert "not valid UTF-8" in err

    @pytest.mark.parametrize(
        "model, key",
        [
            ({"coefficients": "x"}, "'coefficients'"),
            ({"coefficients": [1.0, [2.0]]}, "'coefficients'"),
            ({"coefficients": 5}, "shape ()"),
            ({"coefficients": [1.0, 0.0], "features": 5}, "features 5"),
        ],
        ids=["string", "ragged", "scalar", "features_number"],
    )
    @pytest.mark.parametrize(
        "argv, flag",
        [(("explain", "--K", "2"), "--model"), (("path", "greedy", "--K", "1"), "--base")],
        ids=["explain", "base"],
    )
    def test_malformed_model_exits_2(self, capsys, toy_moments, tmp_path, model, key, argv,
                                     flag):
        f = tmp_path / "model.json"
        f.write_text(json.dumps(model), encoding="utf-8")
        code, _, err = run(capsys, *argv, "--moments", toy_moments, flag, str(f))
        assert code == 2
        assert key in err

    def test_unit_mode_defaults_to_free_endpoint(self, capsys, toy_moments):
        code, out, _ = run(
            capsys, "path", "exact", "--moments", toy_moments, "--K", "2",
            "--step-mode", "unit",
        )
        assert code == 0
        assert "beta_2" in out

    def test_warm_start_base(self, capsys, toy_moments, tmp_path):
        base = tmp_path / "base.json"
        base.write_text(
            json.dumps({"coefficients": [1.274, 0.0], "features": ["height", "weight"]}),
            encoding="utf-8",
        )
        code, out, _ = run(
            capsys, "path", "exact", "--moments", toy_moments, "--K", "2",
            "--base", str(base), "--gamma", "1",
        )
        assert code == 0
        assert out.splitlines()[1].split()[1] == "1.2740"  # base row carries the warm start
        assert out.strip().splitlines()[-2].split()[-1] == "0.2490"

    def test_budget_exceeded_exits_3(self, capsys, tmp_path):
        names = [f"x{i}" for i in range(10)]
        moments = {
            "gram": np.eye(10).tolist(),
            "cross": [0.1] * 10,
            "tsm": 1.0,
            "names": names,
        }
        f = tmp_path / "m.json"
        f.write_text(json.dumps(moments), encoding="utf-8")
        # 10**6000 has more digits than int-to-str converts by default.
        for argv in (["path", "exact", "--K", "8", "--endpoint", "free"],
                     ["path", "exact", "--K", "6000", "--endpoint", "free"],
                     ["explain", "--K", "6000"]):
            code, _, err = run(capsys, *argv, "--moments", str(f))
            assert code == 3
            assert "budget" in err


class TestExplain:
    def test_default_target_is_ols(self, capsys, toy_moments):
        code, out, _ = run(capsys, "explain", "--moments", toy_moments, "--K", "3", "--gamma", "1")
        assert code == 0
        loss = float(out.strip().splitlines()[-1].split()[-1])
        assert loss <= 1.28

    def test_explicit_target(self, capsys, toy_moments, tmp_path):
        model = tmp_path / "target.json"
        model.write_text(
            json.dumps({"coefficients": [1.274, 0.0], "features": ["height", "weight"]}),
            encoding="utf-8",
        )
        code, out, _ = run(
            capsys, "explain", "--moments", toy_moments, "--K", "2", "--model", str(model)
        )
        assert code == 0
        assert "1 steps" in out

    def test_target_equals_base(self, capsys, toy_moments, tmp_path):
        model = tmp_path / "zero.json"
        model.write_text(json.dumps({"coefficients": [0.0, 0.0]}), encoding="utf-8")
        code, out, _ = run(
            capsys, "explain", "--moments", toy_moments, "--K", "1", "--model", str(model)
        )
        assert code == 0
        assert "0 steps" in out

    def test_infeasible_k_exits_3(self, capsys, toy_moments):
        code, _, err = run(capsys, "explain", "--moments", toy_moments, "--K", "1")
        assert code == 3
        assert "complexity" in err

    def test_negative_k_exits_2(self, capsys, toy_moments):
        code, _, err = run(capsys, "explain", "--moments", toy_moments, "--K", "-1")
        assert code == 2
        assert "K_max must be >= 0" in err


class TestPareto:
    def test_histogram_and_artifacts(self, capsys, toy_moments, tmp_path):
        out_base = str(tmp_path / "front")
        code, out, _ = run(
            capsys, "pareto", "--moments", toy_moments, "--K", "3", "--gamma", "1",
            "--out", out_base,
        )
        assert code == 0
        for k in range(4):
            assert f"K={k}:" in out
        csv_text = (tmp_path / "front.csv").read_text(encoding="utf-8")
        assert csv_text.splitlines()[0] == "interp_loss,cost,K,lambda"
        payload = json.loads((tmp_path / "front.json").read_text(encoding="utf-8"))
        assert payload["metadata"]["K_max"] == 3

    def test_log_lambda_grid(self, capsys, toy_moments, tmp_path):
        code, _, _ = run(capsys, "pareto", "--moments", toy_moments, "--K", "2",
                         "--lambda-grid", "log:0.01:100:5", "--out", str(tmp_path / "front"))
        assert code == 0
        payload = json.loads((tmp_path / "front.json").read_text(encoding="utf-8"))
        assert payload["metadata"]["lambda_grid"] == np.logspace(-2, 2, 5).tolist()

    def test_out_suffix_is_stripped(self, capsys, toy_moments, tmp_path):
        code, out, _ = run(capsys, "pareto", "--moments", toy_moments, "--K", "2",
                           "--out", str(tmp_path / "front.csv"))
        assert code == 0
        written = sorted(f.name for f in tmp_path.iterdir())
        assert written == ["front.csv", "front.json", "toy.json"]
        assert f"front written to {tmp_path / 'front.csv'} and {tmp_path / 'front.json'}" in out

    def test_single_lambda_zero(self, capsys, toy_moments):
        code, out, _ = run(
            capsys, "pareto", "--moments", toy_moments, "--K", "2", "--lambda-grid", "0",
        )
        assert code == 0
        assert "front points: 1" in out
        assert "cost=0.2490" in out

    def test_verify_round_trip(self, capsys, toy_moments, tmp_path):
        out_base = str(tmp_path / "front")
        run(capsys, "pareto", "--moments", toy_moments, "--K", "3", "--out", out_base)
        code, out, _ = run(capsys, "verify", "--input", str(tmp_path / "front.csv"))
        assert code == 0 and "OK" in out
        code, out, _ = run(capsys, "verify", "--input", str(tmp_path / "front.json"))
        assert code == 0 and "OK" in out

    def test_verify_catches_corruption(self, capsys, toy_moments, tmp_path):
        out_base = str(tmp_path / "front")
        run(capsys, "pareto", "--moments", toy_moments, "--K", "3", "--out", out_base)
        f = tmp_path / "front.csv"
        lines = f.read_text(encoding="utf-8").splitlines()
        # Append a point that dominates an existing one.
        first = lines[1].split(",")
        lines.append(f"{float(first[0]) - 0.1!r},{float(first[1]) - 0.1!r},1,0.5")
        f.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, _, err = run(capsys, "verify", "--input", str(f))
        assert code == 1
        assert "dominated" in err

    @pytest.mark.parametrize("argv", [
        ("pareto", "--K", "2", "--q", "0"),
        ("pareto", "--K", "2", "--q", "-4"),
        ("path", "local", "--K", "2", "--q", "0"),
        ("expected-cost", "--dist", "0.5,0.5", "--q", "0"),
    ])
    def test_nonpositive_q_exits_2(self, capsys, toy_moments, argv):
        code, _, err = run(capsys, *argv, "--moments", toy_moments)
        assert code == 2
        assert "q must be >= 1" in err

    @pytest.mark.parametrize("argv", [
        ("path", "local", "--K", "2", "--seed", "-1"),
        ("pareto", "--K", "2", "--solver", "local", "--seed", "-3"),
        ("path", "exact", "--K", "2", "--seed", "-1"),
    ])
    def test_negative_seed_exits_2(self, capsys, toy_moments, argv):
        code, _, err = run(capsys, *argv, "--moments", toy_moments)
        assert code == 2
        assert "seed must be >= 0" in err

    @pytest.mark.parametrize("argv,message", [
        (("pareto", "--K", "2", "--lambda-grid", "log:1e-3:inf:5"), "finite LO, HI > 0"),
        (("pareto", "--K", "2", "--lambda-grid", "log:nan:1:5"), "finite LO, HI > 0"),
        (("pareto", "--K", "2", "--lambda-grid", "0.5,nan"), "lambda grid values must be finite"),
        (("pareto", "--K", "2", "--lambda-grid", "inf"), "lambda grid values must be finite"),
        (("explain", "--K", "2", "--gamma", "1e300"), "step weights must be finite"),
        (("path", "exact", "--K", "2", "--gamma", "1e300"), "step weights must be finite"),
        (("pareto", "--K", "2", "--gamma", "1e300"), "step weights must be finite"),
    ])
    def test_non_finite_weights_exit_2_without_warnings(self, capsys, toy_moments, argv,
                                                         message):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run(capsys, *argv, "--moments", toy_moments)
        assert code == 2
        assert message in err
        assert "Warning" not in err and not caught, [str(w.message) for w in caught]


@pytest.mark.parametrize("argv,message", [
    (("stats", "--input", "{csv}"), "--target is required with --input"),
    (("path", "exact", "--K", "2", "--moments", "{moments}", "--gamma", "1", "--weights", "1,1"),
     "give at most one of --gamma/--weights/--dist"),
    (("path", "exact", "--K", "2", "--moments", "{moments}", "--weights", "1,x"),
     "--weights: expected comma-separated numbers"),
    (("pareto", "--K", "2", "--moments", "{moments}", "--lambda-grid", "log:1:2"),
     "log form is log:LO:HI:N"),
    (("pareto", "--K", "2", "--moments", "{moments}", "--lambda-grid", "log:1:2:3.5"),
     "cannot parse 'log:1:2:3.5'"),
    (("stats", "--moments", "{missing}"), "cannot read"),
    (("verify", "--input", "{missing}"), "cannot read"),
], ids=["input_without_target", "two_schedules", "non_numeric_weights", "log_grid_parts",
        "log_grid_count", "unreadable_moments", "unreadable_verify_input"])
def test_bad_arguments_exit_2(capsys, toy_moments, toy_csv, tmp_path, argv, message):
    paths = {"csv": toy_csv, "moments": toy_moments, "missing": str(tmp_path / "missing.json")}
    code, _, err = run(capsys, *(a.format(**paths) for a in argv))
    assert code == 2
    assert message in err


class TestUnwritableOut:
    """--out in a missing directory or at a directory exits 2, as bad input."""

    @pytest.mark.parametrize("argv", [
        ("path", "exact", "--K", "2"), ("stats",), ("pareto", "--K", "2"),
    ], ids=["path-exact", "stats", "pareto"])
    @pytest.mark.parametrize("where", ["missing-dir", "directory"])
    def test_exits_2(self, capsys, toy_moments, tmp_path, argv, where):
        out = tmp_path / "missing" / "a.json" if where == "missing-dir" else tmp_path
        if argv[0] == "pareto" and where == "directory":
            (tmp_path / "front.csv").mkdir()  # pareto writes out's .csv and .json siblings
            out = tmp_path / "front"
        code, _, err = run(capsys, *argv, "--moments", toy_moments, "--out", str(out))
        assert code == 2
        assert err.startswith("error: cannot write ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ("path", "exact", "--K", "2"), ("path", "local", "--K", "2"), ("explain", "--K", "2"),
        ("pareto", "--K", "2"), ("expected-cost", "--dist", "0.5,0.5"), ("stats",),
    ], ids=["path-exact", "path-local", "explain", "pareto", "expected-cost", "stats"])
    def test_checked_before_the_search(self, capsys, toy_moments, tmp_path, monkeypatch, argv):
        # An unwritable --out exits 2 before any search runs or any table prints.
        def searched(*args, **kwargs):
            raise AssertionError("the search ran")

        for name in ("exact_path", "local_improvement", "best_explanation", "sweep",
                     "expected_cost_path", "ols"):
            monkeypatch.setattr(cli, name, searched)
        code, out, err = run(capsys, *argv, "--moments", toy_moments,
                             "--out", str(tmp_path / "missing" / "a.json"))
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot write {tmp_path / 'missing' / 'a.'}")
        assert err.endswith(f": {tmp_path / 'missing'} is not a writable directory\n")

    @pytest.mark.parametrize("twin", [".json", ".csv"])
    def test_pareto_writes_both_files_or_neither(self, capsys, toy_moments, tmp_path, twin):
        # With one of the front's two files unwritable, the other is not written.
        (tmp_path / f"front{twin}").mkdir()
        code, out, err = run(capsys, "pareto", "--moments", toy_moments, "--K", "2",
                             "--out", str(tmp_path / "front"))
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot write {tmp_path / f'front{twin}'}: is a directory")
        assert sorted(f.name for f in tmp_path.iterdir()) == [f"front{twin}", "toy.json"]


class TestFormatting:
    def test_precision_flag(self, capsys, toy_moments):
        code, out, _ = run(
            capsys, "stats", "--moments", toy_moments, "--precision", "2"
        )
        assert code == 0
        assert "2.04" in out and "2.0400" not in out

    @pytest.mark.parametrize("argv", [
        ("stats",), ("path", "exact", "--K", "2"), ("explain", "--K", "2"),
    ])
    def test_negative_precision_exits_2(self, capsys, toy_moments, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--moments", toy_moments, "--precision", "-1"])
        assert exc.value.code == 2
        assert "--precision: must be >= 0" in capsys.readouterr().err

    def test_front_json_is_canonical(self, capsys, toy_moments, tmp_path):
        out_base = str(tmp_path / "front")
        run(capsys, "pareto", "--moments", toy_moments, "--K", "2", "--out", out_base)
        text = (tmp_path / "front.json").read_text(encoding="utf-8")
        assert json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n" == text

    def test_moments_without_names(self, capsys, tmp_path):
        f = tmp_path / "m.json"
        f.write_text(json.dumps({"gram": [[1.0]], "cross": [0.5], "tsm": 1.0}), encoding="utf-8")
        code, out, _ = run(capsys, "stats", "--moments", str(f))
        assert code == 0
        assert "x1" in out


class TestExpectedCost:
    def test_uniform_two(self, capsys, toy_moments):
        code, out, _ = run(
            capsys, "expected-cost", "--moments", toy_moments, "--dist", "0.5,0.5"
        )
        assert code == 0
        expected = float(out.strip().splitlines()[-1].split()[-1])
        assert expected <= (0.42 + 0.39) / 2

    def test_bad_distribution_exits_2(self, capsys, toy_moments):
        code, _, err = run(
            capsys, "expected-cost", "--moments", toy_moments, "--dist", "0.5,0.2"
        )
        assert code == 2
        assert "sum to 1" in err


class TestVerifyPathArtifact:
    def test_path_json_ok(self, capsys, toy_moments, tmp_path):
        out_file = tmp_path / "p.json"
        run(capsys, "path", "exact", "--moments", toy_moments, "--K", "2", "--out", str(out_file))
        code, out, _ = run(capsys, "verify", "--input", str(out_file))
        assert code == 0 and "OK" in out

    @pytest.mark.parametrize(
        "name, text, where",
        [
            ("f.json", '{"points": [{"cost": 1.0}]}', "point 1"),
            ("f.json", '{"points": [5]}', "point 1"),
            ("f.json", '{"points": {"cost": 1.0}}', "'points'"),
            ("f.json", '{"points": [{"interp_loss": 0.0, "cost": 1.0}, '
                       '{"interp_loss": 0.5, "cost": "low"}]}', "point 2"),
            ("f.json", '{"points": [{"interp_loss": null, "cost": 1.0}]}', "point 1"),
            ("f.csv", "interp_loss,cost,K,lambda\n0.0,1.0,0,1\nx,0.5,1,0.5\n", "point 2"),
            ("f.json", '{"base": [0.0], "steps": 3}', "'steps'"),
            ("f.csv", "interp_loss,cost,K,lambda\n0.0,1.0,0\n", "malformed row '0.0,1.0,0'"),
            ("f.json", '{"nodes": []}', "unrecognized artifact"),
            ("f.csv", "0.0,1.0,0,1\n", "expected header"),
        ],
        ids=["missing_key", "not_an_object", "points_not_a_list", "non_numeric_cost",
             "null_loss", "csv_non_numeric_loss", "steps_not_a_list", "csv_wrong_cell_count",
             "unrecognized", "csv_without_header"],
    )
    def test_malformed_artifact_exits_2(self, capsys, tmp_path, name, text, where):
        f = tmp_path / name
        f.write_text(text, encoding="utf-8")
        code, _, err = run(capsys, "verify", "--input", str(f))
        assert code == 2
        assert where in err

    def test_malformed_step_fails(self, capsys, tmp_path):
        f = tmp_path / "p.json"
        f.write_text(canonical_json({"base": [0.0], "steps": [{"feature": "x1"}]}),
                     encoding="utf-8")
        code, _, err = run(capsys, "verify", "--input", str(f))
        assert code == 1
        assert "FAIL: step 1 is malformed" in err and "canonical" not in err

    def test_non_canonical_rejected(self, capsys, tmp_path):
        f = tmp_path / "p.json"
        f.write_text('{"steps": [], "base": [0.0]}', encoding="utf-8")
        code, _, err = run(capsys, "verify", "--input", str(f))
        assert code == 1
        assert "canonical" in err


def written_artifacts(capsys, toy_moments, tmp_path):
    """A front CSV, a front JSON and a path JSON, as the CLI writes them."""
    run(capsys, "pareto", "--moments", toy_moments, "--K", "3", "--out", str(tmp_path / "front"))
    run(capsys, "path", "exact", "--moments", toy_moments, "--K", "2",
        "--out", str(tmp_path / "p.json"))
    return tmp_path / "front.csv", tmp_path / "front.json", tmp_path / "p.json"


class TestVerifyRejectsUncheckableValues:
    """A value verify cannot compare (NaN, inf, a bad K or lambda, a
    non-numeric step) is a named FAIL, exit 1."""

    @pytest.mark.parametrize("argv", [
        ("pareto", "--K", "2", "--lambda-grid", "0"), ("pareto", "--K", "2", "--solver", "local"),
        ("path", "local", "--K", "2"), ("path", "exact", "--K", "3", "--endpoint", "free"),
        ("explain", "--K", "3"), ("expected-cost", "--dist", "0.5,0.5"),
    ], ids=["pareto-lambda-0", "pareto-local", "path-local", "path-free", "explain",
            "expected-cost"])
    def test_cli_artifacts_verify(self, capsys, toy_moments, tmp_path, argv):
        out = tmp_path / ("front" if argv[0] == "pareto" else "p.json")
        assert run(capsys, *argv, "--moments", toy_moments, "--out", str(out))[0] == 0
        for f in ([out.with_suffix(".csv"), out.with_suffix(".json")] if argv[0] == "pareto"
                  else [out]):
            code, stdout, err = run(capsys, "verify", "--input", str(f))
            assert code == 0 and "OK" in stdout, err

    @pytest.mark.parametrize("cell,value,where", [
        (0, "nan", "interp_loss 'nan'"), (1, "inf", "cost 'inf'"),
        (0, "-inf", "interp_loss '-inf'"), (2, "-1", "K '-1'"), (2, "1.5", "K '1.5'"),
        (3, "nan", "lambda 'nan'"), (3, "-0.5", "lambda '-0.5'"), (3, "x", "lambda 'x'"),
    ], ids=["nan-loss", "inf-cost", "minus-inf-loss", "negative-K", "fractional-K",
            "nan-lambda", "negative-lambda", "text-lambda"])
    def test_front_csv(self, capsys, toy_moments, tmp_path, cell, value, where):
        f, _, _ = written_artifacts(capsys, toy_moments, tmp_path)
        lines = f.read_text(encoding="utf-8").splitlines()
        cells = lines[2].split(",")
        cells[cell] = value
        lines[2] = ",".join(cells)
        f.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, _, err = run(capsys, "verify", "--input", str(f))
        assert code == 1
        (named,) = [line for line in err.splitlines() if line.startswith("FAIL: point 2: ")]
        assert where in named

    @pytest.mark.parametrize("key,value,where", [
        ("interp_loss", math.nan, "interp_loss nan"), ("cost", math.inf, "cost inf"),
        ("K", -1, "K -1"), ("K", 1.0, "K 1.0"), ("K", True, "K True"), ("K", None, "K None"),
        ("lambda", math.nan, "lambda nan"), ("lambda", -1.0, "lambda -1.0"),
        ("lambda", math.inf, "lambda inf"),
    ], ids=["nan-loss", "inf-cost", "negative-K", "float-K", "bool-K", "missing-K",
            "nan-lambda", "negative-lambda", "inf-lambda"])
    def test_front_json(self, capsys, toy_moments, tmp_path, key, value, where):
        _, f, _ = written_artifacts(capsys, toy_moments, tmp_path)
        payload = json.loads(f.read_text(encoding="utf-8"))
        if value is None:
            del payload["points"][1][key]
        else:
            payload["points"][1][key] = value
        f.write_text(canonical_json(payload), encoding="utf-8")
        code, _, err = run(capsys, "verify", "--input", str(f))
        assert code == 1
        (named,) = [line for line in err.splitlines() if line.startswith("FAIL: point 2: ")]
        assert where in named

    @pytest.mark.parametrize("value,where", [
        (math.nan, "value nan"), (math.inf, "value inf"), ("abc", "value 'abc'"),
        ([0.5], "value [0.5]"),
    ], ids=["nan", "inf", "text", "list"])
    def test_path_step(self, capsys, toy_moments, tmp_path, value, where):
        _, _, f = written_artifacts(capsys, toy_moments, tmp_path)
        payload = json.loads(f.read_text(encoding="utf-8"))
        payload["steps"][1]["value"] = value
        f.write_text(canonical_json(payload), encoding="utf-8")  # still canonical
        code, _, err = run(capsys, "verify", "--input", str(f))
        assert code == 1
        assert f"FAIL: step 2: {where} is not a finite number" in err
        assert "canonical" not in err


class TestVerifyRejectsContradictions:
    """A path JSON whose base or a step's feature is malformed, and a front
    JSON point whose stored path is malformed or disagrees with its model
    or K, is a named FAIL, exit 1."""

    @pytest.mark.parametrize("value,where", [
        ("abc", "base 'abc' is not a list of finite numbers"),
        ([math.nan] * 2, "base [nan, nan] is not a list of finite numbers"),
        (3, "step 2: feature 3 is not a string"),
    ], ids=["text-base", "nan-base", "number-feature"])
    def test_path(self, capsys, toy_moments, tmp_path, value, where):
        _, _, f = written_artifacts(capsys, toy_moments, tmp_path)
        payload = json.loads(f.read_text(encoding="utf-8"))
        if where.startswith("base"):
            payload["base"] = value
        else:
            payload["steps"][1]["feature"] = value
        f.write_text(canonical_json(payload), encoding="utf-8")  # still canonical
        code, _, err = run(capsys, "verify", "--input", str(f))
        assert code == 1 and err == f"FAIL: {where}\n"

    @pytest.mark.parametrize("key,value,where", [
        ("K", 2, ["K 2 is not its path's step count 1"]),
        ("path", None, ["path None is not an object with 'base' and 'steps'"]),
        ("path", {"base": "abc", "steps": 7}, ["path base 'abc' is not a list of finite numbers",
                                               "path steps 7 is not a list"]),
        ("model", "x", ["model 'x' is not a list of finite numbers, one per coefficient of "
                        "its path's base"]),
        ("model", [1.0], ["model [1.0] is not a list of finite numbers, one per coefficient "
                          "of its path's base"]),
    ], ids=["K-off-by-one", "missing-path", "malformed-path", "text-model", "short-model"])
    def test_front_json(self, capsys, toy_moments, tmp_path, key, value, where):
        _, f, _ = written_artifacts(capsys, toy_moments, tmp_path)
        payload = json.loads(f.read_text(encoding="utf-8"))
        assert payload["points"][1]["K"] == 1
        if value is None:
            del payload["points"][1][key]
        else:
            payload["points"][1][key] = value
        f.write_text(canonical_json(payload), encoding="utf-8")
        code, _, err = run(capsys, "verify", "--input", str(f))
        assert code == 1 and err.splitlines() == [f"FAIL: point 2: {w}" for w in where]


class TestByteOrderMark:
    """JSON inputs load with or without a leading UTF-8 byte-order mark."""

    @pytest.mark.parametrize("flag", ["--moments", "--model", "--base", "--endpoint"])
    def test_json_input(self, capsys, toy_moments, tmp_path, flag):
        model = json.dumps({"coefficients": [1.274, 0.0], "features": ["height", "weight"]})
        plain, marked = tmp_path / "plain.json", tmp_path / "marked.json"
        if flag == "--moments":
            text = open(toy_moments, encoding="utf-8").read()
            argv = ("path", "exact", "--K", "2")
        else:
            text = model
            argv = {"--model": ("explain", "--moments", toy_moments, "--K", "2"),
                    "--base": ("path", "exact", "--moments", toy_moments, "--K", "2"),
                    "--endpoint": ("path", "exact", "--moments", toy_moments, "--K", "1")}[flag]
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
        expected = run(capsys, *argv, flag, str(plain))
        assert expected[0] == 0, expected[2]
        assert run(capsys, *argv, flag, str(marked)) == expected

    def test_verify_reads_bytes_as_written(self, capsys, toy_moments, tmp_path):
        # verify compares a path JSON's bytes with its canonical form, so a
        # marked one parses but fails.
        _, _, f = written_artifacts(capsys, toy_moments, tmp_path)
        f.write_text(f.read_text(encoding="utf-8"), encoding="utf-8-sig")
        code, _, err = run(capsys, "verify", "--input", str(f))
        assert code == 1 and err == "FAIL: file is not in canonical form (round-trip differs)\n"
