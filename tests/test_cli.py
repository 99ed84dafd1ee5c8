import json

import numpy as np
import pytest

from pathlens.cli import main
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
        ],
        ids=["gram_string", "gram_ragged", "cross_object", "tsm_string", "tsm_list",
             "names_number"],
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
        code, _, err = run(
            capsys, "path", "exact", "--moments", str(f), "--K", "8", "--endpoint", "free"
        )
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

    def test_threads_env_var(self, capsys, toy_moments, monkeypatch):
        argv = ["pareto", "--moments", toy_moments, "--K", "2"]
        code1, out1, _ = run(capsys, *argv)
        monkeypatch.setenv("PATHLENS_THREADS", "3")
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_bad_threads_env_var_exits_2(self, capsys, toy_moments, monkeypatch):
        monkeypatch.setenv("PATHLENS_THREADS", "two")
        code, _, err = run(capsys, "pareto", "--moments", toy_moments, "--K", "2")
        assert code == 2
        assert "PATHLENS_THREADS" in err


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
        ],
        ids=["missing_key", "not_an_object", "points_not_a_list", "non_numeric_cost",
             "null_loss", "csv_non_numeric_loss", "steps_not_a_list"],
    )
    def test_malformed_artifact_exits_2(self, capsys, tmp_path, name, text, where):
        f = tmp_path / name
        f.write_text(text, encoding="utf-8")
        code, _, err = run(capsys, "verify", "--input", str(f))
        assert code == 2
        assert where in err

    def test_non_canonical_rejected(self, capsys, tmp_path):
        f = tmp_path / "p.json"
        f.write_text('{"steps": [], "base": [0.0]}', encoding="utf-8")
        code, _, err = run(capsys, "verify", "--input", str(f))
        assert code == 1
        assert "canonical" in err
