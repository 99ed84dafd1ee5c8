import os
import threading
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from pathlens import (
    Dataset,
    InputError,
    LinearModel,
    compute_stats,
    cost,
    load_csv,
    ols,
    standardize,
    stats_from_moments,
)
from pathlens import regression
from conftest import TOY_OLS, random_dataset, random_stats
from oracles import rowwise_load_csv


def write(tmp_path, text, name="data.csv"):
    f = tmp_path / name
    f.write_text(text, encoding="utf-8")
    return f


class TestLoadCsv:
    def test_basic(self, tmp_path):
        ds = load_csv(write(tmp_path, "a,b,y\n1,2,3\n4,5,6\n7,8,9\n"), "y")
        assert ds.n == 3 and ds.d == 2
        assert ds.feature_names == ("a", "b")
        assert np.array_equal(ds.target, [3, 6, 9])
        assert np.array_equal(ds.features[:, 0], [1, 4, 7])

    def test_non_numeric_cell_names_location(self, tmp_path):
        f = write(tmp_path, "a,b,y\n1,2,3\n4,oops,6\n")
        with pytest.raises(InputError, match=r"row 3.*column 'b'.*oops"):
            load_csv(f, "y")

    def test_duplicate_headers(self, tmp_path):
        with pytest.raises(InputError, match="duplicate"):
            load_csv(write(tmp_path, "a,a,y\n1,2,3\n"), "y")

    def test_missing_target(self, tmp_path):
        with pytest.raises(InputError, match="'z' not found"):
            load_csv(write(tmp_path, "a,b,y\n1,2,3\n"), "z")

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError, match="cannot open"):
            load_csv(tmp_path / "absent.csv", "y")

    def test_empty_file(self, tmp_path):
        with pytest.raises(InputError, match="empty"):
            load_csv(write(tmp_path, ""), "y")

    def test_no_data_rows(self, tmp_path):
        with pytest.raises(InputError, match="no data rows"):
            load_csv(write(tmp_path, "a,b,y\n"), "y")

    def test_non_finite(self, tmp_path):
        with pytest.raises(InputError, match="non-finite"):
            load_csv(write(tmp_path, "a,y\ninf,1\n"), "y")

    def test_ragged_row(self, tmp_path):
        with pytest.raises(InputError, match="row 2"):
            load_csv(write(tmp_path, "a,b,y\n1,2\n"), "y")


def load_outcome(loader, path):
    """A loader's result as comparable bytes, or its exception's type and message."""
    try:
        ds = loader(path, "y")
    except Exception as exc:
        return type(exc), str(exc)
    return ds.features.shape, ds.features.tobytes(), ds.target.tobytes(), ds.feature_names


def assert_matches_rowwise(path):
    """load_csv equals the row-loop oracle bitwise, or fails with its message."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = load_outcome(load_csv, path)
        want = load_outcome(rowwise_load_csv, path)
    assert got == want


# Each case is decided either by numpy's one-call parse or by the row loop;
# both must give the oracle's outcome.
ROWWISE_CASES = {
    "crlf": "a,b,y\r\n1,2,3\r\n4,5,6\r\n",
    "cr_only": "a,y\r1,2\r3,4\r",
    "no_final_newline": "a,y\n1,2\n3,4",
    "blank_lines": "a,y\n\n1,2\n\n3,4\n\n",
    "whitespace_lines": "a,y\n1,2\n  \n\t\n3,4\n",
    "row_number_after_blank_lines": "a,y\n1,2\n\n  \n3,x\n",
    "quoted_cells": 'a,y\n"1","2"\n"-0.5",3\n',
    "padded_cells": "a,y\n 1 ,\t2\n3  , 4\n",
    "unit_separator_padding": "a,y\n1,2\n3\x1f,4\n",
    "record_separator_padding": "a,y\n1,\x1e2\n",
    "space_before_quote": 'a,y\n "1",2\n',
    "signs_and_extremes": "a,y\n+.5,-0\n1.5e-400,0.1\n",
    "underscore": "a,y\n1_0,2\n3,4\n",
    "arabic_indic_digit": "a,y\n\u0661,2\n3,4\n",
    "inf": "a,y\n1,2\ninf,4\n",
    "nan": "a,y\n1,2\n3,nan\n",
    "overflow": "a,y\n1,2\n1e400,4\n",
    "ragged_row": "a,b,y\n1,2,3\n4,5\n",
    "every_row_one_wider": "a,y\n1,2,3\n4,5,6\n",
    "single_row": "a,y\n1,2\n",
    "header_only": "a,y\n",
    "header_only_no_newline": "a,y",
    "comment_line": "a,y\n# note\n1,2\n",
    "quoted_header_two_lines": '"a\nb",y\n1,2\n3,4\n',
    "quoted_header_two_lines_bad_cell": '"a\nb",y\n1,2\n3,x\n',
    "target_only": "y\n1\n2\n",
}


@pytest.mark.parametrize("text", ROWWISE_CASES.values(), ids=ROWWISE_CASES.keys())
def test_load_csv_matches_rowwise_oracle(tmp_path, text):
    f = tmp_path / "data.csv"
    f.write_bytes(text.encode("utf-8"))
    assert_matches_rowwise(f)


CELLS = ["1", "-2.5", "+.5", "-0", "1e400", "1.5e-400", "3.25e-7", " 4 ", "\t5", '"6"',
         '"7" ', '"8"9', "1_0", "\u0661", "nan", "inf", "", " ", "#3", "x", '"1,2"',
         '"1\n2"', '1"2', '" 1"', "\xa01", "\x1c1", "2\x1f", "0x10", "1.", ".", "1E-3"]


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    ncols=st.integers(1, 3),
    rows=st.lists(
        st.one_of(
            st.lists(st.sampled_from(CELLS), min_size=1, max_size=4).map(",".join),
            st.sampled_from(["", " ", " \t"]),
        ),
        max_size=6,
    ),
    eol=st.sampled_from(["\n", "\r\n", "\r"]),
    final_eol=st.booleans(),
)
def test_load_csv_matches_rowwise_property(tmp_path, ncols, rows, eol, final_eol):
    header = ",".join([f"x{i}" for i in range(ncols - 1)] + ["y"])
    f = tmp_path / "data.csv"
    f.write_bytes((eol.join([header, *rows]) + (eol if final_eol else "")).encode("utf-8"))
    assert_matches_rowwise(f)


@pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
def test_plain_text_with_compressed_suffix(tmp_path, suffix):
    f = tmp_path / f"data.csv{suffix}"
    f.write_text("a,y\n1,2\n3,4\n", encoding="utf-8")
    assert_matches_rowwise(f)
    assert np.array_equal(load_csv(f, "y").features, [[1], [3]])


def load_from_fifo(loader, path, text):
    """A loader's outcome on a named pipe that a writer thread feeds text.

    Once the text is written, the writer keeps opening the pipe without
    blocking, so a loader that opens it a second time finds it empty
    instead of waiting for a writer for ever.
    """
    os.mkfifo(path)
    done = threading.Event()

    def feed():
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        while not done.wait(0.01):
            try:
                os.close(os.open(path, os.O_WRONLY | os.O_NONBLOCK))
            except OSError:  # no reader is waiting
                pass

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        return load_outcome(loader, path)
    finally:
        done.set()
        writer.join(timeout=10)
        os.unlink(path)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_pipe_is_read_to_the_end(tmp_path):
    rows = 2000  # ~20 KB, more than one read buffer
    text = "a,b,y\n" + "".join(f"{i},{i / 7!r},{-i}\n" for i in range(rows))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = load_from_fifo(load_csv, tmp_path / "pipe", text)
        want = load_from_fifo(rowwise_load_csv, tmp_path / "pipe", text)
    assert got == want
    assert got[0] == (rows, 2)


def test_clean_body_skips_row_loop(tmp_path, monkeypatch):
    def row_loop(*args):
        raise AssertionError("row loop ran on a clean body")

    monkeypatch.setattr(regression, "_parse_rows", row_loop)
    ds = load_csv(write(tmp_path, 'a,b,y\r\n"1", 2 ,3\r\n\r\n4,5,6\r\n'), "y")
    assert np.array_equal(ds.features, [[1, 2], [4, 5]])
    ds = load_csv(write(tmp_path, '"a\nb",y\n1,2\n'), "y")
    assert ds.feature_names == ("a\nb",) and np.array_equal(ds.features, [[1]])


@pytest.mark.parametrize("body,row_loop", [("1.5,-2,3\n4,5e-3,6\n", False),
                                           ("1.5,-2,3\n1_0,5e-3,6\n", True)],
                         ids=["c-parse", "row-loop"])
def test_byte_order_mark_is_dropped(tmp_path, monkeypatch, body, row_loop):
    # Spreadsheets' "CSV UTF-8" exports start with a byte-order mark. It must
    # not join the first column's name, whichever parse reads the body.
    calls = []
    parse_rows = regression._parse_rows
    monkeypatch.setattr(regression, "_parse_rows", lambda *a: calls.append(a) or parse_rows(*a))
    text = "x1,x2,y\n" + body
    plain, marked = (write(tmp_path, prefix + text, name)
                     for prefix, name in [("", "plain.csv"), ("\ufeff", "bom.csv")])
    assert marked.read_bytes()[:3] == b"\xef\xbb\xbf"
    for target in ("y", "x1"):
        want, got = load_csv(plain, target), load_csv(marked, target)
        assert got.feature_names == want.feature_names
        assert got.features.tobytes() == want.features.tobytes()
        assert got.target.tobytes() == want.target.tobytes()
    assert len(calls) == (4 if row_loop else 0)


class TestStandardize:
    def test_unit_moments(self, tmp_path):
        ds = load_csv(write(tmp_path, "a,y\n1,2\n2,4\n3,9\n"), "y")
        out, _ = standardize(ds)
        assert abs(out.features[:, 0].mean()) < 1e-12
        assert abs(out.features[:, 0].std() - 1) < 1e-12
        assert abs(out.target.mean()) < 1e-12
        assert abs(out.target.std() - 1) < 1e-12

    def test_constant_column(self, tmp_path):
        ds = load_csv(write(tmp_path, "a,b,y\n5,1,2\n5,2,4\n5,3,6\n"), "y")
        with pytest.raises(InputError, match="'a' has zero variance"):
            standardize(ds)

    def test_constant_target(self, tmp_path):
        ds = load_csv(write(tmp_path, "a,y\n1,7\n2,7\n3,7\n"), "y")
        with pytest.raises(InputError, match="target"):
            standardize(ds)

    def test_round_trip_matches_raw_ols(self):
        # Oracle: least squares with an intercept on the raw data.
        X, y = random_dataset(11, n=40, d=3)
        ds = Dataset(X, y, ("a", "b", "c"))
        std_ds, scaling = standardize(ds)
        fit = ols(compute_stats(std_ds))
        beta, intercept = scaling.original_coefficients(fit)
        design = np.column_stack([np.ones(len(y)), X])
        ref, *_ = np.linalg.lstsq(design, y, rcond=None)
        assert abs(intercept - ref[0]) <= 1e-9
        assert np.max(np.abs(beta - ref[1:])) <= 1e-9


class TestComputeStats:
    def test_hand_example(self):
        ds = Dataset(np.eye(2), np.array([1.0, 1.0]), ("a", "b"))
        stats = compute_stats(ds)
        assert np.allclose(stats.gram, [[0.5, 0.0], [0.0, 0.5]])
        assert np.allclose(stats.cross, [0.5, 0.5])
        assert stats.target_second_moment == 1.0

    def test_cost_matches_residuals(self):
        # Oracle: mean squared residual on the raw data.
        X, y = random_dataset(3, n=20, d=4)
        ds = Dataset(X, y, tuple("abcd"))
        stats = compute_stats(ds)
        rng = np.random.default_rng(0)
        for _ in range(20):
            beta = rng.standard_normal(4)
            direct = float(np.mean((X @ beta - y) ** 2))
            via_stats = cost(stats, LinearModel(beta, ds.feature_names))
            assert abs(direct - via_stats) <= 1e-9 * max(1.0, direct)

    def test_many_random_datasets(self):
        for seed in range(50):
            X, y = random_dataset(seed, n=25, d=3)
            stats = compute_stats(Dataset(X, y, ("a", "b", "c")))
            beta = np.random.default_rng(seed).standard_normal(3)
            direct = float(np.mean((X @ beta - y) ** 2))
            via = cost(stats, LinearModel(beta, ("a", "b", "c")))
            assert abs(direct - via) <= 1e-9 * max(1.0, direct)


class TestStatsFromMoments:
    def test_toy(self, toy_stats):
        assert toy_stats.d == 2
        assert toy_stats.feature_names == ("height", "weight")

    def test_identity(self):
        stats = stats_from_moments(np.eye(2), np.zeros(2), 1.0)
        assert cost(stats, LinearModel.zeros(stats.feature_names)) == 1.0

    def test_indefinite_gram(self):
        with pytest.raises(InputError, match="positive semidefinite"):
            stats_from_moments([[1, 2], [2, 1]], [0, 0], 1.0)

    def test_asymmetric_gram(self):
        with pytest.raises(InputError, match="symmetric"):
            stats_from_moments([[1, 0.5], [0.2, 1]], [0, 0], 1.0)

    def test_unrealizable_moments(self):
        # tsm too small for the cross moments: some model would get mse < 0.
        with pytest.raises(InputError, match="realizable"):
            stats_from_moments(np.eye(2), [1.0, 1.0], 0.5)


class TestCost:
    def test_toy_values(self, toy_stats):
        names = toy_stats.feature_names
        assert cost(toy_stats, LinearModel(TOY_OLS, names)) == pytest.approx(0.25, abs=0.005)
        assert cost(toy_stats, LinearModel(np.array([0.0, -0.94]), names)) == pytest.approx(
            4.74, abs=0.005
        )

    def test_zero_model_is_tsm(self, toy_stats, toy_zero):
        assert cost(toy_stats, toy_zero) == toy_stats.target_second_moment

    def test_dimension_mismatch(self, toy_stats):
        with pytest.raises(InputError, match="coefficients"):
            cost(toy_stats, LinearModel(np.zeros(3), ("a", "b", "c")))

    def test_ols_is_global_minimum(self):
        stats = random_stats(5)
        fit = ols(stats)
        best = cost(stats, fit)
        rng = np.random.default_rng(7)
        for _ in range(100):
            beta = rng.standard_normal(stats.d) * 3
            assert best <= cost(stats, LinearModel(beta, stats.feature_names)) + 1e-12

    @given(st.integers(0, 10_000), st.floats(0, 1))
    def test_convexity(self, seed, t):
        stats = random_stats(2)
        rng = np.random.default_rng(seed)
        b1 = rng.standard_normal(stats.d) * 2
        b2 = rng.standard_normal(stats.d) * 2
        names = stats.feature_names
        lhs = cost(stats, LinearModel(t * b1 + (1 - t) * b2, names))
        rhs = t * cost(stats, LinearModel(b1, names)) + (1 - t) * cost(
            stats, LinearModel(b2, names)
        )
        assert lhs <= rhs + 1e-9

    def test_gradient_matches_finite_differences(self):
        stats = random_stats(9, d=3)
        rng = np.random.default_rng(1)
        beta = rng.standard_normal(3)
        grad = 2 * stats.gram @ beta - 2 * stats.cross
        h = 1e-6
        for j in range(3):
            up, dn = beta.copy(), beta.copy()
            up[j] += h
            dn[j] -= h
            names = stats.feature_names
            fd = (cost(stats, LinearModel(up, names)) - cost(stats, LinearModel(dn, names))) / (
                2 * h
            )
            assert abs(fd - grad[j]) <= 1e-5 * max(1.0, abs(grad[j]))


def test_ridge_folds_into_gram(toy_stats):
    lam = 0.3
    ridged = toy_stats.with_ridge(lam)
    rng = np.random.default_rng(0)
    for _ in range(10):
        beta = rng.standard_normal(2)
        model = LinearModel(beta, toy_stats.feature_names)
        assert cost(ridged, model) == pytest.approx(
            cost(toy_stats, model) + lam * float(beta @ beta), abs=1e-12
        )
    assert toy_stats.with_ridge(0.0) is toy_stats
    with pytest.raises(InputError):
        toy_stats.with_ridge(-1.0)


class TestOls:
    def test_toy(self, toy_stats):
        fit = ols(toy_stats)
        assert np.all(np.abs(fit.coefficients - TOY_OLS) <= 0.005)

    def test_identity_gram(self):
        stats = stats_from_moments(np.eye(3), [0.3, -0.2, 0.1], 1.0)
        assert np.allclose(ols(stats).coefficients, [0.3, -0.2, 0.1])

    def test_duplicated_feature_minimum_norm(self):
        # Rank-1 gram from a duplicated feature: minimum-norm splits evenly.
        X = np.column_stack([np.linspace(-1, 1, 9)] * 2)
        y = 3.0 * X[:, 0]
        stats = compute_stats(Dataset(X, y, ("a", "b")))
        fit = ols(stats)
        ref = np.linalg.pinv(stats.gram) @ stats.cross
        assert np.allclose(fit.coefficients, ref, atol=1e-10)
        assert fit.coefficients[0] == pytest.approx(fit.coefficients[1], abs=1e-10)
        assert fit.coefficients[0] == pytest.approx(1.5, abs=1e-9)

    def test_gradient_norm_small(self):
        for seed in range(5):
            stats = random_stats(seed)
            fit = ols(stats)
            grad = 2 * stats.gram @ fit.coefficients - 2 * stats.cross
            assert np.linalg.norm(grad) <= 1e-8
