"""Dataset ingestion, sufficient statistics, and least-squares primitives.

Everything downstream works from second-moment summaries rather than raw
data: the mean-squared error of a coefficient vector beta is the quadratic

    mse(beta) = tsm - 2 beta'g + beta'G beta,

where G = X'X/n, g = X'y/n and tsm = y'y/n. Population conventions
(divide by n) are used throughout, and models are fit without an
intercept; callers are expected to standardize first.
"""

from __future__ import annotations

import csv
import math
import os
import stat
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InputError, not_utf8

# Relative tolerance for accepting slightly negative eigenvalues / costs
# caused by floating-point roundoff.
PSD_RTOL = 1e-8


def _frozen_array(values, dtype=float) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.setflags(write=False)
    return out


def parse_floats(value, key: str) -> np.ndarray:
    """A JSON value as a float array; InputError naming `key` if it is not
    numbers or nested lists of numbers of one shape."""
    try:
        return np.array(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(
            f"'{key}' must be a number or a rectangular list of numbers ({exc})"
        ) from None


@dataclass(frozen=True, eq=False)
class Dataset:
    """A dense regression dataset: feature matrix, target vector, names."""

    features: np.ndarray
    target: np.ndarray
    feature_names: tuple[str, ...]

    def __post_init__(self):
        X = _frozen_array(self.features)
        y = _frozen_array(self.target)
        if X.ndim != 2:
            raise InputError("features must be a 2-d matrix")
        if y.ndim != 1 or y.shape[0] != X.shape[0]:
            raise InputError("target length must match the number of rows")
        if X.shape[0] < 1 or X.shape[1] < 1:
            raise InputError("dataset needs at least one row and one feature")
        if not np.all(np.isfinite(X)) or not np.all(np.isfinite(y)):
            raise InputError("dataset contains non-finite entries")
        names = tuple(str(n) for n in self.feature_names)
        if len(names) != X.shape[1]:
            raise InputError("feature_names length must match feature count")
        if len(set(names)) != len(names):
            raise InputError("feature names must be distinct")
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "target", y)
        object.__setattr__(self, "feature_names", names)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True, eq=False)
class LinearModel:
    """A coefficient vector over named features (no intercept)."""

    coefficients: np.ndarray
    feature_names: tuple[str, ...]

    def __post_init__(self):
        beta = _frozen_array(self.coefficients)
        if beta.ndim != 1:
            raise InputError("coefficients must be a 1-d vector")
        if not np.all(np.isfinite(beta)):
            raise InputError("coefficients must be finite")
        names = tuple(str(n) for n in self.feature_names)
        if len(names) != beta.shape[0]:
            raise InputError("feature_names length must match coefficient count")
        object.__setattr__(self, "coefficients", beta)
        object.__setattr__(self, "feature_names", names)

    @property
    def d(self) -> int:
        return self.coefficients.shape[0]

    @classmethod
    def zeros(cls, feature_names) -> "LinearModel":
        names = tuple(feature_names)
        return cls(np.zeros(len(names)), names)

    def with_coordinate(self, index: int, value: float) -> "LinearModel":
        """Return a copy with one coefficient replaced."""
        beta = self.coefficients.copy()
        beta[index] = value
        return LinearModel(beta, self.feature_names)


@dataclass(frozen=True, eq=False)
class Scaling:
    """Per-column standardization record; inverts coefficients back to raw units."""

    feature_means: np.ndarray
    feature_scales: np.ndarray
    target_mean: float
    target_scale: float

    def original_coefficients(self, model: LinearModel) -> tuple[np.ndarray, float]:
        """Map coefficients fit on standardized data back to raw-data units.

        Returns (coefficients, intercept) such that
        intercept + X_raw @ coefficients reproduces the standardized fit.
        """
        beta = model.coefficients * self.target_scale / self.feature_scales
        intercept = self.target_mean - float(beta @ self.feature_means)
        return beta, intercept


@dataclass(frozen=True, eq=False)
class SufficientStats:
    """Second-moment summary (G = X'X/n, g = X'y/n, tsm = y'y/n).

    All cost evaluations and solvers in the package read only this object,
    so a problem can equally be specified by population moments without any
    sampled data.
    """

    gram: np.ndarray
    cross: np.ndarray
    target_second_moment: float
    feature_names: tuple[str, ...]

    def __post_init__(self):
        G = np.array(self.gram, dtype=float)
        g = _frozen_array(self.cross)
        if G.ndim != 2 or G.shape[0] != G.shape[1]:
            raise InputError("gram must be a square matrix")
        d = G.shape[0]
        if g.shape != (d,):
            raise InputError("cross must be a vector matching gram's dimension")
        if not np.all(np.isfinite(G)) or not np.all(np.isfinite(g)):
            raise InputError("moments contain non-finite entries")
        tsm = float(self.target_second_moment)
        if not math.isfinite(tsm) or tsm < 0:
            raise InputError("target second moment must be finite and >= 0")
        scale = float(np.max(np.abs(G))) or 1.0
        if np.max(np.abs(G - G.T)) > 1e-8 * scale:
            raise InputError("gram matrix is not symmetric")
        G = (G + G.T) / 2.0
        eigs = np.linalg.eigvalsh(G)
        if eigs[0] < -PSD_RTOL * max(eigs[-1], 0.0) - 1e-300:
            raise InputError(
                f"gram matrix is not positive semidefinite (min eigenvalue {eigs[0]:.3e})"
            )
        G.setflags(write=False)
        names = tuple(str(n) for n in self.feature_names)
        if len(names) != d:
            raise InputError("feature_names length must match gram dimension")
        if len(set(names)) != len(names):
            raise InputError("feature names must be distinct")
        object.__setattr__(self, "gram", G)
        object.__setattr__(self, "cross", g)
        object.__setattr__(self, "target_second_moment", tsm)
        object.__setattr__(self, "feature_names", names)

    @property
    def d(self) -> int:
        return self.gram.shape[0]

    def residual_cross(self, beta: np.ndarray) -> np.ndarray:
        """g - G beta, the negative half-gradient of the cost at beta."""
        return self.cross - self.gram @ beta

    def with_ridge(self, lam: float) -> "SufficientStats":
        """Fold an L2 penalty lam*||beta||^2 into the gram matrix."""
        if lam < 0:
            raise InputError("ridge penalty must be >= 0")
        if lam == 0:
            return self
        return SufficientStats(
            self.gram + lam * np.eye(self.d),
            self.cross,
            self.target_second_moment,
            self.feature_names,
        )


def load_csv(path, target: str) -> Dataset:
    """Load an RFC-4180 CSV with a header row into a Dataset.

    The header is read with the csv module. The body is parsed in one call
    to numpy's C text reader, whose result is kept only if it raised and
    warned nothing, has one column per header name, at least one row, and
    only finite values. Any other body, any input that is not a regular
    file (a pipe, say) or whose name ends in a suffix numpy decompresses,
    and any file holding one of the ASCII separators 0x1C-0x1F, goes to
    the row loop instead: that loop gives every error its row, column and
    cell, and it reads the cells that Python's float() accepts and numpy
    does not (``1_0``, non-ASCII digits).

    Parameters
    ----------
    path : str or Path
        UTF-8 CSV file, BOM or not; every cell must parse as a finite real number.
    target : str
        Header name of the target column, removed from the features.
    """
    try:
        fh = open(path, newline="", encoding="utf-8-sig")  # spreadsheets may write a BOM
    except OSError as exc:
        raise InputError(f"cannot open {path}: {exc}") from exc
    try:
        with fh:
            reader = csv.reader(fh)
            header = _read_header(reader, path, target)
            data = _parse_body(fh, path, reader.line_num, len(header))
            if data is None:
                data = _parse_rows(reader, header, path)
    except UnicodeDecodeError as exc:
        raise not_utf8(path, exc) from None
    tcol = header.index(target)
    mask = np.ones(len(header), dtype=bool)
    mask[tcol] = False
    names = tuple(h for h, keep in zip(header, mask) if keep)
    return Dataset(data[:, mask], data[:, tcol], names)


def _read_header(reader, path, target: str) -> list[str]:
    try:
        header = next(reader)
    except StopIteration:
        raise InputError(f"{path}: file is empty") from None
    header = [h.strip() for h in header]
    if len(set(header)) != len(header):
        dupes = sorted({h for h in header if header.count(h) > 1})
        raise InputError(f"{path}: duplicate column names {dupes}")
    if target not in header:
        raise InputError(f"{path}: target column '{target}' not found in header")
    return header


# numpy strips the ASCII information separators around a number, as it
# strips spaces; float() does not. A file holding one goes to the row loop.
_SEPARATORS = tuple(bytes([c]) for c in range(0x1C, 0x20))


def _holds_separator(path) -> bool:
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            if any(sep in block for sep in _SEPARATORS):
                return True
    return False


# Suffixes of a path that numpy's loadtxt opens through a decompressor.
_COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")


def _parse_body(fh, path, skiprows: int, ncols: int) -> np.ndarray | None:
    """The body below the first skiprows lines in one C parse, or None.

    Given the path rather than the open file fh, numpy reads the file
    itself, which is faster. It reopens the path, so this is done only for
    a regular file that numpy reads as plain text: a pipe cannot be read a
    second time. None means the row loop must parse the rest of fh.
    """
    if (not stat.S_ISREG(os.fstat(fh.fileno()).st_mode)
            or os.path.splitext(path)[1] in _COMPRESSED_SUFFIXES
            or _holds_separator(path)):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            data = np.loadtxt(path, delimiter=",", comments=None, quotechar='"',
                              skiprows=skiprows, ndmin=2, encoding="utf-8")
    except UnicodeDecodeError:
        raise  # the row loop would fail on it too
    except (ValueError, Warning):
        return None
    if data.shape[0] and data.shape[1] == ncols and np.isfinite(data).all():
        return data
    return None


def _parse_rows(reader, header: list[str], path) -> np.ndarray:
    rows = []
    for i, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != len(header):
            raise InputError(f"{path}: row {i} has {len(row)} cells, expected {len(header)}")
        vals = []
        for j, cell in enumerate(row):
            try:
                v = float(cell)
            except ValueError:
                raise InputError(
                    f"{path}: row {i}, column '{header[j]}': cannot parse '{cell}' as a number"
                ) from None
            if not math.isfinite(v):
                raise InputError(f"{path}: row {i}, column '{header[j]}': non-finite value")
            vals.append(v)
        rows.append(vals)
    if not rows:
        raise InputError(f"{path}: no data rows")
    return np.array(rows, dtype=float)


def standardize(ds: Dataset) -> tuple[Dataset, Scaling]:
    """Center and scale each feature and the target to unit variance.

    Uses population variance (divide by n). Raises InputError naming the
    offending column if any column (or the target) has zero variance.
    """
    means = ds.features.mean(axis=0)
    scales = ds.features.std(axis=0)
    for j, s in enumerate(scales):
        if s <= 0:
            raise InputError(f"feature '{ds.feature_names[j]}' has zero variance")
    tmean = float(ds.target.mean())
    tscale = float(ds.target.std())
    if tscale <= 0:
        raise InputError("target column has zero variance")
    X = (ds.features - means) / scales
    y = (ds.target - tmean) / tscale
    return (
        Dataset(X, y, ds.feature_names),
        Scaling(_frozen_array(means), _frozen_array(scales), tmean, tscale),
    )


def compute_stats(ds: Dataset) -> SufficientStats:
    """Second-moment summary of a dataset: G = X'X/n, g = X'y/n, tsm = y'y/n."""
    n = ds.n
    X, y = ds.features, ds.target
    return SufficientStats(X.T @ X / n, X.T @ y / n, float(y @ y / n), ds.feature_names)


def stats_from_moments(gram, cross, target_second_moment, feature_names=None) -> SufficientStats:
    """Build SufficientStats directly from population moments.

    Beyond the gram PSD check, this validates that the augmented moment
    matrix [[G, g], [g', tsm]] is PSD (within tolerance), i.e. that the
    moments are jointly realizable: otherwise some model would get a
    negative cost and the least-squares solve would be inconsistent.
    """
    gram = parse_floats(gram, "gram")
    cross = parse_floats(cross, "cross")
    tsm = parse_floats(target_second_moment, "tsm")
    if tsm.ndim:
        raise InputError(f"'tsm' must be a number, got shape {tsm.shape}")
    d = cross.shape[0] if cross.ndim == 1 else 0
    if feature_names is None:
        feature_names = tuple(f"x{i + 1}" for i in range(d))
    # A string is iterable too, but its letters are not feature names.
    if isinstance(feature_names, str) or not hasattr(feature_names, "__iter__"):
        raise InputError("'names' must be a list of feature names")
    feature_names = tuple(feature_names)
    stats = SufficientStats(gram, cross, float(tsm), feature_names)
    aug = np.zeros((stats.d + 1, stats.d + 1))
    aug[: stats.d, : stats.d] = stats.gram
    aug[-1, : stats.d] = stats.cross
    aug[: stats.d, -1] = stats.cross
    aug[-1, -1] = stats.target_second_moment
    eigs = np.linalg.eigvalsh(aug)
    if eigs[0] < -PSD_RTOL * max(eigs[-1], 1.0):
        raise InputError(
            "moments are not jointly realizable: augmented moment matrix has "
            f"eigenvalue {eigs[0]:.3e}"
        )
    return stats


def cost_of(stats: SufficientStats, beta: np.ndarray) -> float:
    """Mean-squared error of a raw coefficient vector (clamped at zero)."""
    beta = np.asarray(beta, dtype=float)
    value = float(
        stats.target_second_moment - 2.0 * (beta @ stats.cross) + beta @ (stats.gram @ beta)
    )
    tol = 1e-9 * max(1.0, stats.target_second_moment)
    if value < -tol:
        raise InputError(f"negative cost {value:.3e}; inconsistent sufficient statistics")
    return max(value, 0.0)


def cost_of_many(stats: SufficientStats, betas: np.ndarray) -> np.ndarray:
    """Vectorized cost over a (B, d) stack of coefficient vectors."""
    GB = betas @ stats.gram
    vals = stats.target_second_moment - 2.0 * (betas @ stats.cross) + np.einsum(
        "bd,bd->b", GB, betas
    )
    return np.maximum(vals, 0.0)


def cost(stats: SufficientStats, model: LinearModel) -> float:
    """Mean-squared error of a model under the given sufficient statistics."""
    if model.d != stats.d:
        raise InputError(f"model has {model.d} coefficients, stats expect {stats.d}")
    return cost_of(stats, model.coefficients)


def ols(stats: SufficientStats) -> LinearModel:
    """Ordinary least squares: solve G beta = g.

    For a singular gram matrix this returns the minimum-norm solution, which
    is still a global cost minimizer (the system is consistent for any
    realizable moments).
    """
    beta, *_ = np.linalg.lstsq(stats.gram, stats.cross, rcond=None)
    return LinearModel(beta, stats.feature_names)
