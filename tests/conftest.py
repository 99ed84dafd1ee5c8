import numpy as np
import pytest
from hypothesis import settings

from pathlens import LinearModel, stats_from_moments

settings.register_profile("default", deadline=None, max_examples=60)
settings.load_profile("default")

# Moment-specified two-feature instance: unit-variance features with
# correlation 0.9, least-squares solution (2.12, -0.94), base cost 2.04.
TOY_GRAM = [[1.0, 0.9], [0.9, 1.0]]
TOY_CROSS = [1.274, 0.968]
TOY_TSM = 2.04
TOY_OLS = np.array([2.12, -0.94])


@pytest.fixture
def toy_stats():
    return stats_from_moments(TOY_GRAM, TOY_CROSS, TOY_TSM, ("height", "weight"))


@pytest.fixture
def toy_zero(toy_stats):
    return LinearModel.zeros(toy_stats.feature_names)


def random_dataset(seed, n=60, d=4, mix=0.4):
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((n, d))
    A = np.eye(d) + mix * rng.standard_normal((d, d))
    X = Z @ A
    beta = rng.standard_normal(d)
    y = X @ beta + rng.standard_normal(n) * 0.5 * np.std(X @ beta)
    return X, y


def random_stats(seed, n=60, d=4, mix=0.4):
    from pathlens import Dataset, compute_stats

    X, y = random_dataset(seed, n=n, d=d, mix=mix)
    X = (X - X.mean(axis=0)) / X.std(axis=0)
    y = (y - y.mean()) / y.std()
    names = tuple(f"x{i + 1}" for i in range(d))
    return compute_stats(Dataset(X, y, names))


def collinear_stats(seed, d=4, noise=1e-9):
    """Moments of data whose last feature repeats the first up to `noise`
    times standard normal noise."""
    from pathlens import Dataset, compute_stats

    X, y = random_dataset(seed, d=d)
    X[:, -1] = X[:, 0] + noise * np.random.default_rng(seed).standard_normal(X.shape[0])
    return compute_stats(Dataset(X, y, tuple(f"x{i + 1}" for i in range(d))))
