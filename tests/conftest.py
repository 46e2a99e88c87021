"""Shared fixtures: synthetic measurement data and small prebuilt bundles."""

import io

import numpy as np
import pytest

from errant import ModelBundle, ProfileKey, fit, save

# Synthetic population: lognormal marginals with realistic scales
# (download ~20 Mbit/s, upload ~8 Mbit/s, latency ~40 ms) and mild
# correlation, including a negative bandwidth-latency one.
LOG_MEANS = np.log([20000.0, 8000.0, 40.0])
LOG_SIGMAS = np.array([0.5, 0.5, 0.3])
LOG_CORR = np.array(
    [
        [1.0, 0.5, -0.3],
        [0.5, 1.0, -0.2],
        [-0.3, -0.2, 1.0],
    ]
)

CSV_HEADER = "timestamp,country,operator,rat,rssi,download_kbps,upload_kbps,latency_ms"


def make_lognormal(n, seed):
    """n synthetic (download, upload, latency) rows, strictly positive."""
    rng = np.random.default_rng(seed)
    cov = LOG_CORR * np.outer(LOG_SIGMAS, LOG_SIGMAS)
    return np.exp(rng.multivariate_normal(LOG_MEANS, cov, size=n))


def csv_stream(rows):
    """In-memory speed-test CSV with the canonical header."""
    return io.StringIO("\n".join([CSV_HEADER] + list(rows)) + "\n")


@pytest.fixture
def lognormal():
    return make_lognormal


@pytest.fixture
def good_4g_key():
    return ProfileKey.from_string("specific/norway/telia/4G/good")


@pytest.fixture
def small_bundle_path(tmp_path, good_4g_key):
    """Model file with one 400-point fitted model, for CLI-level tests."""
    points = make_lognormal(400, seed=5)
    bundle = ModelBundle(
        models={good_4g_key: fit(points)}, created="2026-08-14T00:00:00+00:00"
    )
    path = tmp_path / "models.json"
    save(bundle, path)
    return path


def profile_rows(n, seed, country="norway", operator="telia", rat="4G", rssi=-70):
    """CSV rows that all land in one profile, with lognormal measurements."""
    data = make_lognormal(n, seed)
    return [
        f"{1600000000 + i},{country},{operator},{rat},{rssi},"
        f"{row[0]:.3f},{row[1]:.3f},{row[2]:.3f}"
        for i, row in enumerate(data)
    ]
