"""Model fitting, density evaluation, and sampling."""

import numpy as np
import pytest
from conftest import make_lognormal
from scipy import stats as scipy_stats

from errant import (
    EmulationParams,
    FitError,
    KdeModel,
    PathologicalModelError,
    density,
    fit,
    sample,
    sample_points,
    silverman_factor,
)

# closed-form (n (d + 2) / 4) ** (-1 / (d + 4)) values
SILVERMAN_CASES = [
    (1, 1, 1.0592238410488122),
    (2, 3, 0.8773066621237415),
    (100, 3, 0.5016969106227039),
    (10000, 3, 0.2598526445218819),
]


@pytest.mark.parametrize("n,d,expected", SILVERMAN_CASES)
def test_silverman_factor_closed_form(n, d, expected):
    assert silverman_factor(n, d) == pytest.approx(expected, abs=1e-9)


def test_silverman_factor_rejects_empty():
    with pytest.raises(FitError):
        silverman_factor(0, 3)


def test_fit_stores_raw_points_and_sample_covariance():
    data = make_lognormal(200, seed=1)
    model = fit(data)
    assert model.n == 200
    assert model.points.shape[1] == 3
    np.testing.assert_array_equal(model.points, data)
    np.testing.assert_allclose(model.covariance, np.cov(data, rowvar=False))
    assert model.bandwidth_factor == pytest.approx(silverman_factor(200, 3))


def test_fit_needs_two_samples():
    with pytest.raises(FitError):
        fit(np.array([[1.0, 2.0, 3.0]]))


@pytest.mark.parametrize("shape", [(10,), (10, 2), (10, 4), (2, 10, 3)])
def test_fit_and_density_refuse_other_shapes(shape):
    with pytest.raises(FitError, match=r"points must be an \(n, 3\) array with n >= 2"):
        fit(np.ones(shape))
    with pytest.raises(ValueError, match=r"batch \(m, 3\)"):
        density(fit(make_lognormal(20, seed=3)), np.ones(shape))


def test_fit_rejects_zero_variance_naming_dimension():
    data = make_lognormal(50, seed=2)
    data[:, 1] = 777.0
    with pytest.raises(FitError, match="upload"):
        fit(data)


def test_fit_identical_points_degenerate():
    with pytest.raises(FitError, match="download"):
        fit(np.tile([100.0, 50.0, 10.0], (10, 1)))


def test_density_single_kernel_closed_form():
    # two kernels on one center, evaluated there: (2 pi)^(-3/2) / sqrt(det H)
    cov = np.diag([4.0, 9.0, 16.0])
    points = np.array([[10.0, 20.0, 30.0]] * 2)
    model = KdeModel(points=points, covariance=cov, bandwidth_factor=1.0)
    expected = (2 * np.pi) ** -1.5 / np.sqrt(np.linalg.det(cov))
    assert density(model, np.array([10.0, 20.0, 30.0])) == pytest.approx(expected, rel=1e-12)


def test_density_matches_reference_implementation():
    data = make_lognormal(500, seed=13)
    model = fit(data)
    reference = scipy_stats.gaussian_kde(data.T, bw_method="silverman")
    assert model.bandwidth_factor == pytest.approx(reference.factor, rel=1e-12)
    grid = make_lognormal(200, seed=14)
    np.testing.assert_allclose(density(model, grid), reference.evaluate(grid.T), rtol=1e-10)


def test_density_nonnegative_and_shapes():
    model = fit(make_lognormal(100, seed=3))
    batch = np.array([[1.0, 1.0, 1.0], [50000.0, 20000.0, 200.0]])
    values = density(model, batch)
    assert values.shape == (2,)
    assert (values >= 0).all()
    single = density(model, batch[0])
    assert isinstance(single, float)
    assert single == pytest.approx(values[0])


def test_sampling_deterministic_per_seed():
    model = fit(make_lognormal(300, seed=4))
    a = sample_points(model, np.random.default_rng(99), 50)
    b = sample_points(model, np.random.default_rng(99), 50)
    np.testing.assert_array_equal(a, b)
    c = sample_points(model, np.random.default_rng(100), 50)
    assert not np.array_equal(a, c)


def test_sampling_zero_bandwidth_limit_returns_stored_points():
    data = make_lognormal(50, seed=5)
    model = KdeModel(points=data, covariance=np.cov(data, rowvar=False), bandwidth_factor=1e-12)
    draws = sample_points(model, np.random.default_rng(1), 200)
    distances = np.abs(draws[:, None, :] - data[None, :, :]).sum(axis=2).min(axis=1)
    assert distances.max() < 1e-6


def test_sampling_strictly_positive_near_zero_data():
    # data hugging zero forces the rejection rule to do real work
    rng = np.random.default_rng(6)
    data = np.exp(rng.normal(0.0, 1.0, size=(500, 3)))
    model = fit(data)
    draws = sample_points(model, np.random.default_rng(7), 5000)
    assert draws.shape == (5000, 3)
    assert (draws > 0).all()


def test_sampling_smoothing_identity():
    # draws follow the data mean and inflate covariance by (1 + h^2)
    rng = np.random.default_rng(31)
    mean = np.array([1000.0, 800.0, 500.0])
    cov = np.array(
        [
            [100.0**2, 2000.0, 0.0],
            [2000.0, 80.0**2, 500.0],
            [0.0, 500.0, 50.0**2],
        ]
    )
    data = rng.multivariate_normal(mean, cov, size=4000)
    assert (data > 0).all()
    model = fit(data)
    draws = sample_points(model, np.random.default_rng(32), 40000)
    inflation = 1.0 + model.bandwidth_factor**2
    np.testing.assert_allclose(draws.mean(axis=0), data.mean(axis=0), atol=2.0)
    np.testing.assert_allclose(
        np.cov(draws, rowvar=False), inflation * np.cov(data, rowvar=False), rtol=0.08
    )


def test_sample_returns_params_objects():
    model = fit(make_lognormal(100, seed=8))
    draws = sample(model, np.random.default_rng(9), 5)
    assert len(draws) == 5
    assert all(isinstance(p, EmulationParams) for p in draws)
    assert all(p.download_kbps > 0 and p.latency_ms > 0 for p in draws)


def _correlated_model(correlation):
    # tiny positive points under unit-variance kernels whose components are
    # pairwise negatively correlated: a draw is rarely positive in all three
    points = 1e-3 * np.array(
        [[1.0, 1.0, 1.0], [1.01, 1.0, 1.0], [1.0, 1.01, 1.0], [1.0, 1.0, 1.01]]
    )
    covariance = np.full((3, 3), correlation)
    np.fill_diagonal(covariance, 1.0)
    return KdeModel(points=points, covariance=covariance, bandwidth_factor=1.0)


def _pathological_model():
    # about 0.03% of draws are positive, far below the guard's 1%
    return _correlated_model(-0.499)


def test_pathological_model_raises():
    with pytest.raises(PathologicalModelError):
        sample_points(_pathological_model(), np.random.default_rng(10), 1)


def _near_zero_model():
    # stored points hugging zero with wide kernels: over half the proposals
    # are rejected, so draws come from past row 0 and across batches
    rng = np.random.default_rng(41)
    model = fit(np.exp(rng.normal(0.0, 1.5, size=(60, 3))))
    draws = model.points[rng.integers(0, model.n, 2000)]
    draws = draws + rng.standard_normal((2000, 3)) @ model._kernel_cholesky.T
    assert 0.2 < 1.0 - (draws > 0).all(axis=1).mean() < 0.9
    return model


def _as_points(params):
    return np.array([[p.download_kbps, p.upload_kbps, p.latency_ms] for p in params]).reshape(-1, 3)


@pytest.mark.parametrize("kind", ["lognormal", "near_zero"])
@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("count", [0, 1, 2, 255, 256, 257, 1000])
def test_sample_scan_equals_sample_points(kind, seed, count):
    model = fit(make_lognormal(300, seed=15)) if kind == "lognormal" else _near_zero_model()
    scan_rng, bulk_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    scanned = _as_points(sample(model, scan_rng, count))
    np.testing.assert_array_equal(scanned, sample_points(model, bulk_rng, count))
    assert scan_rng.random() == bulk_rng.random()  # same generator state afterwards


def test_sample_single_draws_equal_sample_points_across_rejections():
    model = _near_zero_model()
    scan_rng, bulk_rng = np.random.default_rng(4), np.random.default_rng(4)
    for _ in range(300):
        np.testing.assert_array_equal(
            _as_points(sample(model, scan_rng, 1)), sample_points(model, bulk_rng, 1)
        )
    assert scan_rng.random() == bulk_rng.random()


def test_sample_guard_counts_whole_last_batch():
    # about 1% of proposals survive; with seed 6 the last batch holds more
    # positive rows than the scan keeps, and only counting all of them keeps
    # the acceptance rate above the guard's 1%, as it is for sample_points
    model = _correlated_model(-0.46)
    scan_rng, bulk_rng = np.random.default_rng(6), np.random.default_rng(6)
    scanned = _as_points(sample(model, scan_rng, 10))
    np.testing.assert_array_equal(scanned, sample_points(model, bulk_rng, 10))
    assert scan_rng.random() == bulk_rng.random()


@pytest.mark.parametrize("count", [1, 300])
def test_sample_and_sample_points_refuse_pathological_model_alike(count):
    messages = []
    for draw in (sample, sample_points):
        with pytest.raises(PathologicalModelError) as caught:
            draw(_pathological_model(), np.random.default_rng(10), count)
        messages.append(str(caught.value))
    assert messages[0] == messages[1]
    assert "proposals; model cannot produce strictly positive parameters" in messages[0]


def test_sample_count_validation():
    model = fit(make_lognormal(50, seed=11))
    assert sample_points(model, np.random.default_rng(1), 0).shape == (0, 3)
    for draw in (sample_points, sample):
        with pytest.raises(ValueError, match="count must be nonnegative"):
            draw(model, np.random.default_rng(1), -1)


def test_emulation_params_validation():
    with pytest.raises(ValueError):
        EmulationParams(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        EmulationParams(1.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        EmulationParams(1.0, 1.0, -0.1)
    with pytest.raises(ValueError):
        EmulationParams(1.0, 1.0, 1.0, latency_std_ms=-0.1)
    # zero latency is allowed: some static presets use it
    assert EmulationParams(1.0, 1.0, 0.0).latency_ms == 0.0
    assert EmulationParams(1.0, 1.0, 1.0).latency_std_ms is None
    assert EmulationParams(1.0, 1.0, 1.0, latency_std_ms=0.0).latency_std_ms == 0.0


@pytest.mark.parametrize(
    "args,std",
    [
        ((float("nan"), 1.0, 1.0), None),
        ((1.0, float("nan"), 1.0), None),
        ((1.0, 1.0, float("nan")), None),
        ((float("inf"), 1.0, 1.0), None),
        ((1.0, float("inf"), 1.0), None),
        ((1.0, 1.0, float("inf")), None),
        ((1.0, 1.0, 1.0), float("nan")),
        ((1.0, 1.0, 1.0), float("inf")),
    ],
)
def test_emulation_params_refuse_nan_and_infinity(args, std):
    with pytest.raises(ValueError, match="finite"):
        EmulationParams(*args, latency_std_ms=std)


def test_model_rejects_bad_inputs():
    data = make_lognormal(10, seed=12)
    cov = np.cov(data, rowvar=False)
    with pytest.raises(FitError):
        KdeModel(points=data, covariance=cov, bandwidth_factor=0.0)
    with pytest.raises(FitError):
        KdeModel(points=data, covariance=np.ones((2, 2)), bandwidth_factor=0.5)
    with pytest.raises(FitError):
        KdeModel(points=np.empty((0, 3)), covariance=cov, bandwidth_factor=0.5)
    with pytest.raises(FitError, match="not positive definite"):
        KdeModel(points=data, covariance=np.diag([1.0, -1.0, 1.0]), bandwidth_factor=0.5)
    for bad in (np.nan, np.inf):
        with pytest.raises(FitError, match="must be finite"):
            KdeModel(points=np.where(data == data[0, 0], bad, data), covariance=cov,
                     bandwidth_factor=0.5)
    with pytest.raises(FitError, match="kernel covariance is not positive definite"):
        KdeModel(points=data, covariance=np.diag([1.0, 1.0, 0.0]), bandwidth_factor=0.5)
    for factor in (float("inf"), 1e308):
        with pytest.raises(FitError, match="finite kernel covariance"):
            KdeModel(points=data, covariance=cov, bandwidth_factor=factor)
