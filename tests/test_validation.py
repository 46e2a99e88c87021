"""Two-sample KS statistic and the subsampling experiment."""

import tracemalloc

import numpy as np
import pytest
from conftest import make_lognormal
from scipy import stats as scipy_stats

from errant import (
    DIMENSIONS,
    compare_distributions,
    ks_two_sample,
    subsample_experiment,
)


def test_ks_identical_samples_zero():
    values = [3.0, 1.0, 2.0, 5.0]
    assert ks_two_sample(values, values).d_statistic == 0.0


def test_ks_disjoint_samples_one():
    assert ks_two_sample([1.0, 2.0], [10.0, 11.0]).d_statistic == 1.0


def test_ks_small_example_exact():
    result = ks_two_sample([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 5.0])
    assert result.d_statistic == 0.25
    assert (result.n_a, result.n_b) == (4, 4)


def test_ks_matches_reference_implementation():
    rng = np.random.default_rng(17)
    for _ in range(25):
        a = rng.lognormal(0.0, 1.0, size=rng.integers(5, 400))
        b = rng.lognormal(0.3, 0.8, size=rng.integers(5, 400))
        ours = ks_two_sample(a, b).d_statistic
        reference = scipy_stats.ks_2samp(a, b, method="asymp").statistic
        assert ours == pytest.approx(reference, abs=1e-12)


def test_ks_symmetric_and_bounded():
    rng = np.random.default_rng(19)
    for _ in range(10):
        a = rng.normal(size=50)
        b = rng.normal(0.5, size=70)
        forward = ks_two_sample(a, b).d_statistic
        backward = ks_two_sample(b, a).d_statistic
        assert forward == backward
        assert 0.0 <= forward <= 1.0


def test_ks_invariant_under_monotone_transform():
    rng = np.random.default_rng(23)
    a = rng.lognormal(size=100)
    b = rng.lognormal(0.4, size=80)
    plain = ks_two_sample(a, b).d_statistic
    logged = ks_two_sample(np.log(a), np.log(b)).d_statistic
    assert plain == pytest.approx(logged, abs=1e-12)


def test_ks_rejects_empty():
    with pytest.raises(ValueError):
        ks_two_sample([], [1.0])


def test_subsample_full_size_gives_zero():
    samples = make_lognormal(600, seed=2)
    report = subsample_experiment(
        samples, sizes=[500], repetitions=5, cap=500, rng=np.random.default_rng(1)
    )
    for dimension in DIMENSIONS:
        assert report.d_values[(dimension, 500)].max() == 0.0


def test_subsample_reproducible():
    samples = make_lognormal(800, seed=3)
    reports = [
        subsample_experiment(
            samples, sizes=[10, 50], repetitions=20, cap=700, rng=np.random.default_rng(9)
        )
        for _ in range(2)
    ]
    for key in reports[0].d_values:
        np.testing.assert_array_equal(reports[0].d_values[key], reports[1].d_values[key])


def test_subsample_medians_decrease():
    samples = make_lognormal(3000, seed=4)
    report = subsample_experiment(
        samples, sizes=[10, 100, 1000], repetitions=50, cap=2000, rng=np.random.default_rng(5)
    )
    for dimension in DIMENSIONS:
        medians = [report.median(dimension, size) for size in (10, 100, 1000)]
        assert medians[0] > medians[1] > medians[2]


def test_subsample_validation():
    samples = make_lognormal(300, seed=6)
    rng = np.random.default_rng(7)
    with pytest.raises(ValueError, match="the profile has 300 samples; need at least cap=500"):
        subsample_experiment(samples, sizes=[10], cap=500, rng=rng)
    with pytest.raises(ValueError, match="exceeds cap"):
        subsample_experiment(samples, sizes=[250], cap=200, rng=rng)
    with pytest.raises(ValueError):
        subsample_experiment(samples, sizes=[], cap=200, rng=rng)
    with pytest.raises(ValueError):
        subsample_experiment(samples, sizes=[0], cap=200, rng=rng)
    with pytest.raises(ValueError, match="subset size 10 is repeated"):
        subsample_experiment(samples, sizes=[10, 50, 10], cap=200, rng=rng)
    with pytest.raises(ValueError, match="repetitions must be positive"):
        subsample_experiment(samples, sizes=[10], repetitions=0, cap=200, rng=rng)
    with pytest.raises(ValueError, match=r"samples must be an \(n, 3\) array"):
        subsample_experiment(samples[:, 0], sizes=[10], cap=200, rng=rng)


def _quantized(samples):
    """The same samples with each dimension rounded up to a few distinct values."""
    steps = np.array([10000.0, 4000.0, 20.0])
    return np.ceil(samples / steps) * steps


@pytest.mark.parametrize("ties", [False, True], ids=["tie-free", "tie-heavy"])
@pytest.mark.parametrize("n, cap", [(500, 300), (300, 300)])
def test_subsample_d_equals_plain_ks(ties, n, cap):
    samples = make_lognormal(n, seed=21)
    if ties:
        samples = _quantized(samples)
    sizes, repetitions = [1, 7, 150, cap], 4
    report = subsample_experiment(
        samples, sizes, repetitions=repetitions, cap=cap, rng=np.random.default_rng(22)
    )
    # replay the experiment's draws: the reference first, then one set of
    # picks per repetition, smallest size first
    rng = np.random.default_rng(22)
    reference = samples[rng.choice(len(samples), size=cap, replace=False)]
    for size in sizes:
        for repetition in range(repetitions):
            picks = rng.choice(cap, size=size, replace=False)
            for column, dimension in enumerate(DIMENSIONS):
                plain = ks_two_sample(reference[picks, column], reference[:, column])
                assert report.d_values[(dimension, size)][repetition] == plain.d_statistic


def test_subsample_memory_stays_per_repetition():
    # one (repetitions, cap) float array alone would take 8 MiB
    samples = make_lognormal(10000, seed=23)
    tracemalloc.start()
    try:
        subsample_experiment(
            samples, [1, 100, 1000], repetitions=100, cap=10000, rng=np.random.default_rng(24)
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_subsample_csv_layout():
    samples = make_lognormal(300, seed=8)
    report = subsample_experiment(
        samples, sizes=[10], repetitions=3, cap=200, rng=np.random.default_rng(11)
    )
    lines = report.to_csv(comment="seed=11").splitlines()
    assert lines[0] == "# seed=11"
    assert lines[1] == "dimension,n,repetition,D"
    assert len(lines) == 2 + 3 * len(DIMENSIONS)
    assert lines[2].startswith("download,10,0,")


def test_compare_identical_series():
    values = list(np.random.default_rng(13).lognormal(size=200))
    comparison = compare_distributions(values, values)
    assert comparison.ks.d_statistic == 0.0
    assert comparison.iqr_ratio == 1.0


def test_compare_constant_emulated_series():
    observed = list(np.random.default_rng(15).lognormal(size=100))
    comparison = compare_distributions(observed, [5.0] * 50)
    assert comparison.iqr_ratio == 0.0
    assert comparison.emulated.iqr == 0.0


def test_compare_zero_iqr_conventions():
    assert compare_distributions([1.0] * 10, [1.0] * 10).iqr_ratio == 1.0
    assert compare_distributions([1.0] * 10, list(range(10))).iqr_ratio == float("inf")


def test_compare_report_text():
    comparison = compare_distributions([1.0, 2.0, 3.0], [2.0, 3.0, 4.0])
    lines = comparison.to_text().splitlines()
    assert lines[0] == "metric,observed,emulated"
    assert any(line.startswith("ks_d,") for line in lines)
    assert any(line.startswith("iqr_ratio,") for line in lines)
