"""Distribution comparison: two-sample KS statistic and subsampling experiments."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from .errors import FormatError
from .profiles import DIMENSIONS, DimensionStats, Profile, dimension_stats


@dataclass(frozen=True)
class KsResult:
    """Two-sample Kolmogorov-Smirnov distance and the sample sizes behind it."""

    d_statistic: float
    n_a: int
    n_b: int


def ks_two_sample(a: Iterable[float], b: Iterable[float]) -> KsResult:
    """Largest absolute difference between the two empirical CDFs.

    Computed exactly over the merged sample points, without any asymptotic
    approximation.
    """
    sorted_a = np.sort(np.asarray(a, dtype=float))
    sorted_b = np.sort(np.asarray(b, dtype=float))
    if len(sorted_a) == 0 or len(sorted_b) == 0:
        raise ValueError("both samples must be non-empty")
    return KsResult(
        d_statistic=_ks_sorted(sorted_a, sorted_b),
        n_a=len(sorted_a),
        n_b=len(sorted_b),
    )


def _ks_sorted(sorted_a: np.ndarray, sorted_b: np.ndarray) -> float:
    merged = np.concatenate([sorted_a, sorted_b])
    cdf_a = np.searchsorted(sorted_a, merged, side="right") / len(sorted_a)
    cdf_b = np.searchsorted(sorted_b, merged, side="right") / len(sorted_b)
    return float(np.abs(cdf_a - cdf_b).max())


@dataclass
class SubsampleReport:
    """KS distances between size-n subsets and a fixed reference set.

    ``d_values`` maps (dimension, subset size) to the per-repetition D
    statistics, with dimensions named as in :data:`DIMENSIONS`.
    """

    sizes: Tuple[int, ...]
    d_values: Dict[Tuple[str, int], np.ndarray]

    def median(self, dimension: str, size: int) -> float:
        return float(np.median(self.d_values[(dimension, size)]))

    def to_csv(self, comment: Optional[str] = None) -> str:
        lines = []
        if comment:
            lines.append(f"# {comment}")
        lines.append("dimension,n,repetition,D")
        for size in self.sizes:
            for dimension in DIMENSIONS:
                for repetition, d in enumerate(self.d_values[(dimension, size)]):
                    lines.append(f"{dimension},{size},{repetition},{float(d)!r}")
        return "\n".join(lines) + "\n"


def subsample_experiment(
    profile: Profile,
    sizes: Iterable[int],
    repetitions: int = 100,
    cap: int = 10000,
    rng: Optional[np.random.Generator] = None,
) -> SubsampleReport:
    """Measure how subset size drives the KS distance to a reference set.

    The reference is ``cap`` samples drawn from the profile without
    replacement; every subset is drawn from the reference, again without
    replacement, so a subset of size ``cap`` reproduces it exactly (D = 0).
    D is computed per dimension.
    """
    sizes = sorted(int(size) for size in sizes)
    if not sizes:
        raise FormatError("need at least one subset size")
    if sizes[0] < 1:
        raise FormatError("subset sizes must be positive")
    if sizes[-1] > cap:
        raise FormatError(f"subset size {sizes[-1]} exceeds cap {cap}")
    if repetitions < 1:
        raise FormatError("repetitions must be positive")
    if profile.n < cap:
        raise FormatError(
            f"profile {profile.key.as_string()} has {profile.n} samples; "
            f"need at least cap={cap}"
        )
    rng = rng or np.random.default_rng()
    reference = profile.samples[rng.choice(profile.n, size=cap, replace=False)]
    reference_sorted = [np.sort(reference[:, column]) for column in range(3)]
    d_values: Dict[Tuple[str, int], np.ndarray] = {
        (dimension, size): np.empty(repetitions)
        for size in sizes
        for dimension in DIMENSIONS
    }
    for size in sizes:
        for repetition in range(repetitions):
            subset = reference[rng.choice(cap, size=size, replace=False)]
            for column, dimension in enumerate(DIMENSIONS):
                d_values[(dimension, size)][repetition] = _ks_sorted(
                    np.sort(subset[:, column]), reference_sorted[column]
                )
    return SubsampleReport(sizes=tuple(sizes), d_values=d_values)


@dataclass(frozen=True)
class DistributionComparison:
    """Side-by-side summary of an observed and an emulated scalar series."""

    observed: DimensionStats
    emulated: DimensionStats
    ks: KsResult
    iqr_ratio: float

    def to_text(self) -> str:
        lines = ["metric,observed,emulated"]
        for metric in ("median", "q1", "q3", "p5", "p95", "iqr"):
            observed = getattr(self.observed, metric)
            emulated = getattr(self.emulated, metric)
            lines.append(f"{metric},{observed!r},{emulated!r}")
        lines.append(f"ks_d,{self.ks.d_statistic!r},")
        lines.append(f"iqr_ratio,{self.iqr_ratio!r},")
        lines.append(f"count,{self.ks.n_a},{self.ks.n_b}")
        return "\n".join(lines) + "\n"


def compare_distributions(
    observed: Iterable[float], emulated: Iterable[float]
) -> DistributionComparison:
    """Compare two scalar series: quantiles, KS distance, and the IQR ratio.

    The IQR ratio is emulated over observed; two zero-IQR series count as a
    perfect match (ratio 1).
    """
    observed_stats = dimension_stats(observed)
    emulated_stats = dimension_stats(emulated)
    if observed_stats.iqr == 0.0:
        ratio = 1.0 if emulated_stats.iqr == 0.0 else float("inf")
    else:
        ratio = emulated_stats.iqr / observed_stats.iqr
    return DistributionComparison(
        observed=observed_stats,
        emulated=emulated_stats,
        ks=ks_two_sample(observed, emulated),
        iqr_ratio=ratio,
    )
