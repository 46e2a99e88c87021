"""Distribution comparison: two-sample KS statistic and subsampling experiments."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from .errors import FormatError
from .profiles import DIMENSIONS, DimensionStats, dimension_stats

_SUBSAMPLE_BLOCK = 2**15  # picked rows scored together; keeps the temporaries near 2 MB


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
    merged = np.concatenate([sorted_a, sorted_b])
    cdf_a = np.searchsorted(sorted_a, merged, side="right") / len(sorted_a)
    cdf_b = np.searchsorted(sorted_b, merged, side="right") / len(sorted_b)
    return KsResult(
        d_statistic=float(np.abs(cdf_a - cdf_b).max()),
        n_a=len(sorted_a),
        n_b=len(sorted_b),
    )


@dataclass
class SubsampleReport:
    """KS distances between size-n subsets and a fixed reference set.

    ``d_values`` maps (dimension, subset size) to the per-repetition D
    statistics, with dimensions named as in :data:`DIMENSIONS`.
    """

    sizes: Tuple[int, ...]
    d_values: Dict[Tuple[str, int], np.ndarray]

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
    samples: np.ndarray,
    sizes: Iterable[int],
    repetitions: int = 100,
    cap: int = 10000,
    rng: Optional[np.random.Generator] = None,
) -> SubsampleReport:
    """Measure how subset size drives the KS distance to a reference set.

    ``samples`` is one profile's (n, 3) array, n at least ``cap``. The
    reference is ``cap`` of its rows drawn without replacement; every subset
    is drawn from the reference, again without replacement, so a subset of
    size ``cap`` reproduces it exactly (D = 0). D is computed per dimension.
    """
    if np.shape(samples)[1:] != (3,):
        raise FormatError("samples must be an (n, 3) array")
    sizes = sorted(int(size) for size in sizes)
    if not sizes:
        raise FormatError("need at least one subset size")
    if sizes[0] < 1:
        raise FormatError("subset sizes must be positive")
    repeated = [size for size, following in zip(sizes, sizes[1:]) if size == following]
    if repeated:
        raise FormatError(f"subset size {repeated[0]} is repeated")
    if sizes[-1] > cap:
        raise FormatError(f"subset size {sizes[-1]} exceeds cap {cap}")
    if repetitions < 1:
        raise FormatError("repetitions must be positive")
    if len(samples) < cap:
        raise FormatError(f"the profile has {len(samples)} samples; need at least cap={cap}")
    rng = rng or np.random.default_rng()
    reference = samples[rng.choice(len(samples), size=cap, replace=False)]
    # Both ECDFs step only at the reference's distinct values (dense ranks here). Between two
    # subset values the subset ECDF is flat and the reference's does not fall, so |difference|
    # peaks at a value's last copy or just below its first: floats a merged-sample KS reads.
    ranks = [np.unique(reference[:, column], return_inverse=True)[1] for column in range(3)]
    reference_cdfs = [np.cumsum(np.bincount(rank)) / cap for rank in ranks]
    d_values: Dict[Tuple[str, int], np.ndarray] = {
        (dimension, size): np.empty(repetitions)
        for size in sizes
        for dimension in DIMENSIONS
    }
    for size in sizes:
        at_value = np.arange(1, size + 1) / size
        below_value = np.arange(size) / size
        block = max(1, _SUBSAMPLE_BLOCK // size)
        for start in range(0, repetitions, block):
            picks = np.array([rng.choice(cap, size=size, replace=False)
                              for _ in range(start, min(start + block, repetitions))])
            for rank, reference_cdf, dimension in zip(ranks, reference_cdfs, DIMENSIONS):
                subset = np.sort(rank[picks], axis=1)
                new = subset[:, 1:] != subset[:, :-1]
                last = np.concatenate([new, np.ones((len(subset), 1), bool)], axis=1)
                first = np.concatenate([subset[:, :1] > 0, new], axis=1)
                d = np.abs(at_value - reference_cdf[subset]) * last
                np.maximum(d, np.abs(below_value - reference_cdf[subset - 1]) * first, out=d)
                d_values[(dimension, size)][start:start + len(subset)] = d.max(axis=1)
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
