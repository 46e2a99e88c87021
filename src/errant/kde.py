"""Three-dimensional Gaussian kernel density models of network conditions.

A model keeps the raw (download, upload, latency) points it was fitted on;
every point carries a Gaussian kernel whose covariance is the sample
covariance scaled by the squared rule-of-thumb bandwidth factor. Sampling
draws a stored point uniformly at random and adds kernel noise, rejecting
draws with any nonpositive component.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import NamedTuple, Optional, Union

import numpy as np

from .errors import FitError, PathologicalModelError
from .profiles import DIMENSIONS

_TWO_PI = 2.0 * np.pi
# The fewest proposals a draw makes at once, and the rows of one block that a
# run segment takes its draws from.
BATCH = 256
# Acceptance-rate guard: after this many proposals, sampling gives up when
# fewer than 1% of draws come out strictly positive.
_REJECTION_WINDOW = 1000


class _Fields(NamedTuple):
    download_kbps: float
    upload_kbps: float
    latency_ms: float
    latency_std_ms: Optional[float] = None


class EmulationParams(_Fields):
    """One (download, upload, latency) tuple ready to hand to a backend.

    ``latency_std_ms`` makes the latency normally distributed around ``latency_ms``; without
    it the latency is constant. A numpy scalar becomes the builtin number it holds. The
    constructor, ``_make``, ``_replace``, pickle and copy all check the values. Only
    :func:`sample` builds past the check, on rows of :func:`sample_points` that pass it.
    """

    __slots__ = ()

    def __new__(cls, download_kbps: float, upload_kbps: float, latency_ms: float,
                latency_std_ms: Optional[float] = None) -> EmulationParams:
        values = (download_kbps, upload_kbps, latency_ms, latency_std_ms)
        # a draw is three builtin floats and needs no conversion; a numpy scalar
        # would print as np.float64(...) in a report row
        if latency_std_ms is not None or not (
                type(download_kbps) is type(upload_kbps) is type(latency_ms) is float):
            values = tuple([v.item() if isinstance(v, np.generic) else v for v in values])
            if bool in map(type, values):
                raise ValueError("bandwidths and latencies must be numbers, not booleans")
            download_kbps, upload_kbps, latency_ms, latency_std_ms = values
        # chained comparisons are false for NaN, so NaN is refused too
        if not (0 < download_kbps < inf and 0 < upload_kbps < inf and 0 <= latency_ms < inf):
            raise ValueError("bandwidths must be positive and latency nonnegative, all finite")
        if latency_std_ms is not None and not 0 <= latency_std_ms < inf:
            raise ValueError("latency std must be nonnegative and finite")
        return tuple.__new__(cls, values)

    _make = classmethod(lambda cls, iterable: cls(*iterable))  # so _replace checks too

    def __reduce__(self) -> tuple:  # so pickle and copy rebuild through __new__
        return type(self), tuple(self)


def silverman_factor(n: int, d: int) -> float:
    """Rule-of-thumb kernel bandwidth factor for n samples in d dimensions."""
    if n < 1 or d < 1:
        raise FitError("bandwidth factor needs at least one sample and one dimension")
    return float((n * (d + 2) / 4.0) ** (-1.0 / (d + 4)))


def _stored_points(points: np.ndarray) -> np.ndarray:
    """``points`` as the float array a model stores, or :class:`FitError`: the one rule."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 3 or len(points) < 2:
        raise FitError("points must be an (n, 3) array with n >= 2")
    if not np.isfinite(points).all():
        raise FitError("stored points must be finite")
    if not (points > 0).all():
        raise FitError("stored points must be positive")
    return points


@dataclass(frozen=True, eq=False)
class KdeModel:
    """Gaussian-kernel density over stored (download, upload, latency) points.

    Construction is the one check of what a model may hold: two or more finite, positive
    points and a kernel covariance ``bandwidth_factor**2 * covariance`` that it factors
    once. Else it raises :class:`FitError`: a model that exists can be saved and sampled.
    """

    points: np.ndarray
    covariance: np.ndarray
    bandwidth_factor: float

    def __post_init__(self) -> None:
        points = _stored_points(self.points)
        covariance = np.asarray(self.covariance, dtype=float)
        if not (covariance.shape == (3, 3) and np.isfinite(covariance).all()
                and np.allclose(covariance, covariance.T)):
            raise FitError("covariance must be a finite symmetric 3x3 matrix")
        with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN is refused below
            try:  # ``**2``, not np.square: the two round some factors apart, and draws follow it
                kernel = self.bandwidth_factor**2 * covariance
            except OverflowError:  # a Python float's square raises instead of giving inf
                kernel = np.full_like(covariance, inf)
        if not (self.bandwidth_factor > 0 and np.isfinite(kernel).all()):
            raise FitError("bandwidth_factor must be positive, with a finite kernel covariance")
        try:
            cholesky = np.linalg.cholesky(kernel)
        except np.linalg.LinAlgError:
            raise FitError("kernel covariance is not positive definite") from None
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "covariance", covariance)
        object.__setattr__(self, "_kernel_cholesky", cholesky)

    @property
    def n(self) -> int:
        return len(self.points)


def fit(samples: np.ndarray) -> KdeModel:
    """Fit a kernel density model with the rule-of-thumb bandwidth.

    ``samples`` must be points a :class:`KdeModel` may store. A dimension with zero
    variance makes the density degenerate and raises :class:`FitError` naming it.
    """
    points = _stored_points(samples)
    for dimension, variance in zip(DIMENSIONS, points.var(axis=0, ddof=1)):
        if variance == 0.0:
            raise FitError(f"zero variance in {dimension}; cannot fit a density")
    return KdeModel(
        points=points,
        covariance=np.cov(points, rowvar=False),
        bandwidth_factor=silverman_factor(len(points), points.shape[1]),
    )


def density(model: KdeModel, point: np.ndarray) -> Union[float, np.ndarray]:
    """Evaluate the model density at one point or a batch of points.

    Accepts shape (3,) or (m, 3); returns a float or an (m,) array.
    """
    x = np.asarray(point, dtype=float)
    single = x.ndim == 1
    batch = np.atleast_2d(x)
    if batch.ndim != 2 or batch.shape[1] != 3:
        raise ValueError("expected a point of shape (3,) or a batch (m, 3)")
    cholesky = model._kernel_cholesky
    linv = np.linalg.inv(cholesky)
    norm = _TWO_PI**-1.5 / float(np.prod(np.diag(cholesky)))
    # whitened coordinates turn the kernel quadratic form into a squared
    # euclidean distance, computed via one matrix product per chunk
    w = model.points @ linv.T
    w_sq = np.einsum("ij,ij->i", w, w)
    out = np.empty(len(batch))
    chunk = max(1, 4_000_000 // model.n)
    for lo in range(0, len(batch), chunk):
        z = batch[lo : lo + chunk] @ linv.T
        quad = np.einsum("ij,ij->i", z, z)[:, None] + w_sq[None, :] - 2.0 * (z @ w.T)
        np.maximum(quad, 0.0, out=quad)  # guard tiny negative rounding
        out[lo : lo + chunk] = np.exp(quad * -0.5, out=quad).mean(axis=1)
    return float(norm * out[0]) if single else norm * out


def sample_points(model: KdeModel, rng: np.random.Generator, count: int) -> np.ndarray:
    """Draw ``count`` finite, strictly positive points as a (count, 3) array: a draw's one check.

    Each draw is a uniformly chosen stored point plus zero-mean kernel noise, proposed in batches
    of at least ``BATCH``; draws with any nonpositive component are rejected and redrawn. If fewer
    than 1% of proposals survive after ``_REJECTION_WINDOW`` of them, the model is pathological.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    kept = [np.empty((0, 3))]
    accepted = proposed = 0
    while accepted < count:
        batch = max(count - accepted, BATCH)
        indexes = rng.integers(0, model.n, size=batch)
        # one batched product, as row by row the sums would round apart; the noise
        # first, so its temporary is freed before the points are gathered (peak RSS)
        noise = rng.standard_normal((batch, 3)) @ model._kernel_cholesky.T
        draws = model.points[indexes] + noise
        good = draws[(draws > 0.0).all(axis=1)]
        kept.append(good)
        accepted += len(good)
        proposed += batch
        if proposed >= _REJECTION_WINDOW and accepted < 0.01 * proposed:
            rate = 100.0 * (1.0 - accepted / proposed)
            raise PathologicalModelError(
                f"{rate:.1f}% of draws rejected after {proposed} proposals; "
                "model cannot produce strictly positive parameters"
            )
    return np.concatenate(kept)[:count]


def sample(model: KdeModel, rng: np.random.Generator, count: int) -> list[EmulationParams]:
    """The rows of :func:`sample_points` as parameter tuples: the same draws and ``rng`` state.

    They are built past the constructor, whose check each row passes: ``tolist`` gives builtin
    floats, the rejection test keeps positive rows, and a stored point (at most the largest
    float) plus a finite kernel's noise (under 1e156) is finite."""
    new = tuple.__new__
    return [new(EmulationParams, (download, upload, latency, None))
            for download, upload, latency in sample_points(model, rng, count).tolist()]
