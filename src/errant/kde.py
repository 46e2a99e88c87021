"""Three-dimensional Gaussian kernel density models of network conditions.

A model keeps the raw (download, upload, latency) points it was fitted on;
every point carries a Gaussian kernel whose covariance is the sample
covariance scaled by the squared rule-of-thumb bandwidth factor. Sampling
draws a stored point uniformly at random and adds kernel noise, rejecting
draws with any nonpositive component.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import inf
from typing import Optional, Union

import numpy as np

from .errors import FitError, PathologicalModelError
from .profiles import DIMENSIONS

_TWO_PI = 2.0 * np.pi
# Acceptance-rate guard: after this many proposals, sampling gives up when
# fewer than 1% of draws come out strictly positive.
_REJECTION_WINDOW = 1000


@dataclass(frozen=True)
class EmulationParams:
    """One (download, upload, latency) tuple ready to hand to a backend.

    ``latency_std_ms`` makes the latency normally distributed around
    ``latency_ms``; without it the latency is constant.
    """

    download_kbps: float
    upload_kbps: float
    latency_ms: float
    latency_std_ms: Optional[float] = None

    def __post_init__(self) -> None:
        # chained comparisons are false for NaN, so NaN is refused too
        if not (
            0 < self.download_kbps < inf
            and 0 < self.upload_kbps < inf
            and 0 <= self.latency_ms < inf
        ):
            raise ValueError("bandwidths must be positive and latency nonnegative, all finite")
        if self.latency_std_ms is not None and not 0 <= self.latency_std_ms < inf:
            raise ValueError("latency std must be nonnegative and finite")


def silverman_factor(n: int, d: int) -> float:
    """Rule-of-thumb kernel bandwidth factor for n samples in d dimensions."""
    if n < 1 or d < 1:
        raise FitError("bandwidth factor needs at least one sample and one dimension")
    return float((n * (d + 2) / 4.0) ** (-1.0 / (d + 4)))


@dataclass(frozen=True, eq=False)
class KdeModel:
    """Gaussian-kernel density over stored (download, upload, latency) points."""

    points: np.ndarray
    covariance: np.ndarray
    bandwidth_factor: float

    def __post_init__(self) -> None:
        points = np.asarray(self.points, dtype=float)
        covariance = np.asarray(self.covariance, dtype=float)
        if points.ndim != 2 or points.shape[1] != 3 or points.shape[0] == 0:
            raise FitError("points must be a non-empty (n, 3) array")
        if covariance.shape != (3, 3) or not np.allclose(covariance, covariance.T):
            raise FitError("covariance must be a symmetric 3x3 matrix")
        if not np.isfinite(points).all() or not np.isfinite(covariance).all():
            raise FitError("points and covariance must be finite")
        with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN is refused below
            kernel = np.square(self.bandwidth_factor) * covariance
        if not (self.bandwidth_factor > 0 and np.isfinite(kernel).all()):
            raise FitError("bandwidth_factor must be positive, with a finite kernel covariance")
        eigenvalues = np.linalg.eigvalsh(covariance)
        if eigenvalues.min() < -1e-9 * max(1.0, eigenvalues.max()):
            raise FitError("covariance must be positive semi-definite")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "covariance", covariance)

    @property
    def n(self) -> int:
        return len(self.points)

    @cached_property
    def kernel_covariance(self) -> np.ndarray:
        """Covariance of each point's kernel: bandwidth_factor**2 * covariance."""
        return self.bandwidth_factor**2 * self.covariance

    @cached_property
    def _kernel_cholesky(self) -> np.ndarray:
        try:
            return np.linalg.cholesky(self.kernel_covariance)
        except np.linalg.LinAlgError:
            raise FitError("kernel covariance is singular") from None


def fit(samples: np.ndarray) -> KdeModel:
    """Fit a kernel density model with the rule-of-thumb bandwidth.

    ``samples`` is an (n, 3) array with n >= 2. A dimension with zero variance
    makes the density degenerate and raises :class:`FitError` naming it.
    """
    points = np.asarray(samples, dtype=float)
    if points.ndim != 2 or points.shape[1] != 3:
        raise FitError("expected samples with shape (n, 3)")
    if len(points) < 2:
        raise FitError("need at least 2 samples to fit a model")
    for dimension, variance in zip(DIMENSIONS, points.var(axis=0, ddof=1)):
        if variance == 0.0:
            raise FitError(f"zero variance in {dimension}; cannot fit a density")
    model = KdeModel(
        points=points,
        covariance=np.cov(points, rowvar=False),
        bandwidth_factor=silverman_factor(len(points), points.shape[1]),
    )
    _ = model._kernel_cholesky  # fail now if the covariance is singular
    return model


def density(model: KdeModel, point: np.ndarray) -> Union[float, np.ndarray]:
    """Evaluate the model density at one point or a batch of points.

    Accepts shape (3,) or (m, 3); returns a float or an (m,) array.
    """
    x = np.asarray(point, dtype=float)
    single = x.ndim == 1
    batch = np.atleast_2d(x)
    if batch.ndim != 2 or batch.shape[1] != 3:
        raise ValueError("expected a point of shape (3,) or a batch (m, 3)")
    values = _density_batch(model, batch)
    return float(values[0]) if single else values


def _density_batch(model: KdeModel, x: np.ndarray) -> np.ndarray:
    cholesky = model._kernel_cholesky
    linv = np.linalg.inv(cholesky)
    norm = _TWO_PI**-1.5 / float(np.prod(np.diag(cholesky)))
    # whitened coordinates turn the kernel quadratic form into a squared
    # euclidean distance, computed via one matrix product per chunk
    w = model.points @ linv.T
    w_sq = np.einsum("ij,ij->i", w, w)
    out = np.empty(len(x))
    chunk = max(1, 4_000_000 // model.n)
    for lo in range(0, len(x), chunk):
        z = x[lo : lo + chunk] @ linv.T
        quad = np.einsum("ij,ij->i", z, z)[:, None] + w_sq[None, :] - 2.0 * (z @ w.T)
        np.maximum(quad, 0.0, out=quad)  # guard tiny negative rounding
        out[lo : lo + chunk] = np.exp(quad * -0.5, out=quad).mean(axis=1)
    return norm * out


def sample_points(model: KdeModel, rng: np.random.Generator, count: int) -> np.ndarray:
    """Draw ``count`` strictly positive points as a (count, 3) array.

    Each draw is a uniformly chosen stored point plus zero-mean kernel noise;
    draws with any nonpositive component are rejected and redrawn. If fewer
    than 1% of proposals survive after ``_REJECTION_WINDOW`` of them, the
    model is declared pathological.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    cholesky = model._kernel_cholesky
    kept = [np.empty((0, 3))]
    accepted = 0
    proposed = 0
    while accepted < count:
        batch = max(count - accepted, 256)
        indexes = rng.integers(0, model.n, size=batch)
        noise = rng.standard_normal((batch, 3)) @ cholesky.T
        draws = model.points[indexes] + noise
        good = draws[(draws > 0.0).all(axis=1)]
        kept.append(good)
        accepted += len(good)
        proposed += batch
        _check_acceptance(accepted, proposed)
    return np.concatenate(kept)[:count]


def sample(model: KdeModel, rng: np.random.Generator, count: int) -> list[EmulationParams]:
    """Draw ``count`` strictly positive parameter tuples from the model.

    Makes the same random draws as :func:`sample_points` and returns the same
    values, leaving ``rng`` in the same state, but scans the proposals in
    order and stops at the last one it keeps, so a few draws cost far less.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    cholesky = model._kernel_cholesky
    points = model.points
    kept: list[EmulationParams] = []
    proposed = 0
    while len(kept) < count:
        batch = max(count - len(kept), 256)
        indexes = rng.integers(0, model.n, size=batch)
        # one batched product, as in sample_points: row by row the sums differ
        noise = rng.standard_normal((batch, 3)) @ cholesky.T
        accepted = len(kept)  # every earlier batch was scanned in full
        for index, offset in zip(indexes, noise):
            down, up, lat = (points[index] + offset).tolist()
            if down > 0.0 and up > 0.0 and lat > 0.0:
                kept.append(EmulationParams(down, up, lat))
                if len(kept) == count:
                    break
        proposed += batch
        if proposed >= _REJECTION_WINDOW:  # only then can the guard fire
            # it counts every positive row of the batch, as sample_points does
            accepted += int(((points[indexes] + noise) > 0.0).all(axis=1).sum())
            _check_acceptance(accepted, proposed)
    return kept


def _check_acceptance(accepted: int, proposed: int) -> None:
    if proposed >= _REJECTION_WINDOW and accepted < 0.01 * proposed:
        rate = 100.0 * (1.0 - accepted / proposed)
        raise PathologicalModelError(
            f"{rate:.1f}% of draws rejected after {proposed} proposals; "
            "model cannot produce strictly positive parameters"
        )
