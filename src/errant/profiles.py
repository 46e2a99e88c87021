"""Grouping of validated measurements into network profiles, plus summary statistics.

Every measurement belongs to exactly one specific profile (country, operator,
RAT, signal quality) and exactly one universal profile (RAT, signal quality),
the latter pooling all countries and operators.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, Optional

import numpy as np

from .errors import FormatError
from .ingest import _BIN_EDGES, Rat, SignalQuality, SpeedTests

# Order of the value columns everywhere in the toolkit.
DIMENSIONS = ("download", "upload", "latency")


class ProfileKind(str, enum.Enum):
    SPECIFIC = "specific"
    UNIVERSAL = "universal"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class ProfileKey:
    """Identity of a profile; country/operator are None for universal profiles."""

    kind: ProfileKind
    country: Optional[str]
    operator: Optional[str]
    rat: Rat
    quality: SignalQuality

    def __post_init__(self) -> None:
        if self.kind is ProfileKind.SPECIFIC:
            if not self.country or not self.operator:
                raise FormatError("specific profiles need a country and an operator")
        elif self.country is not None or self.operator is not None:
            raise FormatError("universal profiles must not carry country/operator")

    def as_string(self) -> str:
        """Stable text form, e.g. ``specific/norway/telia/4G/good``."""
        country = self.country if self.kind is ProfileKind.SPECIFIC else "any"
        operator = self.operator if self.kind is ProfileKind.SPECIFIC else "any"
        return f"{self.kind}/{country}/{operator}/{self.rat}/{self.quality}"

    @classmethod
    def from_string(cls, text: str) -> "ProfileKey":
        parts = text.strip().split("/")
        if len(parts) != 5:
            raise FormatError(
                f"bad profile key {text!r}; expected "
                "<specific|universal>/<country>/<operator>/<rat>/<quality>"
            )
        kind_text, country, operator, rat_text, quality_text = parts
        try:
            kind = ProfileKind(kind_text.lower())
        except ValueError:
            raise FormatError(f"bad profile kind {kind_text!r}") from None
        try:
            rat = Rat(rat_text.upper())
        except ValueError:
            raise FormatError(f"unknown rat {rat_text!r}") from None
        try:
            quality = SignalQuality(quality_text.lower())
        except ValueError:
            raise FormatError(f"unknown quality {quality_text!r}") from None
        if kind is ProfileKind.UNIVERSAL:
            return cls(kind, None, None, rat, quality)
        return cls(kind, country.lower(), operator.lower(), rat, quality)


@dataclass(frozen=True, eq=False)
class Profile:
    """A profile key plus its (download, upload, latency) samples.

    ``samples`` is an (n, 3) float array in kbit/s, kbit/s, ms; all values
    strictly positive.
    """

    key: ProfileKey
    samples: np.ndarray

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 2 or samples.shape[1] != 3 or samples.shape[0] == 0:
            raise ValueError("samples must be a non-empty (n, 3) array")
        if not np.isfinite(samples).all() or not (samples > 0).all():
            raise ValueError("samples must be finite and strictly positive")
        object.__setattr__(self, "samples", samples)

    @property
    def n(self) -> int:
        return len(self.samples)


def build_profiles(tests: SpeedTests) -> Dict[ProfileKey, Profile]:
    """Group measurements into specific and universal profiles.

    Each measurement contributes its (download, upload, latency) sample to
    its specific profile and to the matching universal profile. Samples keep
    their input order, and profiles come in the order their first
    measurement appears, each specific profile before its universal one.
    """
    # a cell is one (rat, quality) pair, numbered rat * 3 + quality; searchsorted
    # puts a value on an edge in the weaker bin, as bin_signal does
    cell_keys = [(rat, level) for rat in _BIN_EDGES for level in SignalQuality]
    cell = np.empty(len(tests), dtype=np.intp)
    for index, (rat, edges) in enumerate(_BIN_EDGES.items()):
        rows = tests.rat == rat.value
        cell[rows] = index * len(SignalQuality) + np.searchsorted(edges, tests.rssi[rows])
    # number each (country, operator, cell) in the order its first row appears
    numbers: Dict[tuple[str, str, int], int] = {}
    triples = zip(tests.country.tolist(), tests.operator.tolist(), cell.tolist())
    group = np.array([numbers.setdefault(key, len(numbers)) for key in triples], dtype=np.intp)
    members = np.split(np.argsort(group, kind="stable"), np.cumsum(np.bincount(group))[:-1])
    profiles: Dict[ProfileKey, Profile] = {}
    for (country, operator, index), rows in zip(numbers, members):
        rat, level = cell_keys[index]
        key = ProfileKey(ProfileKind.SPECIFIC, country, operator, rat, level)
        profiles[key] = Profile(key, tests.samples[rows])
        universal = ProfileKey(ProfileKind.UNIVERSAL, None, None, rat, level)
        if universal not in profiles:  # this group holds the cell's first row
            profiles[universal] = Profile(universal, tests.samples[np.flatnonzero(cell == index)])
    return profiles


def filter_profiles(
    profiles: Dict[ProfileKey, Profile], min_samples: int = 100
) -> Dict[ProfileKey, Profile]:
    """Drop profiles with fewer than ``min_samples`` measurements."""
    if min_samples < 1:
        raise ValueError("min_samples must be at least 1")
    return {key: prof for key, prof in profiles.items() if prof.n >= min_samples}


@dataclass(frozen=True)
class DimensionStats:
    """Quantile summary of one scalar series."""

    median: float
    q1: float
    q3: float
    p5: float
    p95: float

    @property
    def iqr(self) -> float:
        return self.q3 - self.q1


def dimension_stats(values: Iterable[float]) -> DimensionStats:
    """Summarize one series; quantiles use linear interpolation."""
    series = np.asarray(values, dtype=float)
    if series.size == 0:
        raise ValueError("cannot summarize an empty series")
    p5, q1, median, q3, p95 = np.percentile(series, [5, 25, 50, 75, 95])
    return DimensionStats(
        median=float(median),
        q1=float(q1),
        q3=float(q3),
        p5=float(p5),
        p95=float(p95),
    )
