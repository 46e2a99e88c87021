"""Grouping of validated measurements into network profiles, plus summary statistics.

Every measurement belongs to exactly one specific profile (country, operator,
RAT, signal quality) and exactly one universal profile (RAT, signal quality),
the latter pooling all countries and operators. A profile's key is its text,
e.g. ``specific/norway/telia/4G/good`` or ``universal/any/any/3G/bad``;
``ProfileKey(text)`` checks and normalizes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable

import numpy as np

from .errors import FormatError
from .ingest import _BIN_EDGES, Rat, SignalQuality, SpeedTests

# Order of the value columns everywhere in the toolkit.
DIMENSIONS = ("download", "upload", "latency")


def _member(kinds: type, value: str, refusal: str):
    try:
        return kinds(value)
    except ValueError:
        raise FormatError(refusal) from None


class ProfileKey(str):
    """A profile's canonical text, e.g. ``specific/norway/telia/4G/good``.

    The constructor is the one key parser: it checks the five parts and
    normalizes their case, and a universal key's country and operator read
    ``any``. A canonical plain ``str`` equals, and indexes like, its key.
    """

    __slots__ = ()

    def __new__(cls, text: str) -> "ProfileKey":
        parts = text.strip().split("/")
        if not all(map(str.isprintable, parts)):  # a key prints on one line, passes as an argument
            raise FormatError(f"unprintable character in profile key {text!r}")
        if len(parts) != 5:
            raise FormatError(
                f"bad profile key {text!r}; expected "
                "<specific|universal>/<country>/<operator>/<rat>/<quality>"
            )
        kind_text, country, operator, rat_text, quality_text = parts
        kind = kind_text.lower()
        if kind not in ("specific", "universal"):
            raise FormatError(f"bad profile kind {kind_text!r}")
        rat = _member(Rat, rat_text.upper(), f"unknown rat {rat_text!r}")
        quality = _member(SignalQuality, quality_text.lower(), f"unknown quality {quality_text!r}")
        if kind == "universal":
            country = operator = "any"
        elif not country or not operator:
            raise FormatError("specific profiles need a country and an operator")
        return super().__new__(cls, f"{kind}/{country.lower()}/{operator.lower()}/{rat}/{quality}")

    from_string = classmethod(__new__)  # the older spelling of ProfileKey(text)


def build_profiles(tests: SpeedTests) -> Dict[ProfileKey, np.ndarray]:
    """Group measurements into specific and universal profiles.

    A profile is its key mapped to its rows of ``tests.samples``, an (n, 3)
    array. Each measurement contributes its sample to its specific profile
    and to the matching universal profile. Samples keep their input order,
    and profiles come in the order their first measurement appears, each
    specific profile before its universal one.
    """
    # a cell is one (rat, quality) pair, numbered rat * 3 + quality; searchsorted
    # puts a value on an edge in the weaker bin, as bin_signal does
    cell_keys = [(rat, level) for rat in _BIN_EDGES for level in SignalQuality]
    rat_number = {rat.value: number for number, rat in enumerate(_BIN_EDGES)}
    name_rat = np.array([rat_number[rat] for _, _, rat in tests.names], dtype=np.int8)
    row_rat = name_rat[tests.name_index]
    cell = row_rat * len(SignalQuality)
    for index, edges in enumerate(_BIN_EDGES.values()):
        rows = row_rat == index
        cell[rows] += np.searchsorted(edges, tests.rssi[rows])
    # a group is one (name, cell); a stable sort lists each group's rows in input order,
    # and a group's first row places its profile
    group = tests.name_index.astype(np.intp)  # so a narrow index type cannot overflow
    group *= len(cell_keys)
    group += cell
    rows = np.argsort(group, kind="stable")
    group = group[rows]
    starts = np.flatnonzero(np.diff(group, prepend=-1))
    members = np.split(rows, starts[1:])
    profiles: Dict[ProfileKey, np.ndarray] = {}
    for position in np.argsort(rows[starts]).tolist():
        name, index = divmod(int(group[starts[position]]), len(cell_keys))
        (country, operator, _), (rat, level) = tests.names[name], cell_keys[index]
        text = f"specific/{country}/{operator}/{rat}/{level}"
        key = ProfileKey(text)
        if key != text:  # two spellings of one name would share, and overwrite, a key
            raise FormatError(f"country and operator must be lower-case: {text!r}")
        profiles[key] = tests.samples[members[position]]
        universal = ProfileKey(f"universal/any/any/{rat}/{level}")
        if universal not in profiles:  # this group holds the cell's first row
            profiles[universal] = tests.samples[np.flatnonzero(cell == index)]
    return profiles


def filter_profiles(
    profiles: Dict[ProfileKey, np.ndarray], min_samples: int = 100
) -> Dict[ProfileKey, np.ndarray]:
    """Drop profiles with fewer than ``min_samples`` measurements."""
    if min_samples < 1:
        raise ValueError("min_samples must be at least 1")
    return {key: samples for key, samples in profiles.items() if len(samples) >= min_samples}


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
