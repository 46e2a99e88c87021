"""Speed-test CSV ingestion: parsing, row validation, signal-quality binning.

The canonical input schema is one measurement per row with the columns
``timestamp, country, operator, rat, rssi, download_kbps, upload_kbps,
latency_ms``. Files using different column names can be read by passing a
schema mapping from canonical names to the names actually present.

:func:`_parse_row` is the one statement of a row's rule, name cells included.
Accepted rows are held compactly: each distinct (country, operator, rat) name
once, judged by ``_parse_row`` and normalized once per distinct raw triple of
cells, and per row only an integer code for its name and four doubles.
"""

from __future__ import annotations

import csv
import enum
import math
from array import array
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, Optional

import numpy as np

from .errors import FormatError

COLUMNS = (
    "timestamp",
    "country",
    "operator",
    "rat",
    "rssi",
    "download_kbps",
    "upload_kbps",
    "latency_ms",
)


class Rat(str, enum.Enum):
    """Radio access technology of a measurement."""

    THREE_G = "3G"
    FOUR_G = "4G"

    def __str__(self) -> str:
        return self.value


class SignalQuality(str, enum.Enum):
    """Signal-strength level, binned per RAT."""

    BAD = "bad"
    ORDINARY = "ordinary"
    GOOD = "good"

    def __str__(self) -> str:
        return self.value


# Per-RAT rssi bin edges in dB: (bad upper bound, ordinary upper bound),
# both inclusive on the weaker side.
_BIN_EDGES = {
    Rat.THREE_G: (-100.0, -85.0),
    Rat.FOUR_G: (-85.0, -75.0),
}


_RATS = frozenset(rat.value for rat in Rat)


def bin_signal(rat: Rat, rssi: float) -> SignalQuality:
    """Map a signal strength in dB to a quality level for the given RAT."""
    bad_upper, ordinary_upper = _BIN_EDGES[rat]
    if rssi <= bad_upper:
        return SignalQuality.BAD
    if rssi <= ordinary_upper:
        return SignalQuality.ORDINARY
    return SignalQuality.GOOD


@dataclass(frozen=True, eq=False)
class SpeedTests:
    """Validated speed-test measurements: each distinct name once, then one entry per row.

    ``names`` lists each distinct (country, operator, rat) once: country and
    operator lower-case text, rat a :class:`Rat` value ("3G", "4G"). Row ``i``
    has the name ``names[name_index[i]]``, its rssi in dB ``rssi[i]`` and its
    (download kbit/s, upload kbit/s, latency ms) ``samples[i]``, every one finite
    and strictly positive; construction refuses any other.
    """

    names: tuple[tuple[str, str, str], ...]
    name_index: np.ndarray
    rssi: np.ndarray
    samples: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.samples)
        if np.shape(self.samples) != (n, 3) or len(self.name_index) != n or len(self.rssi) != n:
            raise ValueError("every SpeedTests column needs one entry per row")
        if len(set(self.names)) != len(self.names):
            raise ValueError("SpeedTests.names must be distinct")
        if any(rat not in _RATS for _, _, rat in self.names):
            raise ValueError("SpeedTests.names must hold Rat values")
        index = np.asarray(self.name_index)
        if index.dtype.kind not in "iu" or ((index < 0) | (index >= len(self.names))).any():
            raise ValueError("SpeedTests.name_index must number entries of names")
        if not ((self.samples > 0) & (self.samples < math.inf)).all():  # NaN fails both
            raise ValueError("SpeedTests.samples must be finite and strictly positive")

    def __len__(self) -> int:
        return len(self.samples)


@dataclass(frozen=True)
class RejectedRow:
    """An input row that failed validation, with the first reason found."""

    line: int
    fields: tuple[str, ...]
    reason: str


# Columns that must parse as numbers.
_NUMERIC = ("timestamp", "rssi", "download_kbps", "upload_kbps", "latency_ms")
# Short labels used in reject reasons for the measurement columns.
_MEASUREMENTS = (
    ("download_kbps", "download"),
    ("upload_kbps", "upload"),
    ("latency_ms", "latency"),
)


def parse_speedtests(
    source: Iterable[str],
    schema: Optional[Mapping[str, str]] = None,
) -> tuple[SpeedTests, list[RejectedRow]]:
    """Parse a speed-test CSV into accepted measurements and rejected rows.

    ``source`` is an iterable of text lines starting with a header row.
    ``schema`` maps canonical column names to the names used in the file.
    Every data row ends up either in the returned :class:`SpeedTests` or as
    a ``RejectedRow`` with the reason it was refused; nothing is silently
    dropped. A missing header or required column, a line csv cannot read, or
    text the source cannot decode raises :class:`FormatError`.
    """
    reader = csv.reader(source)
    rows = _rows(reader)
    try:
        header = [cell.strip() for cell in next(rows)]
    except StopIteration:
        raise FormatError("input has no header row") from None
    mapping = dict(schema) if schema else {}
    positions = {}
    for column in COLUMNS:
        name = mapping.get(column, column)
        try:
            positions[column] = header.index(name)
        except ValueError:
            raise FormatError(f"required column {name!r} not in header") from None

    width = max(positions.values()) + 1
    # raises IndexError exactly when the row is shorter than ``width``
    pick = itemgetter(*(positions[column] for column in COLUMNS))
    inf = math.inf
    names: dict[tuple[str, str, str], int] = {}  # each accepted name and its code
    codes: dict[tuple[str, str, str], int] = {}  # each raw triple of name cells: its code, or -1
    name_index = array("i")  # compact: the code of each accepted row's name
    values = array("d")  # compact: rssi, download, upload, latency of each row as 8-byte doubles
    rejects: list[RejectedRow] = []
    for line, row in enumerate(rows, start=2):
        if not row:
            continue
        # The fast check passes exactly the numbers _parse_row passes; on such a row
        # only the name cells can fail, so _parse_row, the one statement of the name
        # rule, judges each new raw triple once. Every refusal leaves by the except.
        try:
            timestamp, country, operator, rat, rssi, download, upload, latency = pick(row)
            timestamp, rssi = float(timestamp), float(rssi)
            download, upload, latency = float(download), float(upload), float(latency)
            if not (-inf < timestamp < inf and -inf < rssi <= 0
                    and 0 < download < inf and 0 < upload < inf and 0 < latency < inf):
                raise ValueError
            code = codes.get((country, operator, rat))
            if code is None:
                name = country.strip().lower(), operator.strip().lower(), rat.strip().upper()
                code = -1 if _parse_row(row, positions, width) else names.setdefault(name, len(names))
                codes[country, operator, rat] = code
            if code < 0:
                raise ValueError
        except (IndexError, ValueError):
            reason = _parse_row(row, positions, width)
            rejects.append(RejectedRow(line=line, fields=tuple(row), reason=reason))
            continue
        name_index.append(code)
        values.extend((rssi, download, upload, latency))
    table = np.frombuffer(values, dtype=float).reshape(-1, 4)
    tests = SpeedTests(
        names=tuple(names),
        name_index=np.frombuffer(name_index, dtype=np.intc),
        rssi=table[:, 0],
        samples=table[:, 1:],
    )
    return tests, rejects


def _rows(reader) -> Iterator[list[str]]:
    """The reader's rows; a line csv cannot read, or bytes that do not decode, raise FormatError."""
    try:
        yield from reader
    except csv.Error as exc:
        raise FormatError(f"line {reader.line_num}: {exc}") from None
    except UnicodeDecodeError as exc:  # decoding runs a chunk ahead, so it names no line
        raise FormatError(f"input is not {exc.encoding} text: {exc.reason}") from None


def _parse_row(row: list[str], positions: dict[str, int], width: int) -> Optional[str]:
    """The first reason one data row fails validation, or None if it passes."""
    if len(row) < width:
        return "short row"
    raw = {column: row[index].strip() for column, index in positions.items()}
    # rssi and rat are the metadata needed to place a record in a profile
    if not raw["rssi"] or not raw["rat"]:
        return "missing metadata"
    for column in COLUMNS:
        if not raw[column]:
            return f"missing {column}"
    # "/" separates the parts of a profile key, which must read back as written,
    # "#" starts a comment in a trace-run scenario, which must name the key, and
    # a key must print on one line and pass as an argument
    for column in ("country", "operator"):
        for char in "/#":
            if char in raw[column]:
                return f"'{char}' in {column}"
        if not raw[column].isprintable():
            return f"unprintable character in {column}"
    try:
        Rat(raw["rat"].upper())
    except ValueError:
        return f"unknown rat {raw['rat']!r}"
    values = {}
    for column in _NUMERIC:
        try:
            values[column] = float(raw[column])
        except ValueError:
            return f"unparseable {column}"
        if not math.isfinite(values[column]):
            return f"non-finite {column}"
    if values["rssi"] > 0:
        return "positive rssi"
    for column, label in _MEASUREMENTS:
        if values[column] <= 0:
            return f"nonpositive {label}"
    return None


def write_rejects(rejects: Iterable[RejectedRow], path: str, header: Iterable[str]) -> None:
    """Write rejected rows to a CSV with the reason appended as a last column."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(list(header) + ["reason"])
        for reject in rejects:
            writer.writerow(list(reject.fields) + [reject.reason])
