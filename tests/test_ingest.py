"""Parsing and signal-binning behavior."""

import csv
import io

import numpy as np
import pytest
from conftest import CSV_HEADER, csv_stream

from errant import (
    COLUMNS,
    FormatError,
    Rat,
    SignalQuality,
    bin_signal,
    SpeedTests,
    parse_speedtests,
    write_rejects,
)
from errant.ingest import _parse_row

GOOD_ROW = "1600000000,Norway,Telia,4G,-70,20000,5000,40"


def test_parse_accepts_valid_row():
    tests, rejects = parse_speedtests(csv_stream([GOOD_ROW]))
    assert rejects == []
    assert len(tests) == 1
    assert tests.country[0] == "norway"
    assert tests.operator[0] == "telia"
    assert tests.rat[0] == Rat.FOUR_G
    assert tests.rssi[0] == -70.0
    assert tests.samples[0, 0] == 20000.0
    assert tests.samples[0, 1] == 5000.0
    assert tests.samples[0, 2] == 40.0


def test_country_operator_normalized():
    tests, _ = parse_speedtests(csv_stream(["1,  NORway , TELIA ,4g,-70,1,1,1"]))
    assert tests.country[0] == "norway"
    assert tests.operator[0] == "telia"
    assert tests.rat[0] == Rat.FOUR_G


def test_missing_rssi_is_missing_metadata():
    _, rejects = parse_speedtests(csv_stream(["1,norway,telia,4G,,20000,5000,40"]))
    (reject,) = rejects
    assert reject.reason == "missing metadata"
    assert reject.line == 2


def test_missing_rat_is_missing_metadata():
    _, rejects = parse_speedtests(csv_stream(["1,norway,telia,,-70,20000,5000,40"]))
    assert rejects[0].reason == "missing metadata"


def test_nonpositive_latency_rejected():
    _, rejects = parse_speedtests(csv_stream(["1,norway,telia,4G,-70,20000,5000,-3"]))
    assert rejects[0].reason == "nonpositive latency"


def test_nonpositive_bandwidths_rejected():
    tests, rejects = parse_speedtests(
        csv_stream(
            [
                "1,norway,telia,4G,-70,0,5000,40",
                "2,norway,telia,4G,-70,20000,-1,40",
            ]
        )
    )
    assert len(tests) == 0
    assert [r.reason for r in rejects] == ["nonpositive download", "nonpositive upload"]


def test_unparseable_and_unknown_values_rejected():
    _, rejects = parse_speedtests(
        csv_stream(
            [
                "1,norway,telia,4G,-70,fast,5000,40",
                "1,norway,telia,5G,-70,20000,5000,40",
                "1,norway,telia,4G,12,20000,5000,40",
            ]
        )
    )
    assert [r.reason for r in rejects] == [
        "unparseable download_kbps",
        "unknown rat '5G'",
        "positive rssi",
    ]


def test_speed_tests_columns_checked():
    text = np.array(["norway"])
    with pytest.raises(ValueError, match="one entry per row"):
        SpeedTests(text, text, np.array(["4G"]), np.array([-70.0]), np.ones((2, 3)))
    with pytest.raises(ValueError, match="Rat values"):
        SpeedTests(text, text, np.array(["5G"]), np.array([-70.0]), np.ones((1, 3)))


def test_no_header_is_fatal():
    with pytest.raises(FormatError):
        parse_speedtests(iter([]))


def test_missing_required_column_is_fatal():
    import io

    stream = io.StringIO("timestamp,country,operator,rat,rssi,download_kbps,upload_kbps\n")
    with pytest.raises(FormatError, match="latency_ms"):
        parse_speedtests(stream)


def test_schema_mapping_renames_columns():
    import io

    stream = io.StringIO(
        "ts,country,operator,rat,rssi,dl,ul,lat\n1,norway,telia,4G,-70,20000,5000,40\n"
    )
    tests, rejects = parse_speedtests(
        stream,
        schema={
            "timestamp": "ts",
            "download_kbps": "dl",
            "upload_kbps": "ul",
            "latency_ms": "lat",
        },
    )
    assert rejects == []
    assert tests.samples[0, 0] == 20000.0


def test_nothing_silently_dropped():
    rng = np.random.default_rng(3)
    rows = []
    for i in range(300):
        latency = rng.choice([-5, 40])
        rssi = rng.choice(["", "-80"])
        rows.append(f"{i},no,op,3G,{rssi},1000,500,{latency}")
    tests, rejects = parse_speedtests(csv_stream(rows))
    assert len(tests) + len(rejects) == 300


def test_write_rejects_appends_reason(tmp_path):
    _, rejects = parse_speedtests(csv_stream(["1,norway,telia,4G,-70,20000,5000,-3"]))
    out = tmp_path / "rej.csv"
    write_rejects(rejects, out, header=["a"] * 8)
    lines = out.read_text().splitlines()
    assert lines[0].endswith(",reason")
    assert lines[1].endswith(",nonpositive latency")


# Adversarial parse table. One variant per reject reason of _parse_row, in
# the layout of bench/datagen.py, which plants all but the two "/" reasons:
# (column to overwrite or None to truncate the row, value, reason).
REJECT_VARIANTS = [
    (None, None, "short row"),
    ("rssi", "", "missing metadata"),
    ("rat", "", "missing metadata"),
    ("timestamp", "", "missing timestamp"),
    ("country", "", "missing country"),
    ("operator", "", "missing operator"),
    ("download_kbps", "", "missing download_kbps"),
    ("upload_kbps", "", "missing upload_kbps"),
    ("latency_ms", "", "missing latency_ms"),
    ("country", "Nor/way", "'/' in country"),
    ("operator", "T/Mobile", "'/' in operator"),
    ("rat", "5G", "unknown rat '5G'"),
    ("timestamp", "yesterday", "unparseable timestamp"),
    ("rssi", "weak", "unparseable rssi"),
    ("download_kbps", "fast", "unparseable download_kbps"),
    ("upload_kbps", "n/a", "unparseable upload_kbps"),
    ("latency_ms", "12ms", "unparseable latency_ms"),
    ("timestamp", "inf", "non-finite timestamp"),
    ("rssi", "-inf", "non-finite rssi"),
    ("download_kbps", "nan", "non-finite download_kbps"),
    ("upload_kbps", "inf", "non-finite upload_kbps"),
    ("latency_ms", "NaN", "non-finite latency_ms"),
    ("rssi", "5", "positive rssi"),
    ("download_kbps", "0", "nonpositive download"),
    ("upload_kbps", "-3.5", "nonpositive upload"),
    ("latency_ms", "0", "nonpositive latency"),
]
BASE_ROW = ["1600000000", "Norway", "Telia", "4G", "-70", "20000", "5000", "40"]
NUMBERS = [
    "", " ", "1e3", " 1e3 ", "+5", "1_000", "nan", "NaN", "-inf", "inf", "Infinity",
    "-0.0", "0", "0.0", "-3.5", "-85", "-75", "-100", "abc", "12ms", "1e400",
    "-1e-400", "0x10", "\u0661\u0662", "7\t",
]
TRICKY = {
    "timestamp": NUMBERS,
    "country": ["Norway", " norway ", "  ", "", "Italy, north", "\u00d6sterreich", "\t", "/"],
    "operator": ["Telia", " ICE ", "  ", "", "a,b", "Wind Tre", " t/mobile "],
    "rat": ["4G", " 4g ", "3g", "3G ", "5G", "", " ", "4 G", "lte"],
    "rssi": NUMBERS,
    "download_kbps": NUMBERS,
    "upload_kbps": NUMBERS,
    "latency_ms": NUMBERS,
}


def adversarial_rows():
    """Rows as lists of fields: every reject variant, every tricky value per
    column, and seeded rows mixing tricky values and extra or missing cells."""
    rows = []
    for column, value, _ in REJECT_VARIANTS:
        row = list(BASE_ROW)
        if column is None:
            row = row[:5]
        else:
            row[COLUMNS.index(column)] = value
        rows.append(row)
    for column, values in TRICKY.items():
        for value in values:
            row = list(BASE_ROW)
            row[COLUMNS.index(column)] = value
            rows.append(row)
    rng = np.random.default_rng(17)
    for _ in range(600):
        row = [
            str(rng.choice(TRICKY[column])) if rng.random() < 0.3 else base
            for column, base in zip(COLUMNS, BASE_ROW)
        ]
        shape = rng.random()
        if shape < 0.05:
            row = row[: rng.integers(1, 8)]
        elif shape < 0.15:
            row += ["extra"] * int(rng.integers(1, 3))
        rows.append(row)
    return rows


def csv_text(header, rows):
    """CSV text with blank lines between some rows; quotes fields as needed."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for index, row in enumerate(rows):
        writer.writerow(row)
        if index % 50 == 0:
            out.write("\n")
    return out.getvalue()


def per_row_reference(text, schema=None):
    """Reference parse: _parse_row on each row, values read from the fields."""
    reader = csv.reader(io.StringIO(text))
    header = [cell.strip() for cell in next(reader)]
    names = dict(schema or {})
    positions = {column: header.index(names.get(column, column)) for column in COLUMNS}
    width = max(positions.values()) + 1
    accepted, rejects = [], []
    for line, row in enumerate(reader, start=2):
        if not row:
            continue
        reason = _parse_row(row, positions, width)
        if reason is not None:
            rejects.append((line, tuple(row), reason))
            continue
        raw = {column: row[index].strip() for column, index in positions.items()}
        accepted.append(
            (raw["country"].lower(), raw["operator"].lower(), raw["rat"].upper())
            + tuple(
                repr(float(raw[column]))
                for column in ("rssi", "download_kbps", "upload_kbps", "latency_ms")
            )
        )
    return accepted, rejects


def columnar(tests):
    values = np.column_stack([tests.rssi, tests.samples]).tolist()
    return [
        (country, operator, rat) + tuple(map(repr, row))
        for country, operator, rat, row in zip(
            tests.country.tolist(), tests.operator.tolist(), tests.rat.tolist(), values
        )
    ]


def check_agreement(text, schema=None):
    tests, rejects = parse_speedtests(io.StringIO(text), schema=schema)
    accepted, reference_rejects = per_row_reference(text, schema)
    assert columnar(tests) == accepted
    assert [(r.line, r.fields, r.reason) for r in rejects] == reference_rejects
    return accepted, reference_rejects


def test_columnar_parse_agrees_with_per_row_reference():
    rows = adversarial_rows()
    accepted, rejects = check_agreement(csv_text(CSV_HEADER.split(","), rows))
    reasons = [reason for _, _, reason in rejects]
    assert reasons[: len(REJECT_VARIANTS)] == [reason for _, _, reason in REJECT_VARIANTS]
    assert len(accepted) > 100 and len(rejects) > 100
    accepted_rssi = {row[3] for row in accepted}
    assert {"-0.0", "0.0", "-85.0", "-75.0", "-100.0"} <= accepted_rssi
    accepted_download = {row[4] for row in accepted}
    assert {"1000.0", "5.0"} <= accepted_download  # " 1e3 ", "+5", "1_000"
    assert "italy, north" in {row[0] for row in accepted}


def test_columnar_parse_agrees_under_schema_mapping():
    # file columns renamed, reordered and padded with an unmapped column
    order = [7, 3, 0, 1, 6, 2, 4, 5]
    names = ["ts", "country", "op", "rat", "signal", "dl", "ul", "lat"]
    schema = {
        "timestamp": "ts",
        "operator": "op",
        "rssi": "signal",
        "download_kbps": "dl",
        "upload_kbps": "ul",
        "latency_ms": "lat",
    }
    rows = [
        ["note"] + [row[index] for index in order if index < len(row)] + row[8:]
        for row in adversarial_rows()
    ]
    header = ["note"] + [names[index] for index in order]
    accepted, rejects = check_agreement(csv_text(header, rows), schema)
    assert len(accepted) > 100 and len(rejects) > 100


# Table of rssi bin edges: six boundary and six interior points per RAT.
BIN_CASES = [
    (Rat.THREE_G, -120.0, SignalQuality.BAD),
    (Rat.THREE_G, -100.0, SignalQuality.BAD),
    (Rat.THREE_G, -99.9, SignalQuality.ORDINARY),
    (Rat.THREE_G, -90.0, SignalQuality.ORDINARY),
    (Rat.THREE_G, -85.0, SignalQuality.ORDINARY),
    (Rat.THREE_G, -84.9, SignalQuality.GOOD),
    (Rat.THREE_G, -60.0, SignalQuality.GOOD),
    (Rat.FOUR_G, -110.0, SignalQuality.BAD),
    (Rat.FOUR_G, -85.0, SignalQuality.BAD),
    (Rat.FOUR_G, -84.9, SignalQuality.ORDINARY),
    (Rat.FOUR_G, -80.0, SignalQuality.ORDINARY),
    (Rat.FOUR_G, -75.0, SignalQuality.ORDINARY),
    (Rat.FOUR_G, -74.9, SignalQuality.GOOD),
    (Rat.FOUR_G, -70.0, SignalQuality.GOOD),
]


@pytest.mark.parametrize("rat,rssi,expected", BIN_CASES)
def test_bin_signal_table(rat, rssi, expected):
    assert bin_signal(rat, rssi) is expected


def test_bin_signal_total_and_monotone():
    rng = np.random.default_rng(7)
    order = {SignalQuality.BAD: 0, SignalQuality.ORDINARY: 1, SignalQuality.GOOD: 2}
    for rat in Rat:
        grid = np.sort(rng.uniform(-130, 0, size=500))
        levels = [order[bin_signal(rat, rssi)] for rssi in grid]
        assert levels == sorted(levels)
