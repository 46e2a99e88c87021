"""Seeded synthetic inputs for the benchmark: a speed-test CSV and a model bundle.

Measurements follow the lognormal marginals and correlation of the test
suite's generator (download ~20 Mbit/s, upload ~8 Mbit/s, latency ~40 ms),
shifted per radio technology and signal quality. Rows spread with a skew over
countries, operators, technologies and RSSI bins. The CSV also carries an
exact, known number of malformed rows covering every reject reason of
``errant.ingest``, plus blank lines, which are not rows at all.

Run as a script, it writes one input file and prints a JSON summary of what
it planted; the benchmark runs it in a child process so that generating the
inputs does not count towards the measuring process's peak memory.

    python bench/datagen.py csv --seed 1 --rows 200000 --out data.csv
    python bench/datagen.py bundle --seed 1 --rows 200000 --out models.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

# Same population as the test suite's lognormal generator.
LOG_MEANS = np.log([20000.0, 8000.0, 40.0])
LOG_SIGMAS = np.array([0.5, 0.5, 0.3])
LOG_CORR = np.array(
    [
        [1.0, 0.5, -0.3],
        [0.5, 1.0, -0.2],
        [-0.3, -0.2, 1.0],
    ]
)

CSV_HEADER = "timestamp,country,operator,rat,rssi,download_kbps,upload_kbps,latency_ms"
MIN_SAMPLES = 100  # build-models default: smaller profiles get no model

# Skewed weights: a few large profiles and a tail of small ones, some of
# which fall under MIN_SAMPLES and are filtered out.
COUNTRIES = {
    "norway": (0.45, ("telia", "telenor", "ice")),
    "sweden": (0.25, ("telia", "tele2", "tre")),
    "italy": (0.20, ("tim", "vodafone", "windtre")),
    "spain": (0.10, ("movistar", "orange")),
    "iceland": (0.004, ("siminn", "nova")),
}
RATS = {"4G": 0.7, "3G": 0.3}
QUALITIES = {"good": 0.45, "ordinary": 0.35, "bad": 0.20}
# Inclusive integer RSSI ranges per (rat, quality); they include the bin
# edges -100/-85 (3G) and -85/-75 (4G), which belong to the weaker bin.
RSSI_RANGES = {
    ("3G", "bad"): (-115, -100),
    ("3G", "ordinary"): (-99, -85),
    ("3G", "good"): (-84, -55),
    ("4G", "bad"): (-110, -85),
    ("4G", "ordinary"): (-84, -75),
    ("4G", "good"): (-74, -50),
}
# Multiplicative shifts of the (download, upload, latency) medians.
RAT_SCALE = {"4G": (1.0, 1.0, 1.0), "3G": (0.25, 0.3, 1.8)}
QUALITY_SCALE = {"good": (1.0, 1.0, 1.0), "ordinary": (0.7, 0.7, 1.15), "bad": (0.4, 0.4, 1.4)}

# One malformed-row variant per reject reason of ingest._parse_row: the
# field to overwrite (None: truncate the row) and the exact reason expected.
# Field order is the canonical CSV_HEADER order.
_FIELDS = CSV_HEADER.split(",")
MALFORMED = (
    (None, None, "short row"),
    ("rssi", "", "missing metadata"),
    ("rat", "", "missing metadata"),
    ("timestamp", "", "missing timestamp"),
    ("country", "", "missing country"),
    ("operator", "", "missing operator"),
    ("download_kbps", "", "missing download_kbps"),
    ("upload_kbps", "", "missing upload_kbps"),
    ("latency_ms", "", "missing latency_ms"),
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
)


def _profiles():
    """All (country, operator, rat, quality) combinations with their weights."""
    combos, weights = [], []
    for country, (country_weight, operators) in COUNTRIES.items():
        # operator shares fall off as 1/rank^1.5 within a country
        shares = np.array([1.0 / (rank + 1) ** 1.5 for rank in range(len(operators))])
        shares /= shares.sum()
        for operator, share in zip(operators, shares):
            for rat, rat_weight in RATS.items():
                for quality, quality_weight in QUALITIES.items():
                    combos.append((country, operator, rat, quality))
                    weights.append(country_weight * share * rat_weight * quality_weight)
    weights = np.array(weights)
    return combos, weights / weights.sum()


def measurements(rows: int, seed: int):
    """Valid rows as (profile combos, per-row combo index, rssi, values)."""
    rng = np.random.default_rng(seed)
    combos, weights = _profiles()
    which = rng.choice(len(combos), size=rows, p=weights)
    cov = LOG_CORR * np.outer(LOG_SIGMAS, LOG_SIGMAS)
    logs = rng.multivariate_normal(LOG_MEANS, cov, size=rows)
    shift = np.log(
        [np.multiply(RAT_SCALE[c[2]], QUALITY_SCALE[c[3]]) for c in combos]
    )
    values = np.round(np.exp(logs + shift[which]), 3)
    low = np.array([RSSI_RANGES[(c[2], c[3])][0] for c in combos])
    high = np.array([RSSI_RANGES[(c[2], c[3])][1] for c in combos])
    rssi = rng.integers(low[which], high[which] + 1)
    return combos, which, rssi, values


def expected_profiles(combos, which) -> dict[str, int]:
    """Profile key -> sample count, for every profile build-models keeps."""
    counts = np.bincount(which, minlength=len(combos))
    found: dict[str, int] = {}
    for (country, operator, rat, quality), count in zip(combos, counts):
        found[f"specific/{country}/{operator}/{rat}/{quality}"] = int(count)
        universal = f"universal/any/any/{rat}/{quality}"
        found[universal] = found.get(universal, 0) + int(count)
    return {key: n for key, n in sorted(found.items()) if n >= MIN_SAMPLES}


def write_csv(path: Path, rows: int, seed: int) -> dict:
    """Write ``rows`` valid rows plus planted malformed rows and blank lines."""
    combos, which, rssi, values = measurements(rows, seed)
    rng = np.random.default_rng([seed, 1])
    lines = [
        f"{1600000000 + i},{combos[k][0]},{combos[k][1]},{combos[k][2]},{r},"
        f"{v[0]:.3f},{v[1]:.3f},{v[2]:.3f}"
        for i, (k, r, v) in enumerate(zip(which.tolist(), rssi.tolist(), values.tolist()))
    ]
    # about 0.5% malformed rows, each variant planted the same number of times
    per_variant = max(1, rows // 200 // len(MALFORMED))
    bad = []
    reasons: dict[str, int] = {}
    for field, text, reason in MALFORMED:
        for base in rng.integers(0, rows, size=per_variant).tolist():
            cells = lines[base].split(",")
            if field is None:
                cells = cells[: len(cells) - 1 - int(rng.integers(0, 4))]
            else:
                cells[_FIELDS.index(field)] = text
            bad.append(",".join(cells))
            reasons[reason] = reasons.get(reason, 0) + 1
    blanks = [""] * max(1, rows // 4000)
    extra = bad + blanks
    # scatter the extra lines over random positions of the file
    total = len(lines) + len(extra)
    slots = rng.choice(total, size=len(extra), replace=False).tolist()
    placed = dict(zip(slots, rng.permutation(len(extra)).tolist()))
    valid = iter(lines)
    out = [
        next(valid) if position not in placed else extra[placed[position]]
        for position in range(total)
    ]
    path.write_text(CSV_HEADER + "\n" + "\n".join(out) + "\n", encoding="utf-8")
    return {
        "rows": len(lines),
        "rejects": len(bad),
        "reasons": reasons,
        "blank_lines": len(blanks),
        "profiles": expected_profiles(combos, which),
    }


def write_bundle(path: Path, rows: int, seed: int) -> dict:
    """Fit and save the models build-models would make from the same rows."""
    from errant import ModelBundle, ProfileKey, fit, save

    combos, which, _, values = measurements(rows, seed)
    keep = expected_profiles(combos, which)
    groups: dict[str, list[np.ndarray]] = {}
    for index, (country, operator, rat, quality) in enumerate(combos):
        points = values[which == index]
        groups.setdefault(f"specific/{country}/{operator}/{rat}/{quality}", []).append(points)
        groups.setdefault(f"universal/any/any/{rat}/{quality}", []).append(points)
    models = {
        ProfileKey.from_string(key): fit(np.concatenate(groups[key])) for key in keep
    }
    save(ModelBundle(models=models, created="2026-01-01T00:00:00+00:00"), path)
    return {"profiles": keep}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("kind", choices=("csv", "bundle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rows", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--src", type=Path, help="directory holding the errant package")
    args = parser.parse_args(argv)
    if args.src is not None:
        sys.path.insert(0, str(args.src))
    writer = write_csv if args.kind == "csv" else write_bundle
    print(json.dumps(writer(args.out, args.rows, args.seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
