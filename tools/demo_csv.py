"""Write the speed-test CSV that the README's quick start and validation examples run on.

Usage: python3 tools/demo_csv.py OUT

Seeded rows for four Norwegian 4G profiles, drawn from the benchmark's
lognormal population (``bench/datagen.py``) and written with one decimal:
ice good (127 rows), ice ordinary (23, under build-models' default
``--min-samples`` of 100), telia good and telia ordinary (150 each). An
ordinary row has 0.7 times the bandwidths and 1.15 times the latency of a
good one. Rerun the README's commands on this file when a change moves their
output.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from datagen import CSV_HEADER, LOG_CORR, LOG_MEANS, LOG_SIGMAS, QUALITY_SCALE  # noqa: E402

# (operator, quality, rssi, rows)
PROFILES = (
    ("ice", "good", -71, 127),
    ("ice", "ordinary", -80, 23),
    ("telia", "good", -71, 150),
    ("telia", "ordinary", -80, 150),
)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        sys.exit("usage: python3 tools/demo_csv.py OUT")
    rng = np.random.default_rng(2021)
    cov = LOG_CORR * np.outer(LOG_SIGMAS, LOG_SIGMAS)
    lines = [CSV_HEADER]
    for operator, quality, rssi, rows in PROFILES:
        values = np.exp(rng.multivariate_normal(LOG_MEANS, cov, size=rows))
        for down, up, latency in (values * QUALITY_SCALE[quality]).tolist():
            lines.append(
                f"{1600000000 + len(lines) - 1},norway,{operator},4G,{rssi},"
                f"{down:.1f},{up:.1f},{latency:.1f}"
            )
    Path(argv[0]).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
