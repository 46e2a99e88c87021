"""Print the md5 of errant's seeded outputs for one checkout, one ``name md5`` line each.

Usage: python3 tools/seeded_outputs.py CHECKOUT

Builds the model bundle with the checkout's ``bench/datagen.py bundle --seed 1
--rows 50000``, then runs each command below with ``PYTHONPATH=CHECKOUT/src``
and ``--seed 3``, on the profile ``universal/any/any/4G/good`` where one is
named, the second-to-last model in the file. ``validate-first-profile`` reads
the file's first model instead, so the one-model read is checked at both ends
of the file. ``list-profiles-reindented`` reads the bundle re-dumped with
``json.dumps(..., indent=1)``, a layout that ``load`` decodes whole, so its md5
equals ``list-profiles``'s when both paths read the same models.
``run-periodic-reindented`` is ``run-periodic`` on that bundle, a one-profile read
through the whole decode, so its md5 equals ``run-periodic``'s.
``run-periodic-bench`` is the benchmark's ``run`` size, 10000 applies, so its
rows and ``# $`` lines span several of the dry run's print blocks. The dry run
prints both 512 actions at a time, and each ``# $`` block decides install
or resample from the action before its first, so ``trace-run-blocks`` runs 300,
210 and 700 applies at period 1 on three profiles that ``trace-run`` names: one
clear falls inside the first block, the next is its last action, and the third
step crosses a block seam. ``validate-bench`` is the benchmark's ``validate`` size,
50000 downloads: 13 chunks of rows, whose ranges ``validate`` formats in one process per
CPU it may use, so running this under ``taskset -c 0`` checks that the split keeps the
bytes. Running it on two checkouts tells whether a change
kept the bytes the README promises: the stdout of every command, and a model
file that save -> load -> save reproduces. A ``trace-run``'s ``# scenario=``
line names a temporary path, so it is left out of that output's md5. The
bundle's points have at most three decimals, so a second save -> load -> save
runs on a bundle fitted on full-precision lognormal points, which ``repr`` writes.
A third, ``save-load-save-short-edges``, runs on a bundle of three-decimal points
that include integral values, 0.001 and values just under 1e12, where ``save``'s
three-decimal path meets its edges; one of its two models holds one long value
in its second block of points, so that block is written with ``repr`` between two
that are not.

It also runs ingest -> fit -> save through the CLI: ``build-models
--write-rejects`` on the rows of ``bench/datagen.py csv --seed 1 --rows 50000``,
in the temporary directory, and prints the md5 of its stdout, of its rejects
file and of the model file it writes, with the file's ``created`` value
replaced by ``""``. A second ``build-models`` runs on a CSV this tool writes,
whose names repeat in mixed case and with surrounding spaces, and prints the
md5 of its stdout and of its model file. Stdlib only; the checkout's own code
needs numpy.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import subprocess
import sys
import tempfile
from pathlib import Path

PROFILE = "universal/any/any/4G/good"
SCENARIO = (
    "60,universal/any/any/4G/good,fixed\n"
    "30,universal/any/any/4G/ordinary,periodic:10\n"
    "45,specific/norway/telia/4G/good,periodic:5\n"
)
BLOCKS_SCENARIO = (
    "300,universal/any/any/4G/good,periodic:1\n"
    "210,universal/any/any/4G/ordinary,periodic:1\n"
    "700,specific/norway/telia/4G/good,periodic:1\n"
)
SAVE_LOAD_SAVE = "import sys; from errant import load, save; save(load(sys.argv[1]), sys.argv[2])"
# 5000 points with every digit a lognormal draw gives, written to argv[1]
FULL_PRECISION_BUNDLE = """
import sys
import numpy as np
from errant import ModelBundle, ProfileKey, fit, save
sigmas = np.array([0.5, 0.5, 0.3])
correlation = np.array([[1.0, 0.5, -0.3], [0.5, 1.0, -0.2], [-0.3, -0.2, 1.0]])
rng = np.random.default_rng(5)
logs = rng.multivariate_normal(np.log([20000.0, 8000.0, 40.0]),
                               correlation * np.outer(sigmas, sigmas), size=5000)
model = fit(np.exp(logs))
save(ModelBundle(models={ProfileKey("universal/any/any/4G/good"): model}), sys.argv[1])
"""

# three-decimal points with integral values, 0.001 and values just under 1e12, in blocks of
# 2048 points; the second model holds one long value in its second block; written to argv[1]
SHORT_EDGES_BUNDLE = """
import sys
import numpy as np
from errant import KdeModel, ModelBundle, ProfileKey, save
edges = [1.0, 7.0, 1000.0, 65535.0, 0.001, 0.002, 0.01, 0.999, 999999999.999,
         999999999999.0, 999999999999.001, 999999999999.5, 999999999999.999]
rng = np.random.default_rng(11)
points = np.round(rng.lognormal([9.9, 9.0, 3.7], 0.5, size=(5000, 3)), 3)
points.ravel()[rng.choice(points.size, size=900, replace=False)] = rng.choice(edges, size=900)
mixed = points.copy()
mixed[2048 + 7, 1] = 1234.5678901
models = {ProfileKey("universal/any/any/4G/good"): KdeModel(points, np.eye(3), 0.25),
          ProfileKey("universal/any/any/3G/bad"): KdeModel(mixed, np.eye(3), 0.25)}
save(ModelBundle(models=models), sys.argv[1])
"""

# (name, errant arguments); {models} is the bundle, {first} its first profile in file order,
# {reindented} the bundle re-dumped with indent=1, {scenario} and {blocks} the scenario files
COMMANDS = (
    ("list-profiles", ["list-profiles", "--models", "{models}"]),
    # another layout, read by the whole-text decode: its md5 is list-profiles's
    ("list-profiles-reindented", ["list-profiles", "--models", "{reindented}"]),
    ("run-periodic", ["run", "--models", "{models}", "--profile", PROFILE, "--seed", "3",
                      "--duration", "2000", "--period", "1"]),
    # the same run on the other layout: a one-profile read through the whole decode
    ("run-periodic-reindented", ["run", "--models", "{reindented}", "--profile", PROFILE,
                                 "--seed", "3", "--duration", "2000", "--period", "1"]),
    # the bench's run size: 10000 applies cross several of the dry run's replay blocks
    ("run-periodic-bench", ["run", "--models", "{models}", "--profile", PROFILE, "--seed", "3",
                            "--duration", "10000", "--period", "1"]),
    ("run-fixed", ["run", "--models", "{models}", "--profile", PROFILE, "--seed", "3",
                   "--duration", "20"]),
    ("run-simple", ["run", "--models", "{models}", "--profile", PROFILE, "--seed", "3",
                    "--duration", "20", "--simple"]),
    ("run-preset", ["run", "--preset", "chrome:3G", "--duration", "5", "--seed", "3"]),
    # integer rates and a zero latency, printed as given and rendered as "delay 0ms"
    ("run-preset-zero-latency", ["run", "--preset", "android:4G", "--duration", "5",
                                 "--seed", "3"]),
    ("validate", ["validate", "--models", "{models}", "--profile", PROFILE, "--seed", "3"]),
    # 10000 rows: two full chunks of the CSV writer and a part chunk
    ("validate-chunks", ["validate", "--models", "{models}", "--profile", PROFILE, "--seed", "3",
                         "--downloads", "10000"]),
    # the bench's validate size: 13 chunks of rows, split over the CPUs the command may use
    ("validate-bench", ["validate", "--models", "{models}", "--profile", PROFILE, "--seed", "3",
                        "--downloads", "50000"]),
    ("validate-simple", ["validate", "--models", "{models}", "--profile", PROFILE,
                         "--seed", "3", "--simple"]),
    ("subsample", ["subsample", "--models", "{models}", "--profile", PROFILE, "--seed", "3"]),
    # the first model in file order, where PROFILE is near the end
    ("validate-first-profile", ["validate", "--models", "{models}", "--profile", "{first}",
                                "--seed", "3", "--downloads", "1000"]),
    # size 1, and size == cap, where every D is 0
    ("subsample-edges", ["subsample", "--models", "{models}", "--profile", PROFILE, "--seed", "3",
                         "--sizes", "1,2,300", "--reps", "40", "--cap", "300"]),
    ("trace-run", ["trace-run", "--models", "{models}", "--scenario", "{scenario}",
                   "--seed", "3"]),
    # clears inside a replay block and on its last event, and a step across a block seam
    ("trace-run-blocks", ["trace-run", "--models", "{models}", "--scenario", "{blocks}",
                          "--seed", "3"]),
)


# spellings of three (country, operator) names, and of the two rats
NAME_SPELLINGS = (
    ("norway", "telia"), ("Norway", "TELIA"), ("  NORWAY", "Telia  "), (" norway ", "telia"),
    ("Italy, North", "Wind Tre"), ("italy, north", " WIND TRE "), ("ITALY, NORTH ", "wind tre"),
    ("Sverige", "Tele2"), ("sverige ", " tele2"),
)
RAT_SPELLINGS = ("4G", "4g", " 4G ", "3G", "3g ", " 3G")


def _md5(data: bytes) -> str:
    return hashlib.md5(data).hexdigest()


def _blank_created(path: Path) -> bytes:
    return re.sub(rb'"created": "[^"]*"', b'"created": ""', path.read_bytes(), 1)


def _write_name_variants(path: Path) -> None:
    """A seeded speed-test CSV whose names repeat in mixed case and with surrounding spaces."""
    rng = random.Random(7)
    lines = ["timestamp,country,operator,rat,rssi,download_kbps,upload_kbps,latency_ms"]
    for index in range(6000):
        country, operator = rng.choice(NAME_SPELLINGS)
        values = [rng.lognormvariate(mean, 0.5) for mean in (9.9, 9.0, 3.7)]
        lines.append(
            f'{1600000000 + index},"{country}",{operator},{rng.choice(RAT_SPELLINGS)},'
            f"{rng.uniform(-115, -50):.1f},{values[0]:.3f},{values[1]:.3f},{values[2]:.3f}"
        )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        sys.exit("usage: python3 tools/seeded_outputs.py CHECKOUT")
    checkout = Path(argv[0]).resolve()
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))

    def python(*args: object, cwd: object = None) -> bytes:
        command = [sys.executable, *map(str, args)]
        return subprocess.run(command, env=env, cwd=cwd, stdout=subprocess.PIPE,
                              check=True).stdout

    with tempfile.TemporaryDirectory() as scratch:
        bundle = Path(scratch, "bundle.json")
        scenario = Path(scratch, "scenario.txt")
        scenario.write_text(SCENARIO, encoding="utf-8")
        blocks = Path(scratch, "blocks.txt")
        blocks.write_text(BLOCKS_SCENARIO, encoding="utf-8")
        python(checkout / "bench" / "datagen.py", "bundle", "--seed", 1, "--rows", 50000,
               "--out", bundle)
        print("bundle", _md5(bundle.read_bytes()))
        doc = json.loads(bundle.read_text(encoding="utf-8"))
        first = next(iter(doc["models"]))
        reindented = Path(scratch, "reindented.json")
        reindented.write_text(json.dumps(doc, indent=1), encoding="utf-8")
        for name, args in COMMANDS:
            out = python("-m", "errant.cli",
                         *(arg.format(models=bundle, first=first, reindented=reindented,
                                      scenario=scenario, blocks=blocks) for arg in args))
            if args[0] == "trace-run":
                lines = out.splitlines(keepends=True)
                out = b"".join(line for line in lines if not line.startswith(b"# scenario="))
            print(name, _md5(out))
        resaved = Path(scratch, "resaved.json")
        python("-c", SAVE_LOAD_SAVE, bundle, resaved)
        print("save-load-save", _md5(resaved.read_bytes()))
        full, full_resaved = Path(scratch, "full.json"), Path(scratch, "full-resaved.json")
        python("-c", FULL_PRECISION_BUNDLE, full)
        python("-c", SAVE_LOAD_SAVE, full, full_resaved)
        print("save-load-save-full-precision", _md5(full_resaved.read_bytes()))
        edges, edges_resaved = Path(scratch, "edges.json"), Path(scratch, "edges-resaved.json")
        python("-c", SHORT_EDGES_BUNDLE, edges)
        python("-c", SAVE_LOAD_SAVE, edges, edges_resaved)
        print("save-load-save-short-edges", _md5(edges_resaved.read_bytes()))
        python(checkout / "bench" / "datagen.py", "csv", "--seed", 1, "--rows", 50000,
               "--out", "speedtests.csv", cwd=scratch)
        out = python("-m", "errant.cli", "build-models", "--input", "speedtests.csv",
                     "--output", "built.json", "--write-rejects", cwd=scratch)
        print("build-models", _md5(out))
        print("build-rejects", _md5(Path(scratch, "speedtests.csv.rejects.csv").read_bytes()))
        print("build-model-file", _md5(_blank_created(Path(scratch, "built.json"))))
        _write_name_variants(Path(scratch, "names.csv"))
        out = python("-m", "errant.cli", "build-models", "--input", "names.csv",
                     "--output", "names.json", cwd=scratch)
        print("build-name-variants", _md5(out))
        print("build-name-variants-model-file", _md5(_blank_created(Path(scratch, "names.json"))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
