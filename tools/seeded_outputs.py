"""Print the md5 of errant's seeded outputs for one checkout, one ``name md5`` line each.

Usage: python3 tools/seeded_outputs.py CHECKOUT

Builds the model bundle with the checkout's ``bench/datagen.py bundle --seed 1
--rows 50000``, then runs each command below with ``PYTHONPATH=CHECKOUT/src``
and ``--seed 3``, on the profile ``universal/any/any/4G/good`` where one is
named. Running it on two checkouts tells whether a change kept the bytes the
README promises: the stdout of every command, and a model file that
save -> load -> save reproduces. ``trace-run``'s ``# scenario=`` line names a
temporary path, so it is left out of that output's md5.

It also runs ingest -> fit -> save through the CLI: ``build-models
--write-rejects`` on the rows of ``bench/datagen.py csv --seed 1 --rows 50000``,
in the temporary directory, and prints the md5 of its stdout, of its rejects
file and of the model file it writes, with the file's ``created`` value
replaced by ``""``. Stdlib only; the checkout's own code needs numpy.
"""

from __future__ import annotations

import hashlib
import os
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
SAVE_LOAD_SAVE = "import sys; from errant import load, save; save(load(sys.argv[1]), sys.argv[2])"

# (name, errant arguments); {models} is the bundle, {scenario} the scenario file
COMMANDS = (
    ("list-profiles", ["list-profiles", "--models", "{models}"]),
    ("run-periodic", ["run", "--models", "{models}", "--profile", PROFILE, "--seed", "3",
                      "--duration", "2000", "--period", "1"]),
    ("run-fixed", ["run", "--models", "{models}", "--profile", PROFILE, "--seed", "3",
                   "--duration", "20"]),
    ("run-simple", ["run", "--models", "{models}", "--profile", PROFILE, "--seed", "3",
                    "--duration", "20", "--simple"]),
    ("run-preset", ["run", "--preset", "chrome:3G", "--duration", "5", "--seed", "3"]),
    ("validate", ["validate", "--models", "{models}", "--profile", PROFILE, "--seed", "3"]),
    ("validate-simple", ["validate", "--models", "{models}", "--profile", PROFILE,
                         "--seed", "3", "--simple"]),
    ("subsample", ["subsample", "--models", "{models}", "--profile", PROFILE, "--seed", "3"]),
    ("trace-run", ["trace-run", "--models", "{models}", "--scenario", "{scenario}",
                   "--seed", "3"]),
)


def _md5(data: bytes) -> str:
    return hashlib.md5(data).hexdigest()


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
        python(checkout / "bench" / "datagen.py", "bundle", "--seed", 1, "--rows", 50000,
               "--out", bundle)
        print("bundle", _md5(bundle.read_bytes()))
        for name, args in COMMANDS:
            out = python("-m", "errant.cli",
                         *(arg.format(models=bundle, scenario=scenario) for arg in args))
            if name == "trace-run":
                lines = out.splitlines(keepends=True)
                out = b"".join(line for line in lines if not line.startswith(b"# scenario="))
            print(name, _md5(out))
        resaved = Path(scratch, "resaved.json")
        python("-c", SAVE_LOAD_SAVE, bundle, resaved)
        print("save-load-save", _md5(resaved.read_bytes()))
        python(checkout / "bench" / "datagen.py", "csv", "--seed", 1, "--rows", 50000,
               "--out", "speedtests.csv", cwd=scratch)
        out = python("-m", "errant.cli", "build-models", "--input", "speedtests.csv",
                     "--output", "built.json", "--write-rejects", cwd=scratch)
        print("build-models", _md5(out))
        print("build-rejects", _md5(Path(scratch, "speedtests.csv.rejects.csv").read_bytes()))
        built = Path(scratch, "built.json").read_bytes()
        print("build-model-file", _md5(re.sub(rb'"created": "[^"]*"', b'"created": ""', built, 1)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
