"""Write ``BENCH_<LABEL>.json``: one seeded benchmark run of every workload on this checkout.

Usage: python3 tools/trajectory.py LABEL

Runs ``bench/run.py --workload W --seed 3 --seconds 20 --trace 0`` in a child
process for each workload that ``BENCHMARK.json`` names, from the root of the
checkout this file sits in. Then it writes ``BENCH_<LABEL>.json`` there, with
the label, ``git rev-parse HEAD``, whether tracked files differ from that
commit, the seed, the seconds and, per workload, both lines that
``bench/run.py`` prints: the run's details and its result. If any workload is
not ``correct`` or failed an operation, it writes no file and exits 1. A
performance claim cites the files of the parent and of the change, taken on
the same machine. Stdlib only; the checkout's own code needs numpy.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 3
SECONDS = 20


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        sys.exit("usage: python3 tools/trajectory.py LABEL")
    label = argv[0]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [entry["name"] for entry in declared["workloads"]]
    workloads = {}
    for name in names:
        command = [sys.executable, "bench/run.py", "--workload", name, "--seed", str(SEED),
                   "--seconds", str(SECONDS), "--trace", "0"]
        out = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=True).stdout
        detail, result = map(json.loads, out.splitlines()[-2:])
        workloads[name] = {"detail": detail, "result": result}
        metrics = {metric: round(value["value"], 3) for metric, value in result["metrics"].items()}
        print(name, "correct" if result["correct"] else "NOT correct",
              f"failed={result['failed']}", metrics, file=sys.stderr)
    bad = [name for name, run in workloads.items()
           if run["result"]["correct"] is not True or run["result"]["failed"] > 0]
    if bad:
        print(f"not written: {', '.join(bad)} not correct or failed operations", file=sys.stderr)
        return 1
    record = {
        "label": label,
        "commit": _git("rev-parse", "HEAD"),
        "tracked_changes": bool(_git("status", "--porcelain", "--untracked-files=no")),
        "seed": SEED,
        "seconds": SECONDS,
        "workloads": workloads,
    }
    path = ROOT / f"BENCH_{label}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
