"""The benchmark's four workloads: build, resample, shape and analyze.

Each workload generates its inputs from the seed in a child process, sets up
(timed separately as ``setup_s``), then repeats one operation until the run's
time is up. Output checks run after each operation's timer has stopped, or
once at the end of the run, and mark operations as failed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from faketc import FakeTc

BENCH_DIR = Path(__file__).resolve().parent
# Sizes keep one operation near 1.5 s, so that a run holds about ten of them
# and their median is steady on a shared machine.
ROWS = 50_000  # speed-test rows behind every workload's input
RESAMPLE_APPLIES = 10_000  # applies per `errant run` call, one per second
VALIDATE_DOWNLOADS = 50_000  # simulated downloads per `errant validate` call
SUBSAMPLE_SIZES = (10, 100, 1000)
SUBSAMPLE_REPS = 100
EXEC_COST_S = 0.0005  # fake tc cost per command in the shape workload
# applies per scenario step; 1 marks a fixed step
SCENARIO_APPLIES = (40, 1, 30, 20, 1, 40, 30, 1, 20, 40, 1, 30)


@dataclass
class Op:
    """One timed operation and its outcome."""

    seconds: float  # wall time of the operation
    rate: float  # work items per second (the workload's throughput unit)
    latencies: list  # seconds of each latency sample the operation yields
    attempted: int = 1
    failed: int = 0
    extra: dict = field(default_factory=dict)
    scale: float = 1.0  # reference speed / machine speed while it ran


def run_cli(cli, argv: list[str]) -> tuple[int, str, str, float]:
    """Call ``errant.cli.main`` with captured output; returns (code, out, err, s)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    seconds = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), seconds


def generate(kind: str, seed: int, out: Path, src: Path) -> dict:
    """Run the data generator in a child process and return its summary."""
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "datagen.py"), kind, "--seed", str(seed),
         "--rows", str(ROWS), "--out", str(out), "--src", str(src)],
        capture_output=True, text=True, timeout=150, check=True,
    )
    return json.loads(done.stdout)


class Workload:
    """Interface shared by the workloads; see the module docstring."""

    name = ""
    setup_reps = 7  # setup_s is the median of these
    cpu_bound = True  # report its times scaled to the reference speed

    def __init__(self, errant, src: Path, work: Path, seed: int) -> None:
        self.errant = errant
        self.src = src
        self.work = work
        self.seed = seed

    def prepare(self) -> None:
        raise NotImplementedError

    def setup(self) -> float:
        raise NotImplementedError

    def op(self) -> Op:
        raise NotImplementedError

    def finish(self, ops: list[Op]) -> dict[str, bool]:
        """Run-level output checks, by name."""
        return {}

    def details(self, ops: list[Op]) -> dict:
        """The workload's own end-to-end figures, named as a user knows them."""
        return {}


class _BundleWorkload(Workload):
    """Set-up shared by workloads that start from a saved model bundle."""

    def prepare(self) -> None:
        self.bundle_path = self.work / "models.json"
        self.profiles = generate("bundle", self.seed, self.bundle_path, self.src)["profiles"]
        universal = [key for key in self.profiles if key.startswith("universal/")]
        # the largest universal profile, as a user replaying a technology would
        self.profile = max(universal, key=lambda key: (self.profiles[key], key))

    def setup(self) -> float:
        start = time.perf_counter()
        self.bundle = self.errant.model_store.load(self.bundle_path)
        return time.perf_counter() - start


class Build(Workload):
    """`errant build-models` on the seeded CSV with planted bad rows."""

    name = "build"

    def prepare(self) -> None:
        self.csv_path = self.work / "speedtests.csv"
        self.model_path = self.work / "built.json"
        self.planted = generate("csv", self.seed, self.csv_path, self.src)
        self.expected_stdout = [
            f"{key}: n={n} " for key, n in self.planted["profiles"].items()
        ]

    def setup(self) -> float:
        # a fresh interpreter importing the package, timed inside the child
        code = (
            "import sys, time; sys.path.insert(0, sys.argv[1]); "
            "start = time.perf_counter(); import errant; "
            "print(time.perf_counter() - start)"
        )
        done = subprocess.run(
            [sys.executable, "-c", code, str(self.src)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        return float(done.stdout)

    def op(self) -> Op:
        argv = ["build-models", "--input", str(self.csv_path), "--output", str(self.model_path)]
        code, out, err, seconds = run_cli(self.errant.cli, argv)
        rows = self.planted["rows"] + self.planted["rejects"]
        lines = out.splitlines()
        ok = (
            code == 0
            and f"rejected {self.planted['rejects']} of {rows} rows" in err
            and len(lines) == len(self.expected_stdout) + 1
            and all(line.startswith(want) for line, want in zip(lines, self.expected_stdout))
            and lines[-1].startswith(f"saved {len(self.expected_stdout)} models to ")
        )
        return Op(seconds, rows / seconds, [seconds], failed=int(not ok))

    def finish(self, ops: list[Op]) -> dict[str, bool]:
        errant = self.errant
        resaved = self.work / "resaved.json"
        errant.model_store.save(errant.model_store.load(self.model_path), resaved)
        with open(self.csv_path, encoding="utf-8", newline="") as handle:
            _, rejects = errant.ingest.parse_speedtests(handle)
        return {
            "save_load_save_identical": resaved.read_bytes() == self.model_path.read_bytes(),
            "reject_reasons_exact": (
                Counter(reject.reason for reject in rejects) == Counter(self.planted["reasons"])
            ),
        }

    def details(self, ops: list[Op]) -> dict:
        return {"build_rows_per_s": (median([op.rate for op in ops]), "rows/s")}


class Resample(_BundleWorkload):
    """`errant run --period 1` on the dry-run backend, stdout captured."""

    name = "resample"

    def prepare(self) -> None:
        super().prepare()
        self.argv = [
            "run", "--models", str(self.bundle_path), "--profile", self.profile,
            "--duration", str(RESAMPLE_APPLIES), "--period", "1", "--seed", str(self.seed),
        ]
        self.digest = None

    def op(self) -> Op:
        code, out, _, seconds = run_cli(self.errant.cli, self.argv)
        digest = hashlib.sha256(out.encode()).hexdigest()
        if self.digest is None and code == 0:
            ok = _report_ok(out, RESAMPLE_APPLIES)  # ceil(duration / period)
            self.digest = digest if ok else ""
        # one seed, one report: every call must print the same bytes
        ok = code == 0 and digest == self.digest
        return Op(seconds, RESAMPLE_APPLIES / seconds, [seconds], failed=int(not ok))

    def details(self, ops: list[Op]) -> dict:
        return {"run_applies_per_s": (median([op.rate for op in ops]), "applies/s")}


def _report_ok(text: str, applies: int) -> bool:
    """The run report has ``applies`` finite positive triples, then a clear."""
    lines = text.splitlines()
    try:
        start = lines.index("time_s,action,download_kbps,upload_kbps,latency_ms") + 1
    except ValueError:
        return False
    events = []
    for line in lines[start:]:
        if line.startswith("#"):
            break
        events.append(line.split(","))
    if any(len(event) != 5 for event in events):
        return False
    applied = [event for event in events if event[1] == "apply"]
    if len(applied) != applies or not events or events[-1][1:] != ["clear", "", "", ""]:
        return False
    values = np.array([event[2:] for event in applied], dtype=float)
    return bool(np.isfinite(values).all() and (values > 0).all())


def _timed_backend(errant, runner: FakeTc):
    """A TcBackend on ``runner`` that times each apply and checks the state after it."""

    class TimedTcBackend(errant.backends.TcBackend):
        def __init__(self) -> None:
            super().__init__(runner.egress, runner.ifb, runner=runner)
            self.apply_seconds: list[float] = []
            self.commands: list[int] = []
            self.gaps: list[float] = []
            self.failed = 0

        def apply(self, params) -> None:
            resample = self.configured is not None
            commands, gaps = runner.commands, len(runner.gaps)
            start = time.perf_counter()
            try:
                super().apply(params)
            except BaseException:
                self.failed += 1
                raise
            finally:
                self.apply_seconds.append(time.perf_counter() - start)
            self.commands.append(runner.commands - commands)
            if resample:
                self.gaps.extend(runner.gaps[gaps:])
            # an apply must leave both directions shaped
            self.failed += not runner.shaped()

        def clear(self) -> None:
            super().clear()
            runner.forget_lapse()

    return TimedTcBackend()


class Shape(_BundleWorkload):
    """Library `run_trace` through TcBackend with a fake tc runner."""

    name = "shape"
    # an apply is mostly the fake tc's fixed waits, which do not speed up or slow
    # down with the machine; its times are reported as measured
    cpu_bound = False

    def prepare(self) -> None:
        super().prepare()
        ranked = sorted(self.profiles, key=lambda key: (-self.profiles[key], key))
        universal = [key for key in ranked if key.startswith("universal/")]
        specific = [key for key in ranked if key.startswith("specific/")]
        chosen = [universal[0], specific[0], universal[1]]
        rng = np.random.default_rng([self.seed, 2])
        order = rng.permutation(chosen).tolist()
        # the seed picks profiles, periods and fixed durations; the number
        # of applies per step, and so the shaping work per pass, is fixed
        lines = []
        for step, applies in enumerate(SCENARIO_APPLIES):
            profile = order[step % len(order)]
            if applies == 1:
                lines.append(f"{int(rng.integers(10, 120))},{profile},fixed")
            else:
                period = int(rng.choice([1, 2, 5]))
                lines.append(f"{period * applies},{profile},periodic:{period}")
        self.expected_applies = sum(SCENARIO_APPLIES)
        self.scenario = self.errant.parse_scenario("\n".join(lines) + "\n")
        self.events = None

    def op(self) -> Op:
        errant = self.errant
        runner = FakeTc(EXEC_COST_S, "eth0", "ifb0")
        backend = _timed_backend(errant, runner)
        rng = np.random.default_rng(self.seed)
        start = time.perf_counter()
        try:
            report = errant.emulator.run_trace(
                self.scenario, self.bundle, backend, rng, errant.VirtualClock()
            )
        except errant.ErrantError:
            report = None
        seconds = time.perf_counter() - start
        applies = len(backend.apply_seconds)
        # two checks per pass besides the applies: no rule may be left after
        # the final clear, and one seed must give one timeline
        failed = backend.failed + runner.has_rules()
        if report is not None and self.events is None:
            self.events = report.events
        failed += (
            report is None or applies != self.expected_applies or report.events != self.events
        )
        latencies = backend.apply_seconds or [seconds]
        # applies per second at the pace of the median apply: the mean pace
        # follows the machine's scheduling spikes
        return Op(
            seconds,
            1.0 / median(latencies),
            latencies,
            attempted=applies + 2,
            failed=failed,
            extra={
                "gaps": backend.gaps,
                "commands": backend.commands,
                "exec": [end - begin for begin, end in runner.timestamps],
            },
        )

    def details(self, ops: list[Op]) -> dict:
        applies = [s for op in ops for s in op.latencies]
        percentile, tail_s = tail(applies)
        gaps = [g for op in ops for g in op.extra["gaps"]]
        commands = [c for op in ops for c in op.extra["commands"]]
        execs = [e for op in ops for e in op.extra["exec"]]
        return {
            "apply_p50_ms": (1000 * median(applies), "ms"),
            "apply_tail_ms": (1000 * tail_s, "ms"),
            "apply_tail_percentile": (percentile, "%"),
            "apply_samples": (len(applies), "count"),
            "unshaped_p50_ms": (1000 * median(gaps) if gaps else None, "ms"),
            "unshaped_samples": (len(gaps), "count"),
            "commands_per_apply": (sum(commands) / max(1, len(commands)), "count"),
            "fake_exec_p50_ms": (1000 * median(execs), "ms"),
        }


class Analyze(_BundleWorkload):
    """`errant validate` with many downloads, then `errant subsample`."""

    name = "analyze"

    def prepare(self) -> None:
        super().prepare()
        common = ["--models", str(self.bundle_path), "--profile", self.profile,
                  "--seed", str(self.seed)]
        self.validate_argv = ["validate", *common, "--downloads", str(VALIDATE_DOWNLOADS)]
        self.subsample_argv = [
            "subsample", *common, "--reps", str(SUBSAMPLE_REPS),
            "--sizes", ",".join(map(str, SUBSAMPLE_SIZES)),
        ]
        self.ks_per_call = 3 * len(SUBSAMPLE_SIZES) * SUBSAMPLE_REPS

    def op(self) -> Op:
        code, out, _, validate_s = run_cli(self.errant.cli, self.validate_argv)
        model_n = self.profiles[self.profile]
        validate_ok = code == 0 and out.rstrip("\n").endswith(
            f"# count,{model_n},{VALIDATE_DOWNLOADS}"
        )
        code, out, _, subsample_s = run_cli(self.errant.cli, self.subsample_argv)
        subsample_ok = code == 0 and _medians_fall(out)
        seconds = validate_s + subsample_s
        return Op(
            seconds,
            VALIDATE_DOWNLOADS / validate_s,
            [seconds],
            attempted=2,
            failed=int(not validate_ok) + int(not subsample_ok),
            extra={"ks_rate": self.ks_per_call / subsample_s},
        )

    def details(self, ops: list[Op]) -> dict:
        return {
            "validate_downloads_per_s": (median([op.rate for op in ops]), "downloads/s"),
            "subsample_ks_per_s": (median([op.extra["ks_rate"] for op in ops]), "1/s"),
        }


def _medians_fall(text: str) -> bool:
    """Median KS distance per dimension does not rise with subset size."""
    rows = [line.split(",") for line in text.splitlines() if not line.startswith("#")]
    if not rows or rows[0] != ["dimension", "n", "repetition", "D"]:
        return False
    if any(len(row) != 4 for row in rows):
        return False
    values: dict[tuple[str, int], list[float]] = {}
    for dimension, size, _, d in rows[1:]:
        values.setdefault((dimension, int(size)), []).append(float(d))
    for dimension in ("download", "upload", "latency"):
        series = [values.get((dimension, size), []) for size in SUBSAMPLE_SIZES]
        if any(len(ds) != SUBSAMPLE_REPS for ds in series):
            return False
        medians = [median(ds) for ds in series]
        if not all(a >= b for a, b in zip(medians, medians[1:])):
            return False
    return True


def median(values) -> float:
    return float(np.median(values))


def tail(values) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it (else the max)."""
    for percentile in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if len(values) * (100.0 - percentile) / 100.0 >= 10:
            return percentile, float(np.percentile(values, percentile))
    return 100.0, float(max(values))


WORKLOADS = {cls.name: cls for cls in (Build, Resample, Shape, Analyze)}
