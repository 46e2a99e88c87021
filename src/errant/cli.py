"""Command-line surface tying the pipeline together.

Exit codes: 0 success, 1 usage error, 2 data/format error, 3 backend failure,
128 + signal number (130 Ctrl-C, 143 SIGTERM, 129 SIGHUP) after the clear.
Every report CSV starts with a comment line recording the seed and the tool
version so any randomized run can be replayed.
"""

from __future__ import annotations

import argparse
import csv
import os
import re
import signal
import sys
import threading
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

import numpy as np

from . import _HELD_SIGNALS, __version__
from .backends import DryRunBackend, SimulatedLink, TcBackend, simulate_download
from .emulator import (
    MonotonicClock,
    Segment,
    VirtualClock,
    parse_scenario,
    run,
    run_trace,
    sampler,
    simple_params,
    static_preset,
)
from .errors import BackendError, ErrantError, FitError, FormatError, ScenarioError
from .ingest import COLUMNS, parse_speedtests, write_rejects
from .kde import KdeModel, fit, sample_points
from .model_store import ModelBundle, load, load_model, save
from .profiles import ProfileKey, build_profiles, filter_profiles
from .validation import compare_distributions, subsample_experiment


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors reported as exit status 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _seeded(args: argparse.Namespace) -> tuple[int, np.random.Generator]:
    # without --seed, an entropy-derived seed, printed in every report for replay
    seed = int.from_bytes(os.urandom(4), "little") if args.seed is None else args.seed
    return seed, np.random.default_rng(seed)


def _parse_size(text: str) -> int:
    """argparse type: an object size like ``10MB`` (decimal units) in bytes."""
    match = re.fullmatch(r"\s*([0-9]+(?:\.[0-9]+)?)\s*([kKmMgG]?)[bB]?\s*", text)
    if not match:
        raise argparse.ArgumentTypeError(f"cannot parse {text!r}; use e.g. 500kB or 10MB")
    scale = {"": 1, "k": 10**3, "m": 10**6, "g": 10**9}[match.group(2).lower()]
    size = float(match.group(1)) * scale
    if not 1 <= size < float("inf"):
        raise argparse.ArgumentTypeError("object size must be positive and finite")
    return int(size)


def _at_least(low: int, high: float = float("inf")):
    """argparse type: an integer no smaller than ``low`` and no larger than ``high``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text.strip()!r} is not an integer") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
        if value > sys.float_info.max:  # e.g. --setup-rtts would overflow the fluid model
            raise argparse.ArgumentTypeError("too large for a float")
        return value

    return parse


def _sizes(text: str) -> list[int]:
    """argparse type: a comma list of distinct positive integers; empty parts are skipped."""
    sizes = [_at_least(1)(part) for part in text.split(",") if part.strip()]
    if not sizes:
        raise argparse.ArgumentTypeError("need at least one size")
    repeated = [size for size in sizes if sizes.count(size) > 1]
    if repeated:
        raise argparse.ArgumentTypeError(f"size {repeated[0]} is repeated")
    return sizes


class _Schema(argparse.Action):
    """argparse action: gathers ``canonical=actual`` pairs, each canonical name once."""

    def __call__(self, parser, namespace, text, option_string=None) -> None:
        canonical, _, actual = (part.strip() for part in text.partition("="))
        if not canonical or not actual:
            raise argparse.ArgumentError(self, f"cannot parse {text!r}; use canonical=actual")
        if canonical not in COLUMNS:
            raise argparse.ArgumentError(
                self, f"unknown column {canonical!r}; expected one of {', '.join(COLUMNS)}"
            )
        schema = getattr(namespace, self.dest)
        if canonical in schema:
            raise argparse.ArgumentError(self, f"column {canonical} is mapped twice")
        setattr(namespace, self.dest, {**schema, canonical: actual})


def _profile_model(args: argparse.Namespace) -> tuple[ProfileKey, KdeModel]:
    """(key, model) named by --profile; the key is parsed before --models is read."""
    key = ProfileKey(args.profile)
    return key, load_model(args.models, key)


def _make_backend(args: argparse.Namespace) -> tuple:
    """Build (backend, clock, label): ``tc`` on --iface, else the dry run."""
    if args.iface is not None:
        if hasattr(os, "geteuid") and os.geteuid() != 0:
            raise BackendError(
                "shaping a real interface requires root; rerun with sudo "
                "or drop --iface for a dry run"
            )
        return TcBackend(args.iface), MonotonicClock(), f"tc:{args.iface}"
    return DryRunBackend(), VirtualClock(), "dry-run"


def _print_report(report, backend) -> None:
    sys.stdout.write(report.to_text())
    if isinstance(backend, DryRunBackend):
        sys.stdout.write("".join(f"# $ {command}\n" for command in backend.log))


def _cmd_build_models(args: argparse.Namespace) -> int:
    with open(args.input, encoding="utf-8-sig", newline="") as handle:
        tests, rejects = parse_speedtests(handle, schema=args.column)
    if rejects:
        total = len(tests) + len(rejects)
        print(f"rejected {len(rejects)} of {total} rows", file=sys.stderr)
        if args.write_rejects:
            with open(args.input, encoding="utf-8-sig", newline="") as handle:
                header = next(csv.reader(handle), [])
            rejects_path = f"{args.input}.rejects.csv"
            write_rejects(rejects, rejects_path, header)
            print(f"wrote {rejects_path}", file=sys.stderr)
    profiles = filter_profiles(build_profiles(tests), args.min_samples)
    models = {}
    for key in sorted(profiles):
        try:
            models[key] = fit(profiles[key])
        except FitError as exc:
            print(f"skipping {key}: {exc}", file=sys.stderr)
    if not models:
        raise FormatError(f"no profiles survive filter (min_samples={args.min_samples})")
    bundle = ModelBundle(
        models=models, created=datetime.now(timezone.utc).isoformat(timespec="seconds")
    )
    save(bundle, args.output)
    for key, model in models.items():
        print(f"{key}: n={model.n} bandwidth_factor={model.bandwidth_factor:.5f}")
    print(f"saved {len(models)} models to {args.output}")
    return 0


def _cmd_list_profiles(args: argparse.Namespace) -> int:
    bundle = load(args.models)
    print("profile,n,median_download_kbps,median_upload_kbps,median_latency_ms")
    rows = csv.writer(sys.stdout, lineterminator="\n")  # quotes a key that holds a comma
    for key in sorted(bundle.models):
        model = bundle.models[key]
        rows.writerow([key, model.n, *np.median(model.points, axis=0).tolist()])
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    if args.preset and (args.models or args.profile or args.simple or args.period is not None):
        args.usage_error("--preset replaces --models/--profile and takes no --simple or --period")
    if not args.preset and (not args.models or not args.profile):
        args.usage_error("either --preset or both --models and --profile")
    seed, rng = _seeded(args)
    backend, clock, label = _make_backend(args)
    notes = {"version": __version__, "seed": str(seed), "backend": label}
    if args.preset:
        tool, _, name = args.preset.partition(":")
        name, params = static_preset(tool, name)
        notes.update(preset=name, mode="static")
        draw = lambda: params
    else:
        key, model = _profile_model(args)
        notes["profile"] = key
        if args.simple:
            params = simple_params(model.points)
            notes["mode"] = "simple"
            draw = lambda: params
        else:
            notes["mode"] = "fixed" if args.period is None else f"periodic:{args.period:g}"
            draw = sampler(model, rng)
    period = args.duration if args.period is None else args.period
    report = run([Segment(args.duration, period, draw)], backend, clock)
    report.notes = notes
    _print_report(report, backend)
    return 0


def _cmd_trace_run(args: argparse.Namespace) -> int:
    seed, rng = _seeded(args)
    bundle = load(args.models)
    try:
        text = Path(args.scenario).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"scenario is not {exc.encoding} text: {exc.reason}") from None
    scenario = parse_scenario(text)
    backend, clock, label = _make_backend(args)
    report = run_trace(scenario, bundle, backend, rng, clock)
    report.notes = {
        "version": __version__,
        "seed": str(seed),
        "backend": label,
        "scenario": args.scenario,
    }
    _print_report(report, backend)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    seed, rng = _seeded(args)
    _, model = _profile_model(args)
    if args.simple:
        # the fluid model is deterministic, so the baseline's Gaussian latency
        # collapses to its mean and every download sees the per-dimension means
        base = simple_params(model.points)
        draws = np.tile([base.download_kbps, base.upload_kbps, base.latency_ms], (args.downloads, 1))
    else:
        draws = sample_points(model, rng, args.downloads)
    durations, speeds = simulate_download(SimulatedLink(*draws.T, args.setup_rtts), args.size)

    lines = [
        f"# seed={seed} version={__version__}",
        "download,download_kbps,upload_kbps,latency_ms,duration_s,avg_speed_kbps",
    ]
    rows = zip(draws.tolist(), durations.tolist(), speeds.tolist())
    for number, ((down, up, latency), duration, speed) in enumerate(rows, start=1):
        lines.append(f"{number},{down!r},{up!r},{latency!r},{duration!r},{speed!r}")
    csv_text = "\n".join(lines) + "\n"

    # reference: the stored measurements pushed through the same fluid model
    observed = simulate_download(SimulatedLink(*model.points.T, args.setup_rtts), args.size)[1]
    comparison = compare_distributions(observed, speeds)
    if args.output:
        Path(args.output).write_text(csv_text, encoding="utf-8")
        sys.stdout.write(comparison.to_text())
    else:
        sys.stdout.write(csv_text)
        for line in comparison.to_text().splitlines():
            print(f"# {line}")
    return 0


def _cmd_subsample(args: argparse.Namespace) -> int:
    seed, rng = _seeded(args)
    _, model = _profile_model(args)
    report = subsample_experiment(
        model.points, args.sizes, repetitions=args.reps, cap=args.cap, rng=rng
    )
    csv_text = report.to_csv(comment=f"seed={seed} version={__version__}")
    if args.output:
        Path(args.output).write_text(csv_text, encoding="utf-8")
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(csv_text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="errant", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subparsers = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)
    count = _at_least(1, sys.maxsize // 24)  # the most rows numpy shapes as (rows, 3) floats

    build = subparsers.add_parser("build-models", help="fit models from a speed-test CSV")
    build.add_argument("--input", required=True, help="speed-test CSV file")
    build.add_argument("--output", required=True, help="model file to write")
    build.add_argument("--min-samples", type=_at_least(1), default=100)
    build.add_argument(
        "--column",
        action=_Schema,
        default={},
        metavar="CANONICAL=ACTUAL",
        help="map a canonical column name to the file's name (repeatable)",
    )
    build.add_argument(
        "--write-rejects",
        action="store_true",
        help="write rejected rows to <input>.rejects.csv with reasons",
    )
    build.set_defaults(func=_cmd_build_models)

    listing = subparsers.add_parser("list-profiles", help="show profiles in a model file")
    listing.add_argument("--models", required=True)
    listing.set_defaults(func=_cmd_list_profiles)

    run = subparsers.add_parser("run", help="emulate one profile or preset")
    run.add_argument("--models")
    run.add_argument("--profile", help="profile key, e.g. specific/norway/telia/4G/good")
    run.add_argument("--preset", metavar="TOOL:NAME", help="static preset instead of a model")
    run.add_argument("--duration", type=float, required=True, help="run length in seconds")
    mode = run.add_mutually_exclusive_group()
    mode.add_argument("--period", type=float, help="resample every PERIOD seconds")
    mode.add_argument("--simple", action="store_true", help="average-value baseline mode")
    run.add_argument("--seed", type=_at_least(0))
    run.add_argument("--iface", help="real interface to shape, as root (default: dry run)")
    run.set_defaults(func=_cmd_run, usage_error=run.error)  # no flag sets usage_error

    trace = subparsers.add_parser("trace-run", help="run a multi-step scenario file")
    trace.add_argument("--models", required=True)
    trace.add_argument("--scenario", required=True, help="scenario file, one step per line")
    trace.add_argument("--seed", type=_at_least(0))
    trace.add_argument("--iface", help="real interface to shape, as root (default: dry run)")
    trace.set_defaults(func=_cmd_trace_run)

    validate = subparsers.add_parser(
        "validate", help="simulate downloads and compare against the source data"
    )
    validate.add_argument("--models", required=True)
    validate.add_argument("--profile", required=True)
    validate.add_argument("--downloads", type=count, default=1000)
    validate.add_argument("--object-size", dest="size", type=_parse_size, default="10MB")
    validate.add_argument("--simple", action="store_true")
    validate.add_argument("--setup-rtts", type=_at_least(0), default=2)
    validate.add_argument("--seed", type=_at_least(0))
    validate.add_argument("--output", help="write the per-download CSV here")
    validate.set_defaults(func=_cmd_validate)

    subsample = subparsers.add_parser(
        "subsample", help="KS distance of random subsets against a reference set"
    )
    subsample.add_argument("--models", required=True)
    subsample.add_argument("--profile", required=True)
    subsample.add_argument("--sizes", type=_sizes, default="10,100,1000")
    subsample.add_argument("--reps", type=count, default=100)
    subsample.add_argument("--cap", type=_at_least(1), default=10000)
    subsample.add_argument("--seed", type=_at_least(0))
    subsample.add_argument("--output", help="write the CSV here instead of stdout")
    subsample.set_defaults(func=_cmd_subsample)

    return parser


def _exit_on_signal(signum: int, frame: object) -> None:
    raise SystemExit(128 + signum)


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    # the signals a teardown holds end a run quietly with 128 + signum, after its clear;
    # one started ignored (`cmd &`, nohup) stays ignored; only the main thread may set one
    on_main = threading.current_thread() is threading.main_thread()
    caught = [s for s in _HELD_SIGNALS if on_main and signal.getsignal(s) is not signal.SIG_IGN]
    previous = {signum: signal.signal(signum, _exit_on_signal) for signum in caught}
    try:
        code = args.func(args)
        sys.stdout.flush()  # surface EPIPE here, while it is still catchable
        return code
    except BrokenPipeError:
        # the reader went away (e.g. piping into head); point the dead stream
        # at devnull so the interpreter's exit-time flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (ErrantError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, BackendError) else 2
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)


if __name__ == "__main__":
    sys.exit(main())
