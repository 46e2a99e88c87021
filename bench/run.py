"""Seeded benchmark of errant, one workload per run.

    python3 bench/run.py --workload build --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports errant from ``src/``.
Workloads (see ``workloads.py`` and ``context.json``): build, resample,
shape, analyze. With ``--trace 0`` the run measures the end-to-end metrics,
times of CPU-bound work scaled to a reference machine speed (see
REFERENCE_S; the detail line also has them as measured); with ``--trace 1`` it measures the first half of the time untraced and the
second half with spans around errant's layers, and reports the per-layer
metrics plus the tracing overhead. The second-to-last line of standard
output is a JSON object with the run's details, under the names the
workload's users know them by; the last line is the result:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

import numpy as np

from tracing import LAYERS, SpanSummary, Tracer
from workloads import WORKLOADS, median, tail

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench"
# op_tail_ms is printed in the detail line only: on a shared machine its
# spread across seeds (15% and more) is too wide to guard a bound with.
END_TO_END = ("throughput_per_s", "op_p50_ms", "setup_s", "peak_rss_mb")
# The machine the benchmark was defined on is shared, and its speed drifts by
# 20-40% over minutes, which no median within a 20 s run can hide. Times of
# CPU-bound work are therefore scaled to a reference speed: calibration_s(),
# timed before and after every operation, takes about REFERENCE_S there.
REFERENCE_S = 0.1


def calibration_s() -> float:
    """Time a fixed mix of interpreter and numpy work (about 0.1 s)."""
    start = time.perf_counter()
    totals: dict[str, float] = {}
    for i in range(60_000):
        _, value, key = f"{i},{i * 0.5:.3f},x{i % 97}".split(",")
        totals[key] = totals.get(key, 0.0) + float(value)
    values = np.arange(200_000.0)
    for _ in range(5):
        values = np.sort(values[::-1] * 1.0001)
    return time.perf_counter() - start


def measure(workload, seconds: float, tracer=None) -> list:
    """Repeat the workload's operation until ``seconds`` have passed."""
    ops = []
    calibrations = [calibration_s()]
    start = time.perf_counter()
    while not ops or time.perf_counter() - start < seconds:
        if tracer is not None:
            tracer.run_id = len(ops) + 1
        ops.append(workload.op())
        calibrations.append(calibration_s())
    for op, before, after in zip(ops, calibrations, calibrations[1:]):
        op.scale = 2 * REFERENCE_S / (before + after)
    return ops


def end_to_end(ops: list, scaled: bool) -> dict:
    """Throughput and latency figures, at reference speed when ``scaled``."""
    scales = [op.scale if scaled else 1.0 for op in ops]
    latencies = [s * scale for op, scale in zip(ops, scales) for s in op.latencies]
    percentile, tail_s = tail(latencies)
    return {
        "throughput_per_s": (median([op.rate / scale for op, scale in zip(ops, scales)]), "1/s"),
        "op_p50_ms": (1000 * median(latencies), "ms"),
        "op_tail_ms": (1000 * tail_s, "ms"),
        "op_tail_percentile": (percentile, "%"),
        "op_samples": (len(latencies), "count"),
    }


def per_layer(tracer, plain: list, traced: list, scaled: bool) -> dict:
    """Per-layer figures of the traced half, per timed unit (see op_p50_ms)."""
    spans = SpanSummary(tracer, set(range(1, len(traced) + 1)))
    loads = SpanSummary(tracer)  # also counts the traced set-up
    units = sum(len(op.latencies) for op in traced)

    def per_unit(name: str) -> float:
        return spans.inclusive[name] / units

    gaps = [g for op in traced for g in op.extra.get("gaps", ())]
    applies = spans.calls["backends.apply"]
    commands = spans.counts_under.get(("backends.execute", "backends.apply"), [0.0])[0]
    # both halves at reference speed, so that drift between them cancels
    plain_p50 = end_to_end(plain, scaled)["op_p50_ms"][0]
    traced_p50 = end_to_end(traced, scaled)["op_p50_ms"][0]
    metrics = {
        "ingest.parse_s": (per_unit("ingest.parse_speedtests"), "s"),
        "ingest.rows": (spans.count("ingest.parse_speedtests", 0) / units, "count"),
        "ingest.rejects": (spans.count("ingest.parse_speedtests", 1) / units, "count"),
        "profiles.build_s": (per_unit("profiles.build_profiles"), "s"),
        "profiles.filter_s": (per_unit("profiles.filter_profiles"), "s"),
        "profiles.count": (spans.count("profiles.build_profiles") / units, "count"),
        "model_store.save_s": (per_unit("model_store.save"), "s"),
        "model_store.bytes": (spans.count("model_store.save") / units, "B"),
        "model_store.load_s": (
            loads.inclusive["model_store.load"] / max(1, loads.calls["model_store.load"]), "s"
        ),
        "kde.fit_s": (per_unit("kde.fit"), "s"),
        "kde.sample_points_calls": (spans.calls["kde.sample_points"] / units, "count"),
        "kde.sample_points_s": (per_unit("kde.sample_points"), "s"),
        "kde.sample_s": (per_unit("kde.sample"), "s"),
        "backends.render_s": (
            per_unit("backends.render_commands") + per_unit("backends.render_clear_commands"), "s"
        ),
        "backends.commands_per_apply": (commands / applies if applies else 0.0, "count"),
        "backends.exec_s": (per_unit("backends.execute"), "s"),
        "backends.unshaped_p50_ms": (1000 * median(gaps) if gaps else 0.0, "ms"),
        "backends.simulate_download_calls": (
            spans.calls["backends.simulate_download"] / units, "count"
        ),
        "backends.simulate_download_s": (per_unit("backends.simulate_download"), "s"),
        "validation.compare_s": (per_unit("validation.compare_distributions"), "s"),
        "validation.subsample_s": (per_unit("validation.subsample_experiment"), "s"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (spans.layer_self[layer] / units, "s")
    metrics["trace.spans_per_op"] = (spans.spans / units, "count")
    metrics["trace.overhead_pct"] = (100 * (traced_p50 - plain_p50) / plain_p50, "%")
    return metrics


def environment() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "machine": platform.machine(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def run(args, errant) -> tuple[dict, dict]:
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](errant, SRC, work, args.seed)
        workload.prepare()
        before = calibration_s()
        setup = [workload.setup() for _ in range(workload.setup_reps)]
        setup_scale = 2 * REFERENCE_S / (before + calibration_s())
        if not args.trace:
            ops = measure(workload, args.seconds)
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            checks = workload.finish(ops)
            figures = end_to_end(ops, workload.cpu_bound)
            figures["setup_s"] = (median(setup) * setup_scale, "s")
            figures["peak_rss_mb"] = (peak_mb, "MB")
            reported = {name: figures[name] for name in END_TO_END}
            detail = {
                "end_to_end": figures,
                "speed_scale": median([op.scale for op in ops]),
                "wall_clock": {
                    **end_to_end(ops, False),
                    "setup_s": (median(setup), "s"),
                    **workload.details(ops),
                },
            }
        else:
            plain = measure(workload, args.seconds / 2)
            tracer = Tracer()
            tracer.install()
            try:
                tracer.run_id = 0
                workload.setup()
                traced = measure(workload, args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            ops = plain + traced
            checks = workload.finish(ops)
            reported = per_layer(tracer, plain, traced, workload.cpu_bound)
            detail = {
                "untraced": {**end_to_end(plain, False), **workload.details(plain)},
                "traced": {**end_to_end(traced, False), **workload.details(traced)},
            }
            tracer.write(WORK / f"spans-{args.workload}.csv.gz")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(op.attempted for op in ops) + len(checks)
    failed = sum(op.failed for op in ops) + sum(not ok for ok in checks.values())
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "operations": len(ops),
        "checks": checks,
        "error_rate": failed / attempted,
        **detail,
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in reported.items()},
    }
    return detail, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = SRC / "errant"
    if not (package / "__init__.py").is_file():
        print(f"error: errant sources not found at {package}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import errant
    import errant.cli

    if Path(errant.__file__).resolve().parent != package.resolve():
        print(f"error: imported errant from {errant.__file__}, not {package}", file=sys.stderr)
        return 2

    detail, result = run(args, errant)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
