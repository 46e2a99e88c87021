"""Acceptance gate: one test per numbered release criterion.

Each test exercises a criterion end to end at its stated tolerance and
prints a single ``PASS criterion N: ...`` / ``FAIL criterion N: ...`` line
with the measured values (visible with ``pytest -s``; a failing criterion
also shows up as the usual FAILED entry for its test).
"""

import re
import time
from pathlib import Path

import numpy as np
import pytest
from conftest import make_lognormal

from errant import (
    BackendError,
    CorruptModelError,
    DIMENSIONS,
    DryRunBackend,
    EmulationParams,
    ModelBundle,
    ProfileKey,
    Rat,
    SignalQuality,
    SimulatedLink,
    VirtualClock,
    bin_signal,
    density,
    fit,
    ks_two_sample,
    load,
    render_commands,
    run_periodic,
    sample_points,
    save,
    silverman_factor,
    simulate_download,
    subsample_experiment,
)
from errant.cli import main

GOLDEN = Path(__file__).parent / "golden"
KEY_TEXT = "specific/norway/telia/4G/good"

# one synthetic 10k-point population, shared by the statistical criteria
SEED_DATA = 101
SEED_DRAW = 102
SEED_MC = 103
SEED_SUBSAMPLE = 41


def check(number, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def big_points():
    return make_lognormal(10_000, seed=SEED_DATA)


@pytest.fixture(scope="module")
def big_model(big_points):
    return fit(big_points)


@pytest.fixture(scope="module")
def big_model_path(tmp_path_factory, big_model):
    bundle = ModelBundle(
        models={ProfileKey.from_string(KEY_TEXT): big_model},
        created="2026-08-14T00:00:00+00:00",
    )
    path = tmp_path_factory.mktemp("acceptance") / "models.json"
    save(bundle, path)
    return path


# (rssi, expected quality) per technology: the six values hugging the two
# bin edges, then six values well inside the bins.
BIN_CASES = {
    Rat.THREE_G: [
        (-101.0, SignalQuality.BAD),
        (-100.0, SignalQuality.BAD),
        (-99.0, SignalQuality.ORDINARY),
        (-86.0, SignalQuality.ORDINARY),
        (-85.0, SignalQuality.ORDINARY),
        (-84.0, SignalQuality.GOOD),
        (-115.0, SignalQuality.BAD),
        (-105.0, SignalQuality.BAD),
        (-95.0, SignalQuality.ORDINARY),
        (-90.0, SignalQuality.ORDINARY),
        (-80.0, SignalQuality.GOOD),
        (-70.0, SignalQuality.GOOD),
    ],
    Rat.FOUR_G: [
        (-86.0, SignalQuality.BAD),
        (-85.0, SignalQuality.BAD),
        (-84.0, SignalQuality.ORDINARY),
        (-76.0, SignalQuality.ORDINARY),
        (-75.0, SignalQuality.ORDINARY),
        (-74.0, SignalQuality.GOOD),
        (-100.0, SignalQuality.BAD),
        (-90.0, SignalQuality.BAD),
        (-82.0, SignalQuality.ORDINARY),
        (-78.0, SignalQuality.ORDINARY),
        (-70.0, SignalQuality.GOOD),
        (-60.0, SignalQuality.GOOD),
    ],
}


def test_c01_signal_binning_exact():
    wrong = [
        f"({rat.value}, {rssi}) -> {bin_signal(rat, rssi).value}, want {expected.value}"
        for rat, cases in BIN_CASES.items()
        for rssi, expected in cases
        if bin_signal(rat, rssi) is not expected
    ]
    check(1, not wrong, wrong or "24/24 boundary and interior rssi values binned exactly")


# frozen high-precision evaluations of (n(d+2)/4)^(-1/(d+4))
SILVERMAN_ORACLE = {
    (1, 1): 1.0592238410488122,
    (100, 3): 0.5016969106227039,
    (10000, 3): 0.2598526445218819,
}


def test_c02_silverman_factor():
    errors = {
        pair: abs(silverman_factor(*pair) - expected)
        for pair, expected in SILVERMAN_ORACLE.items()
    }
    check(
        2,
        all(err <= 1e-9 for err in errors.values()),
        f"max |error| = {max(errors.values()):.3e} over {sorted(errors)} (tol 1e-9)",
    )


def _mc_integral(model, rng, draws):
    """Importance-sampling estimate of the density's integral over R^3.

    The proposal is an equal-weight mixture of axis-aligned Gaussians at the
    data points with per-dimension width 0.6 * std, wide enough to dominate
    the model's kernels, so the weights stay bounded.
    """
    points = model.points
    n = len(points)
    widths = 0.6 * points.std(axis=0, ddof=1)
    x = points[rng.integers(0, n, size=draws)] + rng.standard_normal((draws, 3)) * widths
    norm = (2.0 * np.pi) ** -1.5 / widths.prod()
    scaled_x = x / widths
    scaled_p = points / widths
    p_sq = np.einsum("ij,ij->i", scaled_p, scaled_p)
    q = np.empty(draws)
    chunk = max(1, 4_000_000 // n)
    for lo in range(0, draws, chunk):
        z = scaled_x[lo : lo + chunk]
        quad = np.einsum("ij,ij->i", z, z)[:, None] + p_sq[None, :] - 2.0 * (z @ scaled_p.T)
        np.maximum(quad, 0.0, out=quad)
        q[lo : lo + chunk] = np.exp(quad * -0.5, out=quad).mean(axis=1)
    return float(np.mean(density(model, x) / (norm * q)))


def test_c03_kde_sampling_fidelity(big_points, big_model):
    start = time.perf_counter()
    draws = sample_points(big_model, np.random.default_rng(SEED_DRAW), 10_000)
    marginal_d = [
        ks_two_sample(big_points[:, column], draws[:, column]).d_statistic
        for column in range(3)
    ]
    integral = _mc_integral(big_model, np.random.default_rng(SEED_MC), 40_000)
    elapsed = time.perf_counter() - start
    ok = (
        max(marginal_d) <= 0.05
        and 0.98 <= integral <= 1.02
        and elapsed < 30.0
    )
    check(
        3,
        ok,
        f"marginal KS D = {[round(d, 4) for d in marginal_d]} (max 0.05), "
        f"integral = {integral:.4f} (in [0.98, 1.02]), {elapsed:.1f}s (< 30s)",
    )


def test_c04_subsample_shape(big_points):
    start = time.perf_counter()
    report = subsample_experiment(
        big_points,
        sizes=(10, 100, 1000, 10000),
        repetitions=100,
        cap=10000,
        rng=np.random.default_rng(SEED_SUBSAMPLE),
    )
    problems = []
    summary = {}
    for dimension in DIMENSIONS:
        medians = [
            float(np.median(report.d_values[(dimension, size)])) for size in (10, 100, 1000, 10000)
        ]
        summary[dimension] = [round(value, 4) for value in medians]
        if medians[3] != 0.0:
            problems.append(f"{dimension}: median D(10000) = {medians[3]} != 0")
        if not medians[0] > medians[1] > medians[2] > medians[3]:
            problems.append(f"{dimension}: medians not strictly decreasing {medians}")
        if not 0.04 <= medians[1] <= 0.15:
            problems.append(f"{dimension}: median D(100) = {medians[1]} outside [0.04, 0.15]")
        if not 0.01 <= medians[2] <= 0.05:
            problems.append(f"{dimension}: median D(1000) = {medians[2]} outside [0.01, 0.05]")
    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        problems.append(f"runtime {elapsed:.1f}s over 60s budget")
    check(4, not problems, problems or f"median D by size {summary}, {elapsed:.1f}s (< 60s)")


def _speeds_from_csv(path):
    return np.array(
        [
            float(line.split(",")[5])
            for line in Path(path).read_text().splitlines()
            if line and line[0].isdigit()
        ]
    )


def _iqr(values):
    return float(np.percentile(values, 75) - np.percentile(values, 25))


def test_c05_download_variability(big_model, big_model_path, tmp_path, capsys):
    start = time.perf_counter()
    varied_csv = tmp_path / "varied.csv"
    assert (
        main(
            [
                "validate",
                "--models",
                str(big_model_path),
                "--profile",
                KEY_TEXT,
                "--downloads",
                "1000",
                "--object-size",
                "10MB",
                "--seed",
                "21",
                "--output",
                str(varied_csv),
            ]
        )
        == 0
    )
    simple_csv = tmp_path / "simple.csv"
    assert (
        main(
            [
                "validate",
                "--models",
                str(big_model_path),
                "--profile",
                KEY_TEXT,
                "--downloads",
                "1000",
                "--object-size",
                "10MB",
                "--simple",
                "--seed",
                "22",
                "--output",
                str(simple_csv),
            ]
        )
        == 0
    )
    capsys.readouterr()
    emulated = _speeds_from_csv(varied_csv)
    simple = _speeds_from_csv(simple_csv)
    # reference: the stored measurements pushed through the same fluid link
    observed = np.array(
        [
            simulate_download(SimulatedLink(p[0], p[1], p[2], 2), 10_000_000)[1]
            for p in big_model.points
        ]
    )
    iqr_ratio = _iqr(emulated) / _iqr(observed)
    simple_iqr = _iqr(simple)
    d = ks_two_sample(observed, emulated).d_statistic
    elapsed = time.perf_counter() - start
    ok = (
        len(emulated) == 1000
        and 0.75 <= iqr_ratio <= 1.25
        and simple_iqr == 0.0
        and d <= 0.08
        and elapsed < 60.0
    )
    check(
        5,
        ok,
        f"IQR ratio = {iqr_ratio:.3f} (in [0.75, 1.25]), simple IQR = {simple_iqr!r} "
        f"(exactly 0), KS D = {d:.4f} (max 0.08), {elapsed:.1f}s (< 60s)",
    )


def test_c06_fluid_link_exact():
    duration, speed = simulate_download(SimulatedLink(20000.0, 5000.0, 40.0, 2), 10_000_000)
    expected_duration = 4.08
    expected_speed = 80000.0 / 4.08
    duration_err = abs(duration - expected_duration) / expected_duration
    speed_err = abs(speed - expected_speed) / expected_speed
    check(
        6,
        duration_err <= 1e-6 and speed_err <= 1e-6,
        f"duration = {duration!r} (want 4.08), speed = {speed!r} "
        f"(want {expected_speed!r}), rel err {max(duration_err, speed_err):.2e} (tol 1e-6)",
    )


def _installed_anchors(log):
    """(device, attachment point) pairs still configured after a dry-run log."""
    live = set()
    for line in log:
        parts = line.split()
        if parts[:2] != ["tc", "qdisc"]:
            continue  # classes, filters, and netem children die with their root
        device = parts[parts.index("dev") + 1]
        if "ingress" in parts[4:]:
            anchor = (device, "ingress")
        elif "root" in parts:
            anchor = (device, "root")
        else:
            continue
        if parts[2] == "add":
            live.add(anchor)
        elif parts[2] == "del":
            live.discard(anchor)
    return live


def test_c07_rendering_golden():
    renders = {
        "apply_basic.txt": render_commands(
            EmulationParams(20000.0, 5000.0, 40.0), "eth0", "ifb0"
        ),
        "apply_gaussian.txt": render_commands(
            EmulationParams(15000.0, 3000.0, 40.0, latency_std_ms=10.0), "eth0", "ifb0"
        ),
        "apply_fractional.txt": render_commands(
            EmulationParams(51200.0, 10240.0, 65.0), "wlan0", "ifb1"
        ),
    }
    mismatched = [
        name
        for name, commands in renders.items()
        if "\n".join(commands) + "\n" != (GOLDEN / name).read_text()
    ]
    backend = DryRunBackend("eth0")
    backend.apply(EmulationParams(20000.0, 5000.0, 40.0))
    backend.apply(EmulationParams(300.0, 100.0, 200.0))  # replace
    backend.clear()
    residual = _installed_anchors(backend.log)
    ok = not mismatched and not residual
    check(
        7,
        ok,
        f"golden mismatches: {mismatched or 'none'}; "
        f"residual rules after replace-then-clear: {sorted(residual) or 'none'}",
    )


class _FaultyBackend:
    """Applies fine until the configured call, then raises; always accepts clear."""

    def __init__(self, fail_on_apply):
        self.fail_on_apply = fail_on_apply
        self.apply_calls = 0
        self.clear_calls = 0

    def apply(self, params):
        self.apply_calls += 1
        if self.apply_calls == self.fail_on_apply:
            raise BackendError("injected fault")

    def clear(self):
        self.clear_calls += 1


def test_c08_scheduler_contract(big_model):
    start = time.perf_counter()
    report = run_periodic(
        big_model, DryRunBackend(), 200.0, 10.0, np.random.default_rng(31), VirtualClock()
    )
    applies = report.applies()
    expected_times = [10.0 * k for k in range(20)]
    timing_ok = len(applies) == 20 and all(
        abs(event.time_s - expected) <= 0.05
        for event, expected in zip(applies, expected_times)
    )
    clears = [event for event in report.events if event.action == "clear"]
    shape_ok = len(clears) == 1 and report.events[-1].action == "clear"

    faulty = _FaultyBackend(fail_on_apply=3)
    with pytest.raises(BackendError):
        run_periodic(big_model, faulty, 200.0, 10.0, np.random.default_rng(32), VirtualClock())
    elapsed = time.perf_counter() - start
    ok = timing_ok and shape_ok and faulty.clear_calls == 1 and elapsed < 5.0
    check(
        8,
        ok,
        f"{len(applies)} applies at 0..190 (+-50ms ok={timing_ok}), "
        f"{len(clears)} final clear, clear after injected fault = "
        f"{faulty.clear_calls == 1}, {elapsed:.2f}s (< 5s)",
    )


def test_c09_persistence_round_trip(big_model_path, tmp_path):
    original = Path(big_model_path).read_bytes()
    resaved_path = tmp_path / "resaved.json"
    save(load(big_model_path), resaved_path)
    round_trip_ok = original == resaved_path.read_bytes()

    corrupted_path = tmp_path / "corrupted.json"
    corrupted_path.write_text(
        re.sub(r'"bandwidth_factor": ', '"bandwidth_factor": -', original.decode(), count=1)
    )
    with pytest.raises(CorruptModelError) as exc_info:
        load(corrupted_path)
    named_ok = KEY_TEXT in str(exc_info.value)
    check(
        9,
        round_trip_ok and named_ok,
        f"save/load/save byte-identical = {round_trip_ok}, "
        f"negative factor rejected naming the profile = {named_ok}",
    )


def test_c10_end_to_end_determinism(big_model_path, tmp_path, capsys):
    start = time.perf_counter()

    def run_twice(argv_for):
        outputs = []
        for name in ("first.csv", "second.csv"):
            out = tmp_path / name
            assert main(argv_for(out)) == 0
            outputs.append(out.read_bytes())
        return outputs[0] == outputs[1]

    validate_ok = run_twice(
        lambda out: [
            "validate",
            "--models",
            str(big_model_path),
            "--profile",
            KEY_TEXT,
            "--downloads",
            "1000",
            "--seed",
            "77",
            "--output",
            str(out),
        ]
    )
    subsample_ok = run_twice(
        lambda out: [
            "subsample",
            "--models",
            str(big_model_path),
            "--profile",
            KEY_TEXT,
            "--sizes",
            "10,100,1000",
            "--reps",
            "100",
            "--cap",
            "10000",
            "--seed",
            "78",
            "--output",
            str(out),
        ]
    )
    capsys.readouterr()
    elapsed = time.perf_counter() - start
    ok = validate_ok and subsample_ok and elapsed < 60.0
    check(
        10,
        ok,
        f"validate byte-identical = {validate_ok}, subsample byte-identical = "
        f"{subsample_ok}, {elapsed:.1f}s (< 60s)",
    )
