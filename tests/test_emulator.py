"""Presets, scenario parsing, and the run scheduler."""

import math
import time
from pathlib import Path

import numpy as np
import pytest
from conftest import make_lognormal

from errant import (
    BackendError,
    DryRunBackend,
    KdeModel,
    ModelBundle,
    PathologicalModelError,
    PresetError,
    ProfileKey,
    RunEvent,
    ScenarioError,
    Segment,
    TcBackend,
    VirtualClock,
    fit,
    parse_scenario,
    run,
    run_fixed,
    run_periodic,
    run_trace,
    sample_params,
    sample_points,
    sampler,
    simple_params,
    static_preset,
)
from errant import kde
from errant.emulator import _PRESETS
from errant.kde import EmulationParams

GOLDEN = Path(__file__).parent / "golden"
BENCH = Path(__file__).resolve().parent.parent / "bench"


class RecordingBackend:
    """Counts actions; optionally fails on the nth apply or on clear."""

    def __init__(self, fail_on_apply=None, fail_on_clear=False):
        self.actions = []
        self.fail_on_apply = fail_on_apply
        self.fail_on_clear = fail_on_clear

    def apply(self, params):
        self.actions.append(("apply", params))
        applies = sum(1 for action, _ in self.actions if action == "apply")
        if self.fail_on_apply is not None and applies >= self.fail_on_apply:
            raise BackendError("injected apply failure")

    def clear(self):
        self.actions.append(("clear", None))
        if self.fail_on_clear:
            raise BackendError("injected clear failure")

    def count(self, action):
        return sum(1 for name, _ in self.actions if name == action)


def small_model(seed=1, n=120):
    return fit(make_lognormal(n, seed))


def nearly_constant_model(download, upload, latency):
    """Model whose draws always format to the same command values."""
    points = np.array(
        [
            [download, upload, latency],
            [download + 0.2, upload, latency],
            [download, upload + 0.2, latency],
            [download, upload, latency + 0.0004],
        ]
    )
    return KdeModel(
        points=points, covariance=np.cov(points, rowvar=False), bandwidth_factor=1e-9
    )


# --- presets ---------------------------------------------------------------


def test_preset_values():
    name, chrome = static_preset("chrome", "3G")
    assert name == "chrome:3G"
    assert (chrome.download_kbps, chrome.upload_kbps, chrome.latency_ms) == (750, 250, 100)
    _, wpt = static_preset("webpagetest", "4G")
    assert (wpt.download_kbps, wpt.upload_kbps, wpt.latency_ms) == (12000, 12000, 70)
    _, nlc = static_preset("nlc", "4G")
    assert (nlc.download_kbps, nlc.upload_kbps, nlc.latency_ms) == (51200, 10240, 65)


def test_preset_android_3g_slow_is_range_midpoint():
    _, preset = static_preset("android", "3G-slow")
    assert preset.latency_ms == 117.5


def test_preset_lookup_case_insensitive():
    name, params = static_preset("Chrome", "3g-FAST")
    assert name == "chrome:3G-fast"
    assert params.download_kbps == 1000


def test_readme_preset_catalog_matches_presets():
    text = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = text.split("### Preset catalog", 1)[1].split("\n#", 1)[0]
    rows = [
        [cell.strip() for cell in line.strip("|").split("|")]
        for line in section.splitlines()
        if line.startswith("|") and not line.startswith("|---")
    ]
    assert rows[0] == ["tool", "name", "down", "up", "rtt"]
    documented = [
        (f"{tool}:{name}", float(down), float(up), float(rtt))
        for tool, name, down, up, rtt in rows[1:]
    ]
    shipped = [
        (name, params.download_kbps, params.upload_kbps, params.latency_ms)
        for name, params in _PRESETS.items()
    ]
    assert len(documented) == 17
    assert documented == shipped
    assert all(params.latency_std_ms is None for params in _PRESETS.values())


def test_unknown_preset_lists_available():
    with pytest.raises(PresetError, match="chrome:3G"):
        static_preset("chrome", "5G")


# --- parameter derivation ---------------------------------------------------


def test_simple_params_means_and_latency_std():
    baseline = simple_params(np.array([[100.0, 50.0, 10.0], [200.0, 150.0, 30.0]]))
    assert baseline.download_kbps == 150.0
    assert baseline.upload_kbps == 100.0
    assert baseline.latency_ms == 20.0
    assert baseline.latency_std_ms == 10.0


def test_sample_params_deterministic():
    model = small_model()
    a = sample_params(model, np.random.default_rng(42))
    b = sample_params(model, np.random.default_rng(42))
    assert a == b


def test_sampler_draws_a_block_only_when_one_runs_out(monkeypatch):
    blocks, original = [], kde.sample

    def counted(model, rng, count):
        blocks.append(count)
        return original(model, rng, count)

    monkeypatch.setattr(kde, "sample", counted)
    draw = sampler(small_model(), np.random.default_rng(8))
    assert blocks == []  # nothing is drawn before the first apply
    for _ in range(300):
        draw()
    assert blocks == [256, 256]


# --- scenario parsing --------------------------------------------------------


def test_parse_scenario_with_comments():
    scenario = parse_scenario(
        "# sightseeing route\n"
        "\n"
        "10,specific/norway/telia/4G/good,fixed\n"
        "5.5,universal/any/any/3G/bad,periodic:2 # resample often\n"
    )
    assert len(scenario) == 2
    assert scenario[0].duration_s == 10
    assert scenario[0].period_s == 10
    assert scenario[1].duration_s == 5.5
    assert scenario[1].period_s == 2.0


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("##\nx,specific/a/b/4G/good,fixed", "line 2"),
        ("10,specific/a/b/4G/good,sometimes", "unknown mode"),
        ("10,specific/a/b/4G/good,periodic:20", "period"),
        ("10,not-a-key,fixed", "profile key"),
        ("-1,specific/a/b/4G/good,fixed", "duration"),
        ("nan,specific/a/b/4G/good,fixed", "line 1: duration"),
        ("inf,specific/a/b/4G/good,fixed", "line 1: duration"),
        ("-inf,specific/a/b/4G/good,fixed", "line 1: duration"),
        ("10,specific/a/b/4G/good,periodic:nan", "line 1: period"),
        ("10,specific/a/b/4G/good,periodic:0", "line 1: period"),
        ("10,specific/a/b/4G/good,periodic:x", "line 1: bad period in 'periodic:x'"),
        ("inf,specific/a/b/4G/good,periodic:1", "line 1: duration"),
        ("", "no steps"),
        ("10,fixed", "line 1: expected <duration_s>,<profile_key>,<mode>"),
    ],
)
def test_parse_scenario_errors(text, fragment):
    with pytest.raises(ScenarioError, match=fragment):
        parse_scenario(text)


# --- scheduler ---------------------------------------------------------------


def test_run_fixed_one_apply_one_clear():
    backend = RecordingBackend()
    report = run_fixed(small_model(), backend, 10.0, np.random.default_rng(1), VirtualClock())
    assert backend.count("apply") == 1
    assert backend.count("clear") == 1
    actions = [event.action for event in report.events]
    assert actions == ["apply", "clear"]
    assert report.events[0].time_s == pytest.approx(0.0, abs=0.05)
    assert report.events[1].time_s == pytest.approx(10.0, abs=0.05)


def test_run_periodic_exact_schedule():
    backend = RecordingBackend()
    report = run_periodic(
        small_model(), backend, 200.0, 10.0, np.random.default_rng(2), VirtualClock()
    )
    applies = report.applies()
    assert len(applies) == 20
    for index, event in enumerate(applies):
        assert event.time_s == pytest.approx(10.0 * index, abs=0.05)
    assert report.events[-1].action == "clear"
    assert report.events[-1].time_s == pytest.approx(200.0, abs=0.05)


def test_run_periodic_apply_count_property():
    rng = np.random.default_rng(3)
    model = small_model()
    for _ in range(15):
        duration = float(rng.uniform(1, 50))
        period = float(rng.uniform(0.3, duration))
        backend = RecordingBackend()
        report = run_periodic(model, backend, duration, period, rng, VirtualClock())
        assert backend.count("apply") == math.ceil(duration / period)
        times = [event.time_s for event in report.events]
        assert times == sorted(times)


def test_period_equal_duration_is_fixed():
    model = small_model()
    backend = RecordingBackend()
    run_periodic(model, backend, 30.0, 30.0, np.random.default_rng(4), VirtualClock())
    assert backend.count("apply") == 1


def test_run_periodic_validation():
    model = small_model()
    rng = np.random.default_rng(5)
    with pytest.raises(ValueError):
        run_periodic(model, RecordingBackend(), 10.0, 20.0, rng, VirtualClock())
    with pytest.raises(ValueError):
        run_periodic(model, RecordingBackend(), 10.0, 0.0, rng, VirtualClock())
    with pytest.raises(ValueError):
        run_fixed(model, RecordingBackend(), -1.0, rng, VirtualClock())
    nan, inf = math.nan, math.inf
    for duration, period in ((nan, 1.0), (inf, 1.0), (inf, inf), (10.0, nan)):
        backend = RecordingBackend()
        with pytest.raises(ValueError):
            run_periodic(model, backend, duration, period, rng, VirtualClock())
        assert backend.actions == []


def test_failed_apply_still_clears_backend():
    backend = RecordingBackend(fail_on_apply=3)
    with pytest.raises(BackendError, match="injected"):
        run_periodic(
            small_model(), backend, 100.0, 10.0, np.random.default_rng(6), VirtualClock()
        )
    assert backend.count("apply") == 3
    assert backend.count("clear") == 1  # cleanup reached the backend


def test_failing_cleanup_does_not_mask_apply_error():
    backend = RecordingBackend(fail_on_apply=1, fail_on_clear=True)
    with pytest.raises(BackendError, match="apply"):
        run_fixed(small_model(), backend, 5.0, np.random.default_rng(7), VirtualClock())
    assert backend.count("clear") == 1


def test_same_seed_same_parameter_sequence():
    model = small_model()
    reports = []
    for _ in range(2):
        backend = RecordingBackend()
        reports.append(
            run_periodic(model, backend, 50.0, 10.0, np.random.default_rng(8), VirtualClock())
        )
    first = [event.params for event in reports[0].applies()]
    second = [event.params for event in reports[1].applies()]
    assert first == second


def test_run_event_is_an_immutable_record():
    model = small_model()
    reports = [
        run_periodic(model, DryRunBackend(), 50.0, 10.0, np.random.default_rng(8), VirtualClock())
        for _ in range(2)
    ]
    assert reports[0].events == reports[1].events  # same seed, equal events
    assert RunEvent._fields == ("time_s", "action", "params")
    first = reports[0].events[0]
    with pytest.raises(AttributeError):
        first.params = None
    time_s, action, params = first
    assert (time_s, action) == (0.0, "apply") and params == first.params
    assert reports[0].events[-1] == RunEvent(50.0, "clear")  # params defaults to None
    applies = reports[0].applies()
    assert [event.time_s for event in applies] == [0.0, 10.0, 20.0, 30.0, 40.0]
    assert applies == [event for event in reports[0].events if event.action == "apply"]


def test_run_holds_preset_and_baseline_params():
    backend = RecordingBackend()
    params = EmulationParams(750.0, 250.0, 100.0)
    report = run([Segment(5.0, 5.0, lambda: params)], backend, VirtualClock())
    assert backend.actions[0] == ("apply", params)
    assert report.applies()[0].params == params

    backend = RecordingBackend()
    samples = make_lognormal(50, seed=9)
    baseline = simple_params(samples)
    run([Segment(5.0, 5.0, lambda: baseline)], backend, VirtualClock())
    action, payload = backend.actions[0]
    assert action == "apply"
    assert payload.latency_ms == samples[:, 2].mean()
    assert payload.latency_std_ms == samples[:, 2].std()


def test_run_chains_segments_on_one_timeline():
    backend = RecordingBackend()
    draws = iter([EmulationParams(1.0, 2.0, 3.0), EmulationParams(4.0, 5.0, 6.0)] * 2)
    report = run(
        [Segment(4.0, 4.0, lambda: next(draws)), Segment(6.0, 3.0, lambda: next(draws))],
        backend,
        VirtualClock(),
    )
    timeline = [(event.action, event.time_s) for event in report.events]
    assert timeline == [
        ("apply", 0.0),
        ("clear", 4.0),
        ("apply", 4.0),
        ("apply", 7.0),
        ("clear", 10.0),
    ]
    assert [params for action, params in backend.actions if action == "apply"] == [
        event.params for event in report.applies()
    ]


def test_run_checks_every_segment_before_applying():
    params = EmulationParams(1.0, 1.0, 1.0)
    for bad in (Segment(0.0, 1.0, lambda: params), Segment(5.0, 6.0, lambda: params)):
        backend = RecordingBackend()
        with pytest.raises(ValueError):
            run([Segment(5.0, 5.0, lambda: params), bad], backend, VirtualClock())
        assert backend.actions == []


def test_monotonic_clock_actually_waits():
    backend = RecordingBackend()
    start = time.monotonic()
    run_fixed(small_model(), backend, 0.05, np.random.default_rng(10))
    assert time.monotonic() - start >= 0.05


def test_report_to_text_layout():
    backend = RecordingBackend()
    report = run_fixed(small_model(), backend, 10.0, np.random.default_rng(11), VirtualClock())
    report.notes = {"seed": "11"}
    lines = report.to_text().splitlines()
    assert lines[0] == "# seed=11"
    assert lines[1] == "time_s,action,download_kbps,upload_kbps,latency_ms"
    assert lines[2].startswith("0.000,apply,")
    assert lines[3].startswith("10.000,clear,,,")


# --- traces ------------------------------------------------------------------


def trace_bundle():
    return ModelBundle(
        models={
            ProfileKey.from_string("specific/norway/telia/4G/good"): nearly_constant_model(
                20000.0, 5000.0, 40.0
            ),
            ProfileKey.from_string("universal/any/any/3G/bad"): nearly_constant_model(
                512.0, 256.0, 200.0
            ),
        }
    )


TRACE_TEXT = (
    "# three-step tour\n"
    "10,specific/norway/telia/4G/good,fixed\n"
    "5,universal/any/any/3G/bad,fixed\n"
    "10,specific/norway/telia/4G/good,periodic:5\n"
)


def test_run_trace_timeline():
    backend = RecordingBackend()
    report = run_trace(
        parse_scenario(TRACE_TEXT), trace_bundle(), backend, np.random.default_rng(12), VirtualClock()
    )
    timeline = [(event.action, round(event.time_s, 3)) for event in report.events]
    assert timeline == [
        ("apply", 0.0),
        ("clear", 10.0),
        ("apply", 10.0),
        ("clear", 15.0),
        ("apply", 15.0),
        ("apply", 20.0),
        ("clear", 25.0),
    ]


def test_run_refuses_a_model_below_the_acceptance_guard():
    # about 0.6% of proposals are positive: one draw often comes from the first
    # 256, but a block of 256 passes the guard's 1,000-proposal window, so a run
    # refuses the model at its first draw, as validate's bulk draw does
    points = 1e-3 * np.array(
        [[1.0, 1.0, 1.0], [1.01, 1.0, 1.0], [1.0, 1.01, 1.0], [1.0, 1.0, 1.01]]
    )
    covariance = np.full((3, 3), -0.48)
    np.fill_diagonal(covariance, 1.0)
    model = KdeModel(points=points, covariance=covariance, bandwidth_factor=1.0)
    backend = RecordingBackend()
    with pytest.raises(PathologicalModelError):
        run_fixed(model, backend, 10.0, np.random.default_rng(0), VirtualClock())
    assert backend.actions == [("clear", None)]


def test_run_trace_segments_never_share_a_block():
    # each segment starts a block of its own and drops the rest of it
    model = small_model()
    bundle = ModelBundle(models={ProfileKey("specific/norway/telia/4G/good"): model})
    scenario = parse_scenario(
        "6,specific/norway/telia/4G/good,periodic:2\n"
        "4,specific/norway/telia/4G/good,periodic:2\n"
    )
    backend = RecordingBackend()
    run_trace(scenario, bundle, backend, np.random.default_rng(14), VirtualClock())
    applied = [params for action, params in backend.actions if action == "apply"]
    rng = np.random.default_rng(14)
    first, second = sample_points(model, rng, 256), sample_points(model, rng, 256)
    expected = np.concatenate([first[:3], second[:2]])
    np.testing.assert_array_equal(
        [[p.download_kbps, p.upload_kbps, p.latency_ms] for p in applied], expected
    )


def test_run_trace_dry_run_matches_golden():
    backend = DryRunBackend("eth0", "ifb0")
    run_trace(
        parse_scenario(TRACE_TEXT), trace_bundle(), backend, np.random.default_rng(13), VirtualClock()
    )
    assert "\n".join(backend.log) + "\n" == (GOLDEN / "trace_dry_run.txt").read_text()


class _CheckedTcBackend(TcBackend):
    """TcBackend on the benchmark's fake tc, checking its state around every action."""

    def __init__(self, runner, fake):
        super().__init__("eth0", "ifb0", runner=runner)
        self.fake = fake
        self.applies = []  # (first install?, fake's command count before, after)

    def apply(self, params):
        first, start = self.configured is None, self.fake.commands
        super().apply(params)
        self.applies.append((first, start, self.fake.commands))
        assert self.fake.shaped()

    def clear(self):
        super().clear()
        assert not self.fake.has_rules()


def test_tc_resample_keeps_one_direction_shaped(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from faketc import FakeTc

    fake = FakeTc(0.0, "eth0", "ifb0")
    netem_after = []  # devices with a netem leaf after each command

    def runner(command):
        result = fake(command)
        netem_after.append(set(fake.netem))
        return result

    backend = _CheckedTcBackend(runner, fake)
    scenario = parse_scenario(
        "10,specific/norway/telia/4G/good,periodic:2\n"
        "6,universal/any/any/3G/bad,periodic:3\n"
        "4,specific/norway/telia/4G/good,fixed\n"
    )
    run_trace(scenario, trace_bundle(), backend, np.random.default_rng(16), VirtualClock())
    counts = [(first, end - start) for first, start, end in backend.applies]
    assert counts == [(True, 9)] + [(False, 8)] * 4 + [(True, 9), (False, 8), (True, 9)]
    assert fake.commands == 9 * 3 + 8 * 5 + 3 * 3
    for first, start, end in backend.applies:
        if not first:  # a resample never unshapes both directions at once
            assert all(netem_after[start:end])


def test_failed_resample_is_cleared(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from faketc import FakeTc

    fake = FakeTc(0.0, "eth0", "ifb0")
    ifb_class_adds = 0

    def runner(command):
        nonlocal ifb_class_adds
        if command.startswith("tc class add dev ifb0"):
            ifb_class_adds += 1
            if ifb_class_adds == 2:  # the second apply's download class
                return 2, "RTNETLINK answers: Operation not permitted"
        return fake(command)

    backend = TcBackend("eth0", "ifb0", runner=runner)
    with pytest.raises(BackendError, match="tc class add dev ifb0 .*Operation not permitted"):
        run_periodic(small_model(), backend, 10.0, 2.0, np.random.default_rng(17), VirtualClock())
    assert backend.configured is None  # run cleared on the error path
    assert not fake.has_rules()


def test_failed_first_install_is_cleared(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from faketc import FakeTc

    fake = FakeTc(0.0, "eth0", "ifb0")
    failures = []

    def runner(command):
        if command.startswith("tc class add dev ifb0") and not failures:
            failures.append(command)  # only the first install's download class fails
            return 2, "RTNETLINK answers: Operation not permitted"
        return fake(command)

    backend = TcBackend("eth0", "ifb0", runner=runner)
    params = EmulationParams(1000.0, 500.0, 40.0)
    with pytest.raises(BackendError, match="tc class add dev ifb0 .*Operation not permitted"):
        backend.apply(params)
    assert not fake.has_rules()  # the ingress hook and egress tree came off again
    assert backend.configured is None
    backend.apply(params)  # a retry without clear installs from scratch
    assert fake.shaped()
    assert backend.configured == params


def test_run_trace_missing_profile_preflight():
    scenario = parse_scenario("10,specific/italy/vodafone/3G/bad,fixed")
    backend = RecordingBackend()
    with pytest.raises(ScenarioError, match="specific/italy/vodafone/3G/bad"):
        run_trace(scenario, trace_bundle(), backend, np.random.default_rng(14), VirtualClock())
    assert backend.actions == []  # resolution failed before any backend call


def test_single_step_trace_equals_run_fixed():
    bundle = trace_bundle()
    key = ProfileKey.from_string("specific/norway/telia/4G/good")
    scenario = parse_scenario(f"10,{key},fixed")
    backend_a = RecordingBackend()
    trace_report = run_trace(scenario, bundle, backend_a, np.random.default_rng(15), VirtualClock())
    backend_b = RecordingBackend()
    fixed_report = run_fixed(bundle.models[key], backend_b, 10.0, np.random.default_rng(15), VirtualClock())
    assert [e.action for e in trace_report.events] == [e.action for e in fixed_report.events]
    assert [e.time_s for e in trace_report.events] == [e.time_s for e in fixed_report.events]
