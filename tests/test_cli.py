"""Command-line behavior: pipelines, reports, exit codes, determinism."""

import csv
import io
import json
import os
import re
import signal
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from conftest import CSV_HEADER, make_lognormal, profile_rows

from errant import DryRunBackend, ProfileKey, VirtualClock, fit, load, sample_points, save
from errant import cli
from errant.cli import main

KEY_TEXT = "specific/norway/telia/4G/good"
GOLDEN = Path(__file__).parent / "golden"


def run_cli(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse usage failures
        return exc.code


def write_csv(path, rows):
    path.write_text("\n".join([CSV_HEADER] + rows) + "\n")


@pytest.fixture
def two_profile_csv(tmp_path):
    rows = profile_rows(150, seed=1, operator="telia") + profile_rows(
        120, seed=2, operator="ice"
    )
    path = tmp_path / "tests.csv"
    write_csv(path, rows)
    return path


def test_build_models_pipeline(tmp_path, two_profile_csv, capsys):
    out = tmp_path / "models.json"
    code = run_cli(["build-models", "--input", str(two_profile_csv), "--output", str(out)])
    assert code == 0
    bundle = load(out)
    keys = sorted(bundle.models)
    assert keys == [
        "specific/norway/ice/4G/good",
        "specific/norway/telia/4G/good",
        "universal/any/any/4G/good",
    ]
    assert bundle.models[keys[2]].n == 270
    stdout = capsys.readouterr().out
    assert "specific/norway/telia/4G/good: n=150" in stdout
    assert "saved 3 models" in stdout


def test_build_models_no_survivors(tmp_path, capsys):
    path = tmp_path / "tiny.csv"
    write_csv(path, profile_rows(30, seed=3))
    code = run_cli(["build-models", "--input", str(path), "--output", str(tmp_path / "m.json")])
    assert code == 2
    assert "no profiles survive filter" in capsys.readouterr().err


def test_build_models_min_samples_one(tmp_path):
    path = tmp_path / "tiny.csv"
    write_csv(path, profile_rows(10, seed=4))
    out = tmp_path / "m.json"
    code = run_cli(
        ["build-models", "--input", str(path), "--output", str(out), "--min-samples", "1"]
    )
    assert code == 0
    assert len(load(out).models) == 2  # the specific profile and its universal


def test_build_models_writes_rejects(tmp_path, capsys):
    path = tmp_path / "mixed.csv"
    rows = profile_rows(120, seed=5)
    rows.append("9,norway,telia,4G,-70,1000,500,-1")  # nonpositive latency
    write_csv(path, rows)
    code = run_cli(
        [
            "build-models",
            "--input",
            str(path),
            "--output",
            str(tmp_path / "m.json"),
            "--write-rejects",
        ]
    )
    assert code == 0
    rejects = (tmp_path / "mixed.csv.rejects.csv").read_text().splitlines()
    assert rejects[0].endswith(",reason")
    assert rejects[1].endswith(",nonpositive latency")
    assert "rejected 1 of 121 rows" in capsys.readouterr().err


def test_build_models_rejects_slash_in_names(tmp_path, capsys):
    # "/" separates the parts of a profile key, so such a model file could not be read
    path = tmp_path / "slash.csv"
    rows = profile_rows(30, seed=5)
    rows += profile_rows(30, seed=6, operator="t/mobile")
    rows += profile_rows(2, seed=7, country="nor/way")
    write_csv(path, rows)
    out = tmp_path / "m.json"
    argv = ["build-models", "--input", str(path), "--output", str(out), "--min-samples", "10"]
    assert run_cli(argv + ["--write-rejects"]) == 0
    rejects = (tmp_path / "slash.csv.rejects.csv").read_text().splitlines()
    assert rejects[1:] == (
        [f"{row},'/' in operator" for row in rows[30:60]]
        + [f"{row},'/' in country" for row in rows[60:]]
    )
    assert run_cli(["list-profiles", "--models", str(out)]) == 0
    assert "t/mobile" not in capsys.readouterr().out


def test_build_models_rejects_hash_in_names(tmp_path, capsys):
    # "#" starts a comment in a trace-run scenario, so no scenario could name such a profile
    path = tmp_path / "hash.csv"
    rows = profile_rows(30, seed=5)
    rows += profile_rows(30, seed=6, operator="telia#2")
    rows += profile_rows(2, seed=7, country="norway#")
    others = {
        "9,norway,telia,4G,-70,1000,500,-1": "nonpositive latency",
        "9,nor/way,telia#2,4G,-70,1000,500,40": "'/' in country",
        "9,norway,t/mobile,4G,-70,1000,500,40": "'/' in operator",
        "9,norway,,4G,-70,1000,500,40": "missing operator",
        "9,norway,telia,5G,-70,1000,500,40": "unknown rat '5G'",
    }
    write_csv(path, rows + list(others))
    out = tmp_path / "m.json"
    argv = ["build-models", "--input", str(path), "--output", str(out), "--min-samples", "10"]
    assert run_cli(argv + ["--write-rejects"]) == 0
    rejects = (tmp_path / "hash.csv.rejects.csv").read_text().splitlines()
    assert rejects[1:] == (
        [f"{row},'#' in operator" for row in rows[30:60]]
        + [f"{row},'#' in country" for row in rows[60:]]
        + [f"{row},{reason}" for row, reason in others.items()]
    )
    assert run_cli(["list-profiles", "--models", str(out)]) == 0
    assert "#" not in capsys.readouterr().out


def test_build_models_skips_zero_variance_profile(tmp_path, capsys):
    path = tmp_path / "flat.csv"
    flat = [re.sub(r",[^,]*$", ",40.000", row) for row in profile_rows(120, seed=9, operator="ice")]
    write_csv(path, profile_rows(150, seed=1) + flat)
    out = tmp_path / "m.json"
    assert run_cli(["build-models", "--input", str(path), "--output", str(out)]) == 0
    assert capsys.readouterr().err == (
        "skipping specific/norway/ice/4G/good: zero variance in latency; cannot fit a density\n"
    )
    keys = sorted(load(out).models)
    assert keys == ["specific/norway/telia/4G/good", "universal/any/any/4G/good"]


def test_csv_with_utf8_bom_reads_like_without(tmp_path, capsys):
    text = "\n".join([CSV_HEADER] + profile_rows(150, seed=8) + ["1,norway,telia,4G,-70,0,1,1"])
    out = tmp_path / "m.json"
    results = []
    for name, prefix in (("plain.csv", ""), ("bom.csv", "\ufeff")):
        path = tmp_path / name
        path.write_text(prefix + text + "\n", encoding="utf-8")
        build = ["build-models", "--input", str(path), "--output", str(out), "--write-rejects"]
        assert run_cli(build) == 0
        built = capsys.readouterr().out
        model = [line for line in out.read_text().splitlines() if '"created"' not in line]
        rejects = (tmp_path / f"{name}.rejects.csv").read_text()
        results.append((built, model, rejects))
    assert results[0] == results[1]
    assert results[0][2].startswith("timestamp,")


def test_build_models_schema_mapping(tmp_path):
    path = tmp_path / "renamed.csv"
    path.write_text(
        "\n".join(
            ["ts,country,operator,rat,rssi,download_kbps,upload_kbps,latency_ms"]
            + profile_rows(5, seed=6)
        )
        + "\n"
    )
    code = run_cli(
        [
            "build-models",
            "--input",
            str(path),
            "--output",
            str(tmp_path / "m.json"),
            "--min-samples",
            "1",
            "--column",
            "timestamp=ts",
        ]
    )
    assert code == 0


def test_build_models_unreadable_input(tmp_path, capsys):
    code = run_cli(
        ["build-models", "--input", str(tmp_path / "ghost.csv"), "--output", str(tmp_path / "m.json")]
    )
    assert code == 2
    assert "ghost.csv" in capsys.readouterr().err


def test_build_models_malformed_csv_is_data_error(tmp_path, capsys):
    # a field over csv's 131,072-character limit makes csv.reader raise
    path = tmp_path / "huge.csv"
    rows = profile_rows(150, seed=3)
    write_csv(path, rows[:5] + ['1,norway,"' + "x" * 200_000 + '",4G,-70,1,1,1'] + rows[5:])
    code = run_cli(["build-models", "--input", str(path), "--output", str(tmp_path / "m.json")])
    assert code == 2
    assert "line 7" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


def test_build_models_flag_checked_before_input(tmp_path, capsys):
    argv = ["build-models", "--input", str(tmp_path / "missing.csv"), "--output", "m.json"]
    assert run_cli(argv + ["--min-samples", "0"]) == 1
    assert "--min-samples" in capsys.readouterr().err


def test_list_profiles(small_bundle_path, capsys):
    assert run_cli(["list-profiles", "--models", str(small_bundle_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "profile,n,median_download_kbps,median_upload_kbps,median_latency_ms"
    assert lines[1].startswith("specific/norway/telia/4G/good,400,")


def test_key_with_a_comma_lists_and_replays(tmp_path, capsys):
    # a name may hold a comma: the listing quotes such a key, and a scenario step reads it
    path = tmp_path / "comma.csv"
    write_csv(path, profile_rows(300, seed=1, operator='"telia, inc"'))
    models = tmp_path / "m.json"
    assert run_cli(["build-models", "--input", str(path), "--output", str(models)]) == 0
    capsys.readouterr()
    assert run_cli(["list-profiles", "--models", str(models)]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert {len(row) for row in rows} == {5}
    key = "specific/norway/telia, inc/4G/good"
    assert [row[0] for row in rows[1:]] == [key, "universal/any/any/4G/good"]
    scenario = tmp_path / "route.scenario"
    scenario.write_text(f"10,{key},fixed\n5, {key} ,periodic:5\n")
    argv = ["trace-run", "--models", str(models), "--scenario", str(scenario), "--seed", "3"]
    assert run_cli(argv) == 0
    assert capsys.readouterr().out.count(",apply,") == 2


def test_list_profiles_empty_bundle(tmp_path, capsys):
    from errant import ModelBundle, save

    path = tmp_path / "empty.json"
    save(ModelBundle(), path)
    assert run_cli(["list-profiles", "--models", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "profile,n,median_download_kbps,median_upload_kbps,median_latency_ms"
    ]


SINGULAR_KEY = "universal/any/any/3G/bad"


@pytest.fixture
def singular_bundle_path(small_bundle_path):
    """The small bundle plus a model whose kernel covariance does not factor."""
    doc = json.loads(small_bundle_path.read_text())
    singular = dict(doc["models"][KEY_TEXT], covariance=[1e6, 0, 0, 0, 1e5, 0, 0, 0, 0])
    doc["models"][SINGULAR_KEY] = singular
    small_bundle_path.write_text(json.dumps(doc))
    return small_bundle_path


def test_list_profiles_refuses_a_kernel_that_does_not_factor(singular_bundle_path, capsys):
    assert run_cli(["list-profiles", "--models", str(singular_bundle_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"model {SINGULAR_KEY}: kernel covariance is not positive definite" in captured.err


def test_trace_run_refuses_a_kernel_that_does_not_factor_before_any_command(
    singular_bundle_path, tmp_path, capsys, monkeypatch
):
    monkeypatch.setattr("os.geteuid", lambda: 0)
    executed = []

    def runner(command):
        executed.append(command)
        return 0, ""

    monkeypatch.setattr("errant.backends._shell_runner", runner)
    scenario = tmp_path / "route.scenario"
    scenario.write_text(f"1,{KEY_TEXT},fixed\n1,{SINGULAR_KEY},fixed\n")
    argv = ["trace-run", "--models", str(singular_bundle_path), "--scenario", str(scenario)]
    assert run_cli(argv + ["--iface", "eth0", "--seed", "1"]) == 2
    assert executed == []
    assert SINGULAR_KEY in capsys.readouterr().err


def test_run_dry_run_fixed(small_bundle_path, capsys):
    code = run_cli(
        [
            "run",
            "--models",
            str(small_bundle_path),
            "--profile",
            "specific/norway/telia/4G/good",
            "--duration",
            "10",
            "--seed",
            "3",
        ]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert stdout.count(",apply,") == 1
    assert stdout.count(",clear,") == 1
    assert "# seed=3" in stdout
    assert "# $ ip link set dev ifb0 up" in stdout


def test_run_periodic_twenty_applies(small_bundle_path, capsys):
    code = run_cli(
        [
            "run",
            "--models",
            str(small_bundle_path),
            "--profile",
            "specific/norway/telia/4G/good",
            "--duration",
            "200",
            "--period",
            "10",
            "--seed",
            "4",
        ]
    )
    assert code == 0
    assert capsys.readouterr().out.count(",apply,") == 20


def test_run_with_simple_flag_renders_gaussian(small_bundle_path, capsys):
    code = run_cli(
        [
            "run",
            "--models",
            str(small_bundle_path),
            "--profile",
            "specific/norway/telia/4G/good",
            "--duration",
            "10",
            "--simple",
            "--seed",
            "5",
        ]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "distribution normal" in stdout
    assert "# mode=simple" in stdout


def test_run_preset(capsys):
    code = run_cli(["run", "--preset", "chrome:3G", "--duration", "5", "--seed", "1"])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "rate 250kbit" in stdout
    assert "rate 750kbit" in stdout
    assert "# preset=chrome:3G" in stdout


def test_run_unknown_preset(capsys):
    code = run_cli(["run", "--preset", "chrome:5G", "--duration", "5"])
    assert code == 2
    assert "available" in capsys.readouterr().err


def test_run_flag_conflicts(tmp_path, capsys):
    # every conflict is a parser error: the usage line, then the reason, before --models is read
    models = ["--models", str(tmp_path / "missing")]
    preset = ["--preset", "chrome:3G"]
    simple = [*models, "--profile", KEY_TEXT, "--simple"]
    for flags, reason in [
        ([*preset, *models], "--preset replaces --models/--profile"),
        ([*preset, "--period", "2"], "--preset replaces --models/--profile"),
        ([*preset, "--simple"], "--preset replaces --models/--profile"),
        (models, "either --preset or both --models and --profile"),
        ([], "either --preset or both --models and --profile"),
        ([*simple, "--period", "2"], "argument --period: not allowed with argument --simple"),
        # a zero period is still a period: it conflicts rather than being ignored
        ([*simple, "--period", "0"], "argument --period: not allowed with argument --simple"),
        ([*preset, "--period", "0"], "--preset replaces --models/--profile"),
    ]:
        assert run_cli(["run", *flags, "--duration", "5"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: errant run"), flags
        assert f"errant run: error: {reason}" in err, flags


@pytest.mark.parametrize("name", ["SIGINT", "SIGTERM", "SIGHUP"])
def test_termination_signal_clears_backend(small_bundle_path, monkeypatch, name):
    signum = getattr(signal, name, None)
    if signum is None:
        pytest.skip(f"{name} does not exist on this platform")

    class SignalledBackend(DryRunBackend):
        applies = clears = 0

        def apply(self, params):
            super().apply(params)
            self.applies += 1
            if self.applies == 2:
                os.kill(os.getpid(), signum)

        def clear(self):
            super().clear()
            self.clears += 1

    backend = SignalledBackend()
    monkeypatch.setattr(cli, "_make_backend", lambda args: (backend, VirtualClock(), "test"))
    before = signal.getsignal(signum)
    argv = ["run", "--models", str(small_bundle_path), "--profile", KEY_TEXT]
    try:
        code = run_cli(argv + ["--duration", "10", "--period", "1", "--seed", "1"])
    except KeyboardInterrupt:  # left to run, it would end the whole test session
        pytest.fail(f"{name} ended the run with a KeyboardInterrupt")
    assert code == 128 + signum
    assert (backend.applies, backend.clears) == (2, 1)
    assert backend.configured is None
    assert signal.getsignal(signum) is before


@pytest.mark.parametrize("name", ["SIGINT", "SIGHUP"])
def test_signal_started_ignored_stays_ignored(small_bundle_path, monkeypatch, name):
    # a shell without job control starts `cmd &` ignoring SIGINT; nohup ignores SIGHUP
    signum = getattr(signal, name, None)
    if signum is None:
        pytest.skip(f"{name} does not exist on this platform")
    seen = []

    class SignalledBackend(DryRunBackend):
        def apply(self, params):
            super().apply(params)
            seen.append(signal.getsignal(signum))
            os.kill(os.getpid(), signum)

    backend = SignalledBackend()
    monkeypatch.setattr(cli, "_make_backend", lambda args: (backend, VirtualClock(), "test"))
    previous = signal.signal(signum, signal.SIG_IGN)
    try:
        argv = ["run", "--models", str(small_bundle_path), "--profile", KEY_TEXT]
        code = run_cli(argv + ["--duration", "10", "--period", "1", "--seed", "1"])
        after = signal.getsignal(signum)
    finally:
        signal.signal(signum, previous)
    assert code == 0
    assert seen == [signal.SIG_IGN] * 10
    assert after is signal.SIG_IGN
    assert backend.configured is None


def test_run_missing_profile(small_bundle_path, capsys):
    code = run_cli(
        [
            "run",
            "--models",
            str(small_bundle_path),
            "--profile",
            "universal/any/any/3G/bad",
            "--duration",
            "5",
        ]
    )
    assert code == 2
    assert "available" in capsys.readouterr().err


def test_run_real_iface_needs_root(small_bundle_path, capsys, monkeypatch):
    monkeypatch.setattr("os.geteuid", lambda: 1000)
    code = run_cli(
        [
            "run",
            "--models",
            str(small_bundle_path),
            "--profile",
            "specific/norway/telia/4G/good",
            "--duration",
            "5",
            "--iface",
            "eth0",
        ]
    )
    assert code == 3
    assert "root" in capsys.readouterr().err


def test_run_without_ip_or_tc_is_backend_failure(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PATH", str(tmp_path))  # an empty directory: no ip or tc can run
    monkeypatch.setattr("os.geteuid", lambda: 0)
    code = run_cli(["run", "--iface", "eth0", "--preset", "chrome:3G", "--duration", "1"])
    assert code == 3
    assert "status 127: ip link set dev" in capsys.readouterr().err


def test_run_empty_iface_refused(small_bundle_path, capsys, monkeypatch):
    monkeypatch.setattr("os.geteuid", lambda: 0)
    executed = []
    monkeypatch.setattr("errant.backends._shell_runner", lambda command: executed.append(command))
    code = run_cli(["run", "--preset", "chrome:3G", "--duration", "2", "--iface", ""])
    assert code == 2
    assert capsys.readouterr().out == ""
    assert executed == []


@pytest.mark.parametrize(
    "flags",
    [
        ["--preset", "chrome:3G", "--duration", "nan"],
        ["--preset", "chrome:3G", "--duration", "inf"],
        ["--profile", KEY_TEXT, "--duration", "nan"],
        ["--profile", KEY_TEXT, "--duration", "inf"],
        ["--profile", KEY_TEXT, "--duration", "10", "--period", "nan"],
    ],
)
def test_run_refuses_nonfinite_timing(small_bundle_path, capsys, flags):
    if "--profile" in flags:
        flags = ["--models", str(small_bundle_path), *flags]
    assert run_cli(["run", *flags, "--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert ",apply," not in captured.out
    assert "must be" in captured.err


def test_run_empty_ifb_refused_before_any_command(capsys, monkeypatch):
    monkeypatch.setenv("ERRANT_IFB", "")
    monkeypatch.setattr("os.geteuid", lambda: 0)
    executed = []

    def runner(command):
        executed.append(command)
        return 0, ""

    monkeypatch.setattr("errant.backends._shell_runner", runner)
    code = run_cli(["run", "--preset", "chrome:3G", "--duration", "2", "--iface", "eth0"])
    assert code == 2
    assert capsys.readouterr().out == ""
    assert executed == []


def test_run_entropy_seed_printed(small_bundle_path, capsys):
    code = run_cli(
        [
            "run",
            "--models",
            str(small_bundle_path),
            "--profile",
            "specific/norway/telia/4G/good",
            "--duration",
            "5",
        ]
    )
    assert code == 0
    assert "# seed=" in capsys.readouterr().out


def test_trace_run(small_bundle_path, tmp_path, capsys):
    scenario = tmp_path / "route.scenario"
    scenario.write_text(
        "# commute\n5,specific/norway/telia/4G/good,fixed\n"
        "10,specific/norway/telia/4G/good,periodic:5\n"
    )
    code = run_cli(
        [
            "trace-run",
            "--models",
            str(small_bundle_path),
            "--scenario",
            str(scenario),
            "--seed",
            "6",
        ]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert stdout.count(",apply,") == 3
    assert stdout.count(",clear,") == 2


def test_trace_run_malformed_line(small_bundle_path, tmp_path, capsys):
    scenario = tmp_path / "bad.scenario"
    scenario.write_text("5,specific/norway/telia/4G/good,fixed\noops\n")
    code = run_cli(
        ["trace-run", "--models", str(small_bundle_path), "--scenario", str(scenario)]
    )
    assert code == 2
    assert "line 2" in capsys.readouterr().err


def test_trace_run_scenario_with_utf8_bom(small_bundle_path, tmp_path, capsys):
    text = "10,specific/norway/telia/4G/good,periodic:5\n"
    outputs = []
    for prefix in ("", "\ufeff"):
        scenario = tmp_path / "route.scenario"
        scenario.write_text(prefix + text, encoding="utf-8")
        argv = ["trace-run", "--models", str(small_bundle_path), "--scenario", str(scenario)]
        assert run_cli(argv + ["--seed", "6"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert outputs[0].count(",apply,") == 2


def test_validate_row_count_and_header(small_bundle_path, capsys):
    code = run_cli(
        [
            "validate",
            "--models",
            str(small_bundle_path),
            "--profile",
            "specific/norway/telia/4G/good",
            "--downloads",
            "10",
            "--seed",
            "7",
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "# seed=7 version=0.1.0"
    assert lines[1] == "download,download_kbps,upload_kbps,latency_ms,duration_s,avg_speed_kbps"
    data_lines = [line for line in lines if not line.startswith("#")]
    assert len(data_lines) == 11  # header + 10 downloads
    assert any(line.startswith("# metric,observed,emulated") for line in lines)


def test_validate_deterministic(small_bundle_path, tmp_path):
    outputs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        code = run_cli(
            [
                "validate",
                "--models",
                str(small_bundle_path),
                "--profile",
                "specific/norway/telia/4G/good",
                "--downloads",
                "10",
                "--seed",
                "7",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_validate_simple_constant_bandwidth(small_bundle_path, capsys):
    code = run_cli(
        [
            "validate",
            "--models",
            str(small_bundle_path),
            "--profile",
            "specific/norway/telia/4G/good",
            "--downloads",
            "8",
            "--simple",
            "--seed",
            "9",
        ]
    )
    assert code == 0
    lines = [
        line
        for line in capsys.readouterr().out.splitlines()
        if line and not line.startswith("#") and line[0].isdigit()
    ]
    downloads = {line.split(",")[1] for line in lines}
    speeds = {line.split(",")[5] for line in lines}
    assert len(downloads) == 1  # bandwidth identical across rows
    assert len(speeds) == 1


def _data_rows(stdout, header):
    lines = stdout.splitlines()
    start = lines.index(header) + 1
    rows = []
    for line in lines[start:]:
        if line.startswith("#"):
            break
        rows.append(line.split(","))
    return rows


def test_run_periodic_draws_one_point_per_apply(small_bundle_path, capsys):
    # a 600-apply segment takes the first 600 rows of three consecutive
    # 256-point blocks, in order, from the run's seed
    code = run_cli(
        [
            "run",
            "--models",
            str(small_bundle_path),
            "--profile",
            KEY_TEXT,
            "--duration",
            "1800",
            "--period",
            "3",
            "--seed",
            "21",
        ]
    )
    assert code == 0
    rows = _data_rows(
        capsys.readouterr().out, "time_s,action,download_kbps,upload_kbps,latency_ms"
    )
    applies = [row for row in rows if row[1] == "apply"]
    assert len(applies) == 600
    model = next(iter(load(small_bundle_path).models.values()))
    rng = np.random.default_rng(21)
    expected = np.concatenate([sample_points(model, rng, 256) for _ in range(3)])[:600]
    assert [row[2:] for row in applies] == [list(map(repr, point)) for point in expected.tolist()]


def test_run_periodic_dry_run_matches_golden(small_bundle_path, capsys):
    argv = ["run", "--models", str(small_bundle_path), "--profile", KEY_TEXT]
    assert run_cli(argv + ["--duration", "30", "--period", "3", "--seed", "21"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "run_periodic_dry_run.txt").read_text()


VALIDATE_HEADER = "download,download_kbps,upload_kbps,latency_ms,duration_s,avg_speed_kbps"


def _fluid_rows(points):
    size_kbit = 10_000_000 * 8.0 / 1000.0  # the default 10MB object
    duration = 2 * (points[:, 2] / 1000.0) + size_kbit / points[:, 0]
    speed = size_kbit / duration
    return [
        [str(number)] + [repr(float(value)) for value in (*point, d, s)]
        for number, (point, d, s) in enumerate(zip(points, duration, speed), start=1)
    ]


def test_validate_rows_follow_draws_through_fluid_formula(small_bundle_path, capsys):
    code = run_cli(
        [
            "validate",
            "--models",
            str(small_bundle_path),
            "--profile",
            KEY_TEXT,
            "--downloads",
            "50",
            "--seed",
            "23",
        ]
    )
    assert code == 0
    model = next(iter(load(small_bundle_path).models.values()))
    expected = _fluid_rows(sample_points(model, np.random.default_rng(23), 50))
    assert _data_rows(capsys.readouterr().out, VALIDATE_HEADER) == expected


def test_validate_simple_rows_are_the_means(small_bundle_path, capsys):
    code = run_cli(
        [
            "validate",
            "--models",
            str(small_bundle_path),
            "--profile",
            KEY_TEXT,
            "--downloads",
            "5",
            "--simple",
            "--seed",
            "24",
        ]
    )
    assert code == 0
    model = next(iter(load(small_bundle_path).models.values()))
    means = np.tile(model.points.mean(axis=0), (5, 1))
    assert _data_rows(capsys.readouterr().out, VALIDATE_HEADER) == _fluid_rows(means)


def test_subsample_deterministic(tmp_path, small_bundle_path):
    outputs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        code = run_cli(
            [
                "subsample",
                "--models",
                str(small_bundle_path),
                "--profile",
                "specific/norway/telia/4G/good",
                "--sizes",
                "10,50",
                "--reps",
                "5",
                "--cap",
                "300",
                "--seed",
                "11",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    text = outputs[0].decode()
    assert text.startswith("# seed=11 version=0.1.0\ndimension,n,repetition,D\n")


def test_subsample_sizes_checked_before_input(tmp_path, capsys):
    argv = ["subsample", "--models", str(tmp_path / "missing.json"), "--profile", KEY_TEXT]
    assert run_cli(argv + ["--sizes", "10,x"]) == 1
    assert "--sizes" in capsys.readouterr().err
    assert run_cli(argv + ["--sizes", "10,50,10"]) == 1
    assert "size 10 is repeated" in capsys.readouterr().err


def test_subsample_seeded_matches_golden(small_bundle_path, capsys):
    argv = ["subsample", "--models", str(small_bundle_path), "--profile", KEY_TEXT]
    argv += ["--seed", "3", "--cap", "400", "--sizes", "1,10,100,400", "--reps", "5"]
    assert run_cli(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / "subsample_seeded.txt").read_text()


def test_subsample_requires_one_source(tmp_path, capsys):
    # build-models is the one reader of speed-test CSVs; subsample reads a model file
    csv_source = ["--input", str(tmp_path / "x.csv"), "--profile", KEY_TEXT]
    assert run_cli(["subsample", "--profile", KEY_TEXT]) == 1
    assert "required: --models" in capsys.readouterr().err
    assert run_cli(["subsample", *csv_source]) == 1
    assert "required: --models" in capsys.readouterr().err
    assert run_cli(["subsample", "--models", str(tmp_path / "m.json"), *csv_source]) == 1
    assert "unrecognized arguments: --input" in capsys.readouterr().err


def test_usage_errors_exit_one():
    assert run_cli([]) == 1
    assert run_cli(["run"]) == 1  # missing --duration
    assert run_cli(["no-such-command"]) == 1


def test_version_exits_zero(capsys):
    assert run_cli(["--version"]) == 0
    assert "errant" in capsys.readouterr().out


@pytest.mark.parametrize(
    "command", ["build-models", "list-profiles", "run", "trace-run", "validate", "subsample"]
)
def test_help_renders_and_exits_zero(capsys, command):
    assert run_cli([command, "--help"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: errant {command} ")
    # build-models alone reads a speed-test CSV
    assert ("--input" in out) == (command == "build-models")


def test_main_on_worker_thread_runs_and_keeps_signal_handlers(capsys):
    # only the main thread may set a signal handler; a run on another thread
    # leaves the process's handlers as they are
    held = (signal.SIGINT, signal.SIGTERM, signal.SIGHUP)
    before = [signal.getsignal(signum) for signum in held]
    codes = []
    argv = ["run", "--preset", "chrome:3G", "--duration", "2"]
    worker = threading.Thread(target=lambda: codes.append(main(argv)))
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    assert codes == [0]
    assert "# preset=chrome:3G" in capsys.readouterr().out
    assert [signal.getsignal(signum) for signum in held] == before


# The exit-code contract for data errors: each case is bad input, so it exits 2
# with a message naming the problem, never with a traceback.
RUN_MODEL = ["run", "--models", "{models}", "--duration", "5", "--profile"]
RUN_PRESET = ["run", "--preset", "chrome:3G", "--duration"]
SUBSAMPLE = ["subsample", "--models", "{models}", "--profile", KEY_TEXT]


@pytest.mark.parametrize(
    "argv,ifb,message",
    [
        pytest.param(RUN_MODEL + ["nonsense"], None, "bad profile key", id="bad-key"),
        pytest.param(RUN_MODEL + ["specific//x/4G/good"], None, "country", id="empty-country"),
        pytest.param(RUN_MODEL + ["universal/any/any/3G/bad"], None, "available", id="no-profile"),
        pytest.param(
            RUN_MODEL + ["mobile/norway/telia/4G/good"], None, "bad profile kind 'mobile'",
            id="bad-kind",
        ),
        pytest.param(
            RUN_MODEL + ["universal/any/any/5G/good"], None, "unknown rat '5G'", id="bad-rat"
        ),
        pytest.param(
            RUN_MODEL + ["universal/any/any/4G/great"], None, "unknown quality 'great'",
            id="bad-quality",
        ),
        pytest.param(RUN_PRESET + ["nan"], None, "duration must be", id="nan-duration"),
        pytest.param(RUN_PRESET + ["2", "--iface", ""], None, "interface", id="empty-iface"),
        pytest.param(RUN_PRESET + ["2", "--iface", "eth0"], "", "interface", id="empty-ifb"),
        pytest.param(
            RUN_PRESET + ["1", "--iface", "eth0 ingress"], None, "whitespace: 'eth0 ingress'",
            id="space-in-iface",
        ),
        pytest.param(RUN_PRESET + ["1", "--iface", "eth0"], "ifb 0", "whitespace", id="space-in-ifb"),
        # the ingress redirect would send eth0's traffic straight back out of it
        pytest.param(RUN_PRESET + ["1"], "eth0", "must differ", id="dry-run-ifb-is-egress"),
        pytest.param(RUN_PRESET + ["1", "--iface", "eth0"], "eth0", "must differ", id="ifb-is-egress"),
        pytest.param(
            SUBSAMPLE + ["--sizes", "10", "--cap", "500"], None, "cap=500", id="cap-above-profile"
        ),
        pytest.param(
            SUBSAMPLE + ["--sizes", "500", "--cap", "100"], None, "exceeds cap", id="size-above-cap"
        ),
        pytest.param(["list-profiles", "--models", "{missing}"], None, "cannot read", id="no-model"),
        pytest.param(["list-profiles", "--models", "{garbage}"], None, "JSON", id="corrupt-model"),
        pytest.param(["list-profiles", "--models", "{latin1}"], None, "utf-8", id="model-not-utf8"),
        pytest.param(
            ["list-profiles", "--models", "{array}"], None, "array must hold a JSON object",
            id="model-not-object",
        ),
        pytest.param(
            ["list-profiles", "--models", "{nomodels}"], None, "nomodels has no models object",
            id="model-file-without-models",
        ),
        # a canonical file whose selected model or created value is bad is read in full
        pytest.param(
            ["validate", "--models", "{badjson}", "--profile", KEY_TEXT], None,
            "badjson is not valid JSON", id="selected-model-not-json",
        ),
        pytest.param(
            ["validate", "--models", "{numcreated}", "--profile", KEY_TEXT], None,
            "numcreated has a non-text created field", id="created-not-text",
        ),
        pytest.param(
            ["build-models", "--input", "{latin1}", "--output", "{missing}"],
            None,
            "utf-8",
            id="csv-not-utf8",
        ),
        pytest.param(
            ["trace-run", "--models", "{models}", "--scenario", "{latin1}"],
            None,
            "utf-8",
            id="scenario-not-utf8",
        ),
    ],
)
def test_data_errors_exit_two(small_bundle_path, tmp_path, capsys, monkeypatch, argv, ifb, message):
    if ifb is not None:
        monkeypatch.setenv("ERRANT_IFB", ifb)
    monkeypatch.setattr("os.geteuid", lambda: 0)
    executed = []
    monkeypatch.setattr("errant.backends._shell_runner", lambda command: executed.append(command))
    names = ("missing", "garbage", "latin1", "array", "nomodels", "badjson", "numcreated")
    paths = {name: tmp_path / name for name in names}
    paths["garbage"].write_text("{")
    paths["latin1"].write_bytes(f"{CSV_HEADER}\n".encode() + "café\n".encode("latin-1"))
    paths["array"].write_text("[]")
    paths["nomodels"].write_text('{"format_version": 1}')
    model_text = small_bundle_path.read_text()
    paths["badjson"].write_text(model_text.replace("        [", "        [oops, ", 1))
    paths["numcreated"].write_text(re.sub(r'"created": "[^"]*"', '"created": 5', model_text))
    paths["models"] = small_bundle_path
    assert run_cli([arg.format(**paths) for arg in argv]) == 2
    assert message in capsys.readouterr().err
    assert executed == []


@pytest.mark.parametrize(
    "target,argv",
    [
        ("errant.cli.fit", ["build-models", "--input", "{csv}", "--output", "{out}"]),
        ("errant.backends._kbit", ["run", "--preset", "chrome:3G", "--duration", "5"]),
    ],
)
def test_bug_is_not_reported_as_data_error(tmp_path, two_profile_csv, monkeypatch, target, argv):
    # a ValueError from inside the program is a bug: it ends with a traceback, not exit 2
    def broken(*args):
        raise ValueError("injected bug")

    monkeypatch.setattr(target, broken)
    paths = {"csv": two_profile_csv, "out": tmp_path / "m.json"}
    with pytest.raises(ValueError, match="injected bug"):
        main([arg.format(**paths) for arg in argv])


@pytest.mark.parametrize(
    "argv,expected",
    [
        (["validate", "--models", "{missing}", "--profile", KEY_TEXT, "--object-size", "10XB"],
         "--object-size"),
        (["build-models", "--input", "{missing}", "--output", "{missing}", "--column", "timestamp"],
         "--column"),
        (["run", "--preset", "chrome:3G", "--duration", "5", "--seed", "-1"], "--seed"),
        (["build-models", "--input", "{missing}", "--output", "{missing}",
          "--column", "downlaod_kbps=dl"],
         "--column: unknown column 'downlaod_kbps'; expected one of timestamp, country, operator, "
         "rat, rssi, download_kbps, upload_kbps, latency_ms"),
        (["subsample", "--models", "{missing}", "--profile", KEY_TEXT, "--sizes", ","],
         "--sizes: need at least one size"),
        (["validate", "--models", "{missing}", "--profile", KEY_TEXT, "--object-size", "0"],
         "object size must be positive and finite"),
        (["run", "--preset", "chrome:3G", "--duration", "5", "--backend", "simulated"],
         "--backend"),
        (["trace-run", "--models", "{missing}", "--scenario", "{missing}", "--backend", "dry-run"],
         "--backend"),
        (["build-models", "--input", "{missing}", "--output", "{missing}",
          "--column", "download_kbps=a", "--column", "download_kbps=b"],
         "--column: column download_kbps is mapped twice"),
        # a float cannot hold it, so the fluid model would overflow
        (["validate", "--models", "{missing}", "--profile", KEY_TEXT, "--setup-rtts", "1" + "0" * 400],
         "--setup-rtts: too large for a float"),
        # counts whose arrays numpy cannot shape
        (["validate", "--models", "{missing}", "--profile", KEY_TEXT, "--downloads", "1" + "0" * 20],
         f"--downloads: must be at most {sys.maxsize // 24}, got 1{'0' * 20}"),
        (["subsample", "--models", "{missing}", "--profile", KEY_TEXT, "--reps", "1" + "0" * 20],
         "--reps: must be at most"),
        (["subsample", "--models", "{missing}", "--profile", KEY_TEXT, "--reps", str(sys.maxsize)],
         "--reps: must be at most"),
    ],
)
def test_flag_values_checked_before_input(tmp_path, capsys, argv, expected):
    missing = tmp_path / "missing"
    assert run_cli([arg.format(missing=missing) for arg in argv]) == 1
    assert expected in capsys.readouterr().err


def _close_after_first_line(argv):
    """Run errant, read its first stdout line and close the pipe: (line, exit code, stderr)."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parent.parent))
    with subprocess.Popen([sys.executable, "-m", "errant.cli", *argv], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as child:
        line = child.stdout.readline()
        child.stdout.close()  # the reader goes away, as `| head -1` does
        stderr = child.stderr.read()
        return line, child.wait(timeout=60), stderr


def test_reader_closing_stdout_ends_quietly(small_bundle_path):
    # 20k lines are far more than a pipe holds, so the write meets the closed end
    argv = ["validate", "--models", str(small_bundle_path), "--profile", KEY_TEXT,
            "--downloads", "20000", "--seed", "1"]
    line, code, stderr = _close_after_first_line(argv)
    assert line.startswith(b"# seed=1 ")
    assert (code, stderr) == (0, b"")


def test_run_reader_closing_stdout_ends_quietly(small_bundle_path):
    # a dry run of 20k applies prints about 10 MB: its report and command log meet the closed end
    argv = ["run", "--models", str(small_bundle_path), "--profile", KEY_TEXT,
            "--duration", "20000", "--period", "1", "--seed", "1"]
    line, code, stderr = _close_after_first_line(argv)
    assert line.startswith(b"# version=")
    assert (code, stderr) == (0, b"")


@pytest.mark.parametrize("command", [["run", "--duration", "5"], ["validate"], ["subsample"]])
def test_profile_key_checked_before_model_file(tmp_path, capsys, command):
    argv = command + ["--models", str(tmp_path / "missing"), "--profile", "nonsense"]
    assert run_cli(argv) == 2
    assert "bad profile key 'nonsense'" in capsys.readouterr().err


def test_validate_refuses_model_with_nonpositive_point(small_bundle_path, tmp_path, capsys):
    text = small_bundle_path.read_text()
    first_point = text.index("        [") + len("        [")
    path = tmp_path / "negative.json"
    path.write_text(text[:first_point] + "-" + text[first_point:])
    argv = ["validate", "--models", str(path), "--profile", KEY_TEXT, "--downloads", "5"]
    assert run_cli(argv) == 2
    assert f"model {KEY_TEXT}: stored points must be positive" in capsys.readouterr().err


def test_run_refuses_model_with_infinite_bandwidth_factor(small_bundle_path, tmp_path, capsys):
    text = small_bundle_path.read_text()
    path = tmp_path / "infinite.json"
    path.write_text(re.sub(r'"bandwidth_factor": [^,]+', '"bandwidth_factor": Infinity', text))
    argv = ["run", "--models", str(path), "--profile", KEY_TEXT, "--duration", "5", "--seed", "1"]
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert f"model {KEY_TEXT}: bandwidth_factor must be positive" in err


# Each single-profile command, with the arguments that follow --models.
SINGLE_PROFILE = [
    ["run", "--duration", "5", "--period", "1", "--seed", "4", "--profile", KEY_TEXT],
    ["validate", "--downloads", "5", "--seed", "4", "--profile", KEY_TEXT],
    ["subsample", "--sizes", "10", "--reps", "2", "--cap", "300", "--seed", "4",
     "--profile", KEY_TEXT],
]
OTHER_KEY = "universal/any/any/3G/bad"


@pytest.mark.parametrize(
    "old,new",
    [
        ("        [", "        [-"),  # a nonpositive point
        ("        [", "        [oops, "),  # text that is not JSON
        (f'"{OTHER_KEY}"', '"specific/Norway/telia/4G/good"'),  # the selected profile again
    ],
    ids=["nonpositive-point", "not-json", "same-profile-spelled-differently"],
)
def test_single_profile_commands_ignore_other_models(small_bundle_path, tmp_path, capsys, old, new):
    bundle = load(small_bundle_path)
    bundle.models[ProfileKey.from_string(OTHER_KEY)] = fit(make_lognormal(150, seed=2))
    clean = tmp_path / "clean.json"
    save(bundle, clean)
    text = clean.read_text()
    other = text.index(f'    "{OTHER_KEY}"')  # sorts after the selected model
    corrupt = tmp_path / "corrupt.json"
    corrupt.write_text(text[:other] + text[other:].replace(old, new, 1))
    for argv in SINGLE_PROFILE:
        outputs = []
        for path in (clean, corrupt):
            assert run_cli([argv[0], "--models", str(path), *argv[1:]]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
    assert run_cli(["list-profiles", "--models", str(corrupt)]) == 2


def test_single_profile_commands_skip_whole_bundle_load(small_bundle_path, monkeypatch):
    def whole_bundle_load(path):
        raise AssertionError("a canonical file was read in full")

    for name in ("errant.model_store.load", "errant.cli.load"):
        monkeypatch.setattr(name, whole_bundle_load)
    for argv in SINGLE_PROFILE:
        assert run_cli([argv[0], "--models", str(small_bundle_path), *argv[1:]]) == 0


@pytest.mark.parametrize("source", ["--models"])
def test_subsample_empty_source_path_is_data_error(capsys, source):
    assert run_cli(["subsample", source, "", "--profile", KEY_TEXT]) == 2
    assert "error:" in capsys.readouterr().err
