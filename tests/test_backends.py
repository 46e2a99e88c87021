"""Command rendering, backend state machines, and the fluid-model link."""

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import errant
from errant import (
    BackendError,
    DryRunBackend,
    EmulationParams,
    FormatError,
    Segment,
    SimulatedLink,
    TcBackend,
    VirtualClock,
    default_ifb,
    render_clear_commands,
    render_commands,
    run,
    simulate_download,
)
from errant.backends import _shell_runner
from errant.cli import _exit_on_signal

GOLDEN = Path(__file__).parent / "golden"
BENCH = Path(__file__).resolve().parent.parent / "bench"

PARAMS_BASIC = EmulationParams(20000.0, 5000.0, 40.0)

CLEAR_LINES = [
    "tc qdisc del dev eth0 root",
    "tc qdisc del dev eth0 ingress",
    "tc qdisc del dev ifb0 root",
]
RESAMPLE_REMOVALS = ["tc qdisc del dev eth0 root", "tc qdisc del dev ifb0 root"]
ABSENT = (2, "RTNETLINK answers: No such file or directory")  # what bench/faketc.py answers
DENIED = (2, "RTNETLINK answers: Operation not permitted")


@pytest.fixture
def make_fake_tc(monkeypatch):
    """New runners modelling tc on eth0 and ifb0, refusing what the kernel would."""
    monkeypatch.syspath_prepend(str(BENCH))
    from faketc import FakeTc

    return lambda: FakeTc(0.0, "eth0", "ifb0")


def test_render_basic_matches_golden():
    commands = render_commands(PARAMS_BASIC, "eth0", "ifb0")
    assert "\n".join(commands) + "\n" == (GOLDEN / "apply_basic.txt").read_text()


def test_render_gaussian_matches_golden():
    commands = render_commands(
        EmulationParams(15000.0, 3000.0, 40.0, latency_std_ms=10.0), "eth0", "ifb0"
    )
    assert "\n".join(commands) + "\n" == (GOLDEN / "apply_gaussian.txt").read_text()


def test_render_fractional_delay_matches_golden():
    commands = render_commands(EmulationParams(51200.0, 10240.0, 65.0), "wlan0", "ifb1")
    assert "\n".join(commands) + "\n" == (GOLDEN / "apply_fractional.txt").read_text()


def test_render_shape_and_key_lines():
    commands = render_commands(PARAMS_BASIC, "eth0", "ifb0")
    assert len(commands) == 9
    assert commands[4] == "tc class add dev eth0 parent 1: classid 1:1 htb rate 5000kbit"
    assert commands[5].endswith("netem delay 20ms")
    assert commands[8].endswith("netem delay 20ms")


def test_render_rounds_rates_and_trims_delay():
    commands = render_commands(EmulationParams(0.4, 1500.6, 12.3456), "eth0", "ifb0")
    assert "rate 1501kbit" in commands[4]
    assert "rate 1kbit" in commands[7]  # rates never render as 0
    assert commands[5].endswith("delay 6.173ms")


def test_render_clear_commands():
    assert render_clear_commands("eth0", "ifb0") == CLEAR_LINES


def test_default_ifb_env_override(monkeypatch):
    assert default_ifb() == "ifb0"
    monkeypatch.setenv("ERRANT_IFB", "ifb7")
    assert default_ifb() == "ifb7"
    backend = DryRunBackend("eth0")
    assert backend.ifb_iface == "ifb7"
    backend.apply(PARAMS_BASIC)
    assert backend.log[0] == "ip link set dev ifb7 up"


def test_dry_run_replace_then_clear_leaves_no_residual():
    backend = DryRunBackend("eth0", "ifb0")
    backend.apply(PARAMS_BASIC)
    backend.apply(EmulationParams(512.0, 256.0, 200.0))
    backend.clear()
    log = backend.log
    # first apply installs directly; the second rebuilds each direction's root
    # in turn, keeping the link, ingress hook and redirect
    resample = render_commands(EmulationParams(512.0, 256.0, 200.0), "eth0", "ifb0")
    assert log[:9] == render_commands(PARAMS_BASIC, "eth0", "ifb0")
    assert log[9:13] == ["tc qdisc del dev eth0 root"] + resample[3:6]
    assert log[13:17] == ["tc qdisc del dev ifb0 root"] + resample[6:9]
    assert log[17:] == CLEAR_LINES
    assert backend.configured is None


def test_dry_run_clear_idempotent():
    backend = DryRunBackend("eth0", "ifb0")
    backend.clear()
    backend.clear()
    assert backend.log == CLEAR_LINES * 2
    assert backend.configured is None


def test_dry_run_gaussian_latency():
    backend = DryRunBackend("eth0", "ifb0")
    backend.apply(EmulationParams(15000.0, 3000.0, 40.0, latency_std_ms=10.0))
    assert backend.log[5].endswith("netem delay 20ms 5ms distribution normal")
    assert backend.configured.latency_ms == 40.0


def test_tc_backend_runs_commands_in_order():
    executed = []

    def runner(command):
        executed.append(command)
        return 0, ""

    backend = TcBackend("eth0", "ifb0", runner=runner)
    backend.apply(PARAMS_BASIC)
    assert executed == render_commands(PARAMS_BASIC, "eth0", "ifb0")
    backend.apply(EmulationParams(512.0, 256.0, 200.0))
    resample = render_commands(EmulationParams(512.0, 256.0, 200.0), "eth0", "ifb0")
    assert executed[9:] == (
        ["tc qdisc del dev eth0 root"] + resample[3:6] + ["tc qdisc del dev ifb0 root"] + resample[6:]
    )
    backend.clear()
    assert executed[17:] == CLEAR_LINES


def test_tc_backend_raises_on_failed_install():
    def runner(command):
        if "htb rate" in command:
            return 2, "RTNETLINK answers: operation not permitted"
        return 0, ""

    backend = TcBackend("eth0", "ifb0", runner=runner)
    with pytest.raises(BackendError, match="htb rate"):
        backend.apply(PARAMS_BASIC)


def test_tc_backend_tolerates_failing_clear():
    # the fake tc's answer, then the kernel's and iproute2's for an absent rule or device
    for stderr in (
        ABSENT[1],
        "Error: Cannot delete qdisc with handle of zero.",
        "Error: Cannot find specified qdisc on specified device.",
        'Cannot find device "eth0"',
    ):
        backend = TcBackend("eth0", "ifb0", runner=lambda command: (2, stderr))
        backend.clear()  # nothing to remove is benign
        assert backend.configured is None


def test_tc_backend_clear_raises_on_a_failed_removal():
    executed = []

    def runner(command):
        executed.append(command)
        return DENIED if command == CLEAR_LINES[0] else (0, "")

    backend = TcBackend("eth0", "ifb0", runner=runner)
    backend.apply(PARAMS_BASIC)
    with pytest.raises(BackendError, match="status 2: tc qdisc del dev eth0 root"):
        backend.clear()
    assert executed[9:] == CLEAR_LINES  # the later removals still ran
    assert backend.configured is None


def test_failed_cleanup_after_failed_install_raises_the_teardown_error():
    def runner(command):
        if "htb rate" in command or command == CLEAR_LINES[1]:
            return DENIED
        return 0, ""

    backend = TcBackend("eth0", "ifb0", runner=runner)
    with pytest.raises(BackendError, match="tc qdisc del dev eth0 ingress") as caught:
        backend.apply(PARAMS_BASIC)
    assert "htb rate" in str(caught.value.__context__)  # the install error is kept
    assert backend.configured is None


@pytest.mark.parametrize("removal", RESAMPLE_REMOVALS)
def test_tc_backend_resample_tolerates_an_absent_root(removal):
    executed = []

    def runner(command):
        executed.append(command)
        return ABSENT if len(executed) > 9 and command == removal else (0, "")

    backend = TcBackend("eth0", "ifb0", runner=runner)
    backend.apply(PARAMS_BASIC)
    resample = EmulationParams(512.0, 256.0, 200.0)
    backend.apply(resample)
    assert len(executed) == 17  # every line of the resample ran
    assert backend.configured == resample


@pytest.mark.parametrize("removal", RESAMPLE_REMOVALS)
def test_tc_backend_resample_stops_at_an_exception_on_a_removal_line(removal):
    executed = []

    def runner(command):
        executed.append(command)
        if len(executed) > 9 and command == removal:
            raise SystemExit(143)
        return 0, ""

    backend = TcBackend("eth0", "ifb0", runner=runner)
    backend.apply(PARAMS_BASIC)
    with pytest.raises(SystemExit):
        backend.apply(EmulationParams(512.0, 256.0, 200.0))
    assert executed[-1] == removal
    assert executed.count(removal) == 1  # no later line ran, nor a teardown


@pytest.mark.parametrize("interrupted", [0, 1, 2])
def test_tc_backend_clear_runs_every_line_past_a_signal(interrupted):
    executed = []

    def runner(command):
        executed.append(command)
        if len(executed) == 9 + interrupted + 1:  # after the install, clear line k
            raise SystemExit(143)  # what the CLI's SIGTERM handler raises
        return 0, ""

    backend = TcBackend("eth0", "ifb0", runner=runner)
    backend.apply(PARAMS_BASIC)
    with pytest.raises(SystemExit):
        backend.clear()
    assert executed[9:] == CLEAR_LINES
    assert backend.configured is None


def test_tc_backend_clear_on_a_worker_thread_swaps_no_handler():
    # only the main thread may set handlers, so off it the teardown just runs
    executed, handlers, failures = [], [], []

    def runner(command):
        executed.append(command)
        handlers.append(signal.getsignal(signal.SIGTERM))
        return 0, ""

    def clear():
        try:
            TcBackend("eth0", "ifb0", runner=runner).clear()
        except BaseException as exc:
            failures.append(exc)

    before = signal.getsignal(signal.SIGTERM)
    worker = threading.Thread(target=clear)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    assert failures == []
    assert executed == CLEAR_LINES
    assert handlers == [before] * 3
    assert signal.getsignal(signal.SIGTERM) is before


def _send_sigterm(sender):
    if sender == "self":
        os.kill(os.getpid(), signal.SIGTERM)
        return
    # a signal from outside may reach any thread of this process, such as a BLAS worker
    kill = f"import os, signal; os.kill({os.getpid()}, signal.SIGTERM)"
    subprocess.run([sys.executable, "-c", kill], check=True)
    time.sleep(0.2)  # time for the signal to arrive, even on a loaded machine


@pytest.mark.parametrize("sender", ["self", "other-process"])
@pytest.mark.parametrize("interrupted", [0, 1, 2])
def test_sigterm_during_clear_removes_every_rule(make_fake_tc, interrupted, sender):
    fake = make_fake_tc()
    executed = []

    def runner(command):
        executed.append(command)
        if len(executed) == 9 + interrupted + 1:  # after the install, just before clear line k
            _send_sigterm(sender)
        return fake(command)

    previous = signal.signal(signal.SIGTERM, _exit_on_signal)  # as the CLI installs it
    try:
        backend = TcBackend("eth0", "ifb0", runner=runner)
        backend.apply(PARAMS_BASIC)
        with pytest.raises(SystemExit) as caught:
            backend.clear()
    finally:
        signal.signal(signal.SIGTERM, previous)
    assert caught.value.code == 143
    assert not fake.has_rules()
    assert backend.configured is None
    assert signal.getsignal(signal.SIGTERM) is previous


def test_import_leaves_run_ending_signals_to_the_main_thread():
    # as in the CLI, errant is imported before numpy: every thread that numpy's
    # import starts, such as a BLAS worker, blocks the signals a teardown holds
    if not Path("/proc/self/task").is_dir():
        pytest.skip("needs /proc")
    probe = (
        "import os, errant\n"
        "for tid in os.listdir('/proc/self/task'):\n"
        "    status = open(f'/proc/self/task/{tid}/status').read()\n"
        "    print(tid == str(os.getpid()), int(status.split('SigBlk:')[1].split()[0], 16))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(errant.__file__).parent.parent))
    probed = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                            text=True, check=True, timeout=60)
    threads = [line.split() for line in probed.stdout.splitlines()]
    workers = [int(mask) for main, mask in threads if main == "False"]
    if not workers:
        pytest.skip("numpy started no worker thread")
    held = sum(1 << (s - 1) for s in (signal.SIGINT, signal.SIGTERM, signal.SIGHUP))
    assert all(mask & held == held for mask in workers)
    assert [int(mask) & held for main, mask in threads if main == "True"] == [0]  # restored


def _run_sweep(runner):
    # 5 applies and a clear, 2 applies and a clear, 1 apply and a clear: 76 commands
    segments = [
        Segment(duration, period, lambda: PARAMS_BASIC)
        for duration, period in ((10.0, 2.0), (6.0, 3.0), (4.0, 4.0))
    ]
    run(segments, TcBackend("eth0", "ifb0", runner=runner), VirtualClock())


def test_fault_sweep_runs_76_commands(make_fake_tc):
    fake, executed = make_fake_tc(), []
    _run_sweep(lambda command: executed.append(command) or fake(command))
    assert len(executed) == 76
    assert executed[41:44] == executed[61:64] == executed[73:] == CLEAR_LINES
    assert not fake.has_rules()


@pytest.mark.parametrize("mode", ["status", "signal", "status-then-removal"])
def test_fault_sweep_leaves_no_rule_unreported(make_fake_tc, mode):
    # a fault at each command k of the sweep; afterwards no rule is left, or
    # the error raised names a removal that failed. The signal is a real one,
    # not a bare SystemExit, so that a teardown holds it as it would in the CLI.
    expected = SystemExit if mode == "signal" else BackendError
    stray = []
    for k in range(76):
        fake, calls = make_fake_tc(), []
        fail_next_removal = mode == "status-then-removal"

        def runner(command):
            nonlocal fail_next_removal
            calls.append(command)
            if len(calls) == k + 1 and mode == "signal":
                signal.raise_signal(signal.SIGTERM)
            elif len(calls) == k + 1:
                return DENIED
            elif len(calls) > k + 1 and fail_next_removal and command.startswith("tc qdisc del"):
                fail_next_removal = False
                return DENIED
            return fake(command)

        previous = signal.signal(signal.SIGTERM, _exit_on_signal)  # as the CLI installs it
        try:
            _run_sweep(runner)
            raised = None
        except (BackendError, SystemExit) as exc:
            raised = exc
        finally:
            signal.signal(signal.SIGTERM, previous)
        named = isinstance(raised, BackendError) and "tc qdisc del" in str(raised)
        if not isinstance(raised, expected) or fake.has_rules() and not named:
            stray.append((k, calls[k], repr(raised)))
    assert stray == []


def test_simulate_download_closed_form():
    link = SimulatedLink(20000.0, 5000.0, 40.0, setup_rtts=2)
    duration, speed = simulate_download(link, 10_000_000)
    assert duration == pytest.approx(4.08, rel=1e-6)
    assert speed == pytest.approx(19607.843137254902, rel=1e-6)


def test_simulate_download_zero_rtt_hits_line_rate():
    duration, speed = simulate_download(SimulatedLink(8000.0, 1000.0, 0.0), 1_000_000)
    assert speed == 8000.0
    assert duration == pytest.approx(1.0)


def test_simulate_download_properties():
    rng = np.random.default_rng(5)
    for _ in range(50):
        link = SimulatedLink(
            float(rng.uniform(100, 100000)),
            float(rng.uniform(100, 10000)),
            float(rng.uniform(1, 500)),
        )
        small = simulate_download(link, 10_000)[0]
        large = simulate_download(link, 10_000_000)[0]
        assert large > small  # duration grows with size
        speed = simulate_download(link, 1_000_000)[1]
        assert 0 < speed < link.download_rate_kbps  # setup rtts always cost something


def test_simulate_download_arrays_match_scalars():
    rng = np.random.default_rng(6)
    down, up = rng.uniform(100, 100000, 50), rng.uniform(100, 10000, 50)
    rtt = rng.uniform(0, 500, 50)
    durations, speeds = simulate_download(SimulatedLink(down, up, rtt, 3), 2_000_000)
    for i in range(50):
        scalar = simulate_download(SimulatedLink(down[i], up[i], rtt[i], 3), 2_000_000)
        assert (durations[i], speeds[i]) == scalar
    with pytest.raises(ValueError):
        SimulatedLink(down, np.append(up[:-1], 0.0), rtt)
    with pytest.raises(ValueError):
        SimulatedLink(down, up, np.append(rtt[:-1], -1.0))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            SimulatedLink(np.append(down[:-1], bad), up, rtt)
        with pytest.raises(ValueError):
            SimulatedLink(down, up, np.append(rtt[:-1], bad))


def test_simulated_link_validation():
    nan, inf = float("nan"), float("inf")
    for link in [
        (0.0, 100.0, 10.0),
        (100.0, 100.0, -1.0),
        (nan, 100.0, 10.0),
        (inf, 100.0, 10.0),
        (100.0, nan, 10.0),
        (100.0, inf, 10.0),
        (100.0, 100.0, nan),
        (100.0, 100.0, inf),
        (100.0, 100.0, 10.0, -1),
        (100.0, 100.0, 10.0, nan),
        (100.0, 100.0, 10.0, inf),
    ]:
        with pytest.raises(ValueError):
            SimulatedLink(*link)
    for size in (0, -1.0, nan, inf):
        with pytest.raises(ValueError):
            simulate_download(SimulatedLink(100.0, 100.0, 10.0), size)


def test_missing_binary_fails_apply_as_backend_error(tmp_path, monkeypatch):
    monkeypatch.setenv("PATH", str(tmp_path))  # an empty directory: no ip or tc can run
    executed = []

    def runner(command):
        executed.append(command)
        return _shell_runner(command)

    backend = TcBackend("eth0", "ifb0", runner=runner)
    with pytest.raises(BackendError, match="status 127: ip link set dev ifb0 up"):
        backend.apply(PARAMS_BASIC)
    assert executed == ["ip link set dev ifb0 up", *CLEAR_LINES]  # the teardown still ran
    assert backend.configured is None


def test_shell_runner_drives_stub_binaries(tmp_path, monkeypatch):
    # stub ip and tc log their argv and answer STUB_STDERR, if set, with status 2;
    # the stubs are all of PATH, so no real tc can run
    log = tmp_path / "argv.log"
    for name in ("ip", "tc"):
        stub = tmp_path / name
        stub.write_text(
            f'#!/bin/sh\necho "{name} $*" >> "{log}"\n[ -z "$STUB_STDERR" ] && exit 0\n'
            'printf "%s\\n" "$STUB_STDERR" >&2\nexit 2\n'
        )
        stub.chmod(0o755)
    monkeypatch.setenv("PATH", str(tmp_path))
    tc, dry = TcBackend("eth0", "ifb0"), DryRunBackend("eth0", "ifb0")
    for backend in (tc, dry):
        monkeypatch.setenv("STUB_STDERR", ABSENT[1])  # before the install no removal finds a rule
        backend.clear()
        monkeypatch.delenv("STUB_STDERR")
        backend.apply(PARAMS_BASIC)
        backend.apply(EmulationParams(8000.0, 1000.0, 90.0))  # a resample
        backend.clear()
    assert log.read_text().splitlines() == dry.log
    assert len(dry.log) == 3 + 9 + 8 + 3
    monkeypatch.setenv("STUB_STDERR", DENIED[1])
    with pytest.raises(BackendError) as denied:
        tc.clear()
    assert str(denied.value) == f"command failed with status 2: {CLEAR_LINES[0]} ({DENIED[1]})"


def test_shell_runner_passes_each_interface_name_as_one_argument(tmp_path, monkeypatch):
    # stub ip and tc log their name and each argument on a line, then a blank line;
    # the stubs are all of PATH, so no real tc can run
    log = tmp_path / "argv.log"
    for name in ("ip", "tc"):
        stub = tmp_path / name
        stub.write_text(f'#!/bin/sh\nprintf "%s\\n" {name} "$@" "" >> "{log}"\n')
        stub.chmod(0o755)
    monkeypatch.setenv("PATH", str(tmp_path))
    egress, ifb = "eth0'x", 'ifb"0'  # Linux allows quotes in a name
    tc, dry = TcBackend(egress, ifb), DryRunBackend(egress, ifb)
    for backend in (tc, dry):
        backend.apply(PARAMS_BASIC)
        backend.clear()
    argvs = [call.splitlines() for call in log.read_text().split("\n\n")[:-1]]
    assert argvs == [command.split() for command in dry.log]
    assert ["tc", "qdisc", "del", "dev", egress, "root"] in argvs
    assert ["ip", "link", "set", "dev", ifb, "up"] in argvs


@pytest.mark.parametrize("name", ["eth0 ingress", "eth0\t", "\u00a0eth0", " "])
def test_interface_name_with_whitespace_refused(name):
    # a command line is split on whitespace, so such a name would render other commands
    for build in (
        lambda: DryRunBackend(name),
        lambda: TcBackend("eth0", name),
        lambda: render_commands(PARAMS_BASIC, "eth0", name),
        lambda: render_clear_commands(name, "ifb0"),
    ):
        with pytest.raises(FormatError, match="interface names must be non-empty, without"):
            build()


def test_render_rejects_empty_iface():
    with pytest.raises(ValueError):
        render_commands(PARAMS_BASIC, "", "ifb0")
    with pytest.raises(ValueError):
        render_clear_commands("", "ifb0")
    with pytest.raises(ValueError):
        render_clear_commands("eth0", "")
    with pytest.raises(ValueError):
        DryRunBackend("")
    with pytest.raises(ValueError):
        TcBackend("eth0", "")
    with pytest.raises(ValueError):
        DryRunBackend(ifb_iface="")


def test_ifb_equal_to_egress_refused_before_any_command():
    # the ingress redirect would send the interface's traffic straight back out of it
    executed = []
    for build in (
        lambda: TcBackend("eth0", "eth0", runner=executed.append),
        lambda: DryRunBackend("eth0", "eth0"),
        lambda: render_commands(PARAMS_BASIC, "eth0", "eth0"),
        lambda: render_clear_commands("eth0", "eth0"),
    ):
        with pytest.raises(FormatError, match="must differ from the egress interface: 'eth0'"):
            build()
    assert executed == []
