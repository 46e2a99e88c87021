"""Command rendering, backend state machines, and the fluid-model link."""

from pathlib import Path

import numpy as np
import pytest

from errant import (
    BackendError,
    DryRunBackend,
    EmulationParams,
    SimulatedBackend,
    SimulatedLink,
    TcBackend,
    default_ifb,
    render_clear_commands,
    render_commands,
    simulate_download,
)
from errant.backends import _shell_runner

GOLDEN = Path(__file__).parent / "golden"

PARAMS_BASIC = EmulationParams(20000.0, 5000.0, 40.0)

CLEAR_LINES = [
    "tc qdisc del dev eth0 root",
    "tc qdisc del dev eth0 ingress",
    "tc qdisc del dev ifb0 root",
]


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
    backend = TcBackend("eth0", "ifb0", runner=lambda command: (2, "no such qdisc"))
    backend.clear()  # removal errors are benign
    assert backend.configured is None


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


def test_simulated_backend_applies_and_clears():
    backend = SimulatedBackend()
    backend.apply(PARAMS_BASIC)
    assert backend.link == SimulatedLink(20000.0, 5000.0, 40.0, 2)
    duration, speed = backend.download(10_000_000)
    assert duration == pytest.approx(4.08)
    backend.clear()
    assert backend.link is None
    with pytest.raises(BackendError):
        backend.download(1000)


def test_simulated_backend_gaussian_uses_mean():
    backend = SimulatedBackend()
    backend.apply(EmulationParams(20000.0, 5000.0, 40.0, latency_std_ms=10.0))
    assert backend.link.rtt_ms == 40.0


def test_render_rejects_empty_iface():
    with pytest.raises(ValueError):
        render_commands(PARAMS_BASIC, "", "ifb0")
    with pytest.raises(ValueError):
        DryRunBackend("")
    with pytest.raises(ValueError):
        TcBackend("eth0", "")
    with pytest.raises(ValueError):
        DryRunBackend(ifb_iface="")
