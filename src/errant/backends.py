"""Shaping backends: tc/netem command rendering, execution, and a simulated link.

The shaping layout mirrors common practice for bidirectional control from a
single host: upload is limited by an HTB class on the egress device, ingress
traffic is redirected to an ifb device where download is limited the same
way, and the round-trip latency is split half on each side so a full RTT is
experienced end to end. A netem qdisc under each HTB class adds the delay.
A resample rebuilds each direction's root in turn and keeps the ifb redirect.
"""

from __future__ import annotations

import os
import shlex
import subprocess
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import BackendError, FormatError
from .kde import EmulationParams


def default_ifb() -> str:
    """ifb device used when none is given; ERRANT_IFB overrides it."""
    return os.environ.get("ERRANT_IFB", "ifb0")


def _ms(value: float) -> str:
    # netem takes fractional milliseconds; trim trailing zeros
    text = f"{value:.3f}".rstrip("0").rstrip(".")
    return text or "0"


def _kbit(value: float) -> int:
    # HTB rates are whole kbit; never render a zero rate
    return max(1, round(value))


def render_commands(params: EmulationParams, egress_iface: str, ifb_iface: str) -> list[str]:
    """Render the command sequence imposing ``params`` on an interface pair.

    ``params.latency_ms`` is the round-trip time; each direction gets half of
    it. With ``params.latency_std_ms`` the netem delay becomes normally
    distributed around the mean, its deviation split the same way.
    """
    if not egress_iface or not ifb_iface:
        raise FormatError("interface names must be non-empty")
    netem = f"delay {_ms(params.latency_ms / 2.0)}ms"
    if params.latency_std_ms is not None:
        netem += f" {_ms(params.latency_std_ms / 2.0)}ms distribution normal"
    upload = _kbit(params.upload_kbps)
    download = _kbit(params.download_kbps)
    return [
        f"ip link set dev {ifb_iface} up",
        f"tc qdisc add dev {egress_iface} handle ffff: ingress",
        f"tc filter add dev {egress_iface} parent ffff: "
        f"matchall action mirred egress redirect dev {ifb_iface}",
        f"tc qdisc add dev {egress_iface} root handle 1: htb default 1",
        f"tc class add dev {egress_iface} parent 1: classid 1:1 htb rate {upload}kbit",
        f"tc qdisc add dev {egress_iface} parent 1:1 handle 10: netem {netem}",
        f"tc qdisc add dev {ifb_iface} root handle 1: htb default 1",
        f"tc class add dev {ifb_iface} parent 1: classid 1:1 htb rate {download}kbit",
        f"tc qdisc add dev {ifb_iface} parent 1:1 handle 10: netem {netem}",
    ]


def render_clear_commands(egress_iface: str, ifb_iface: str) -> list[str]:
    """Commands removing every installed rule; failures on absent rules are benign."""
    return [
        f"tc qdisc del dev {egress_iface} root",
        f"tc qdisc del dev {egress_iface} ingress",
        f"tc qdisc del dev {ifb_iface} root",
    ]


class ShapingBackend:
    """Base contract: apply rebuilds any configured state in place; clear is idempotent."""

    def __init__(self) -> None:
        self.configured: Optional[EmulationParams] = None

    def apply(self, params: EmulationParams) -> None:
        raise NotImplementedError

    def clear(self) -> None:
        raise NotImplementedError


class _CommandBackend(ShapingBackend):
    """Shared flow for backends that speak rendered command lines."""

    def __init__(self, egress_iface: str, ifb_iface: Optional[str] = None) -> None:
        super().__init__()
        # names are settled once, so an empty one never reaches a command, teardown included
        ifb_iface = default_ifb() if ifb_iface is None else ifb_iface
        if not egress_iface or not ifb_iface:
            raise FormatError("interface names must be non-empty")
        self.egress_iface = egress_iface
        self.ifb_iface = ifb_iface
        self._clear_commands = render_clear_commands(egress_iface, ifb_iface)

    def apply(self, params: EmulationParams) -> None:
        commands = render_commands(params, self.egress_iface, self.ifb_iface)
        try:
            if self.configured is None:
                self._execute(commands, tolerate_errors=False)
            else:
                # resample in place: one direction's root at a time, the other keeps shaping
                egress_root, _, ifb_root = self._clear_commands
                for delete, tree in ((egress_root, commands[3:6]), (ifb_root, commands[6:])):
                    self._execute([delete], tolerate_errors=True)
                    self._execute(tree, tolerate_errors=False)
        except BackendError:
            self.clear()  # all or nothing: never leave half a rule set installed
            raise
        self.configured = params

    def clear(self) -> None:
        self._execute(self._clear_commands, tolerate_errors=True)
        self.configured = None

    def _execute(self, commands: list[str], tolerate_errors: bool) -> None:
        raise NotImplementedError


class DryRunBackend(_CommandBackend):
    """Records the exact command sequence instead of executing it."""

    def __init__(self, egress_iface: str = "eth0", ifb_iface: Optional[str] = None) -> None:
        super().__init__(egress_iface, ifb_iface)
        self.log: list[str] = []

    def _execute(self, commands: list[str], tolerate_errors: bool) -> None:
        self.log.extend(commands)


def _shell_runner(command: str) -> tuple[int, str]:
    try:
        completed = subprocess.run(shlex.split(command), capture_output=True, text=True, check=False)
    except OSError as exc:  # e.g. no tc on PATH: the shell's "command not found" status
        return 127, str(exc)
    return completed.returncode, completed.stderr.strip()


class TcBackend(_CommandBackend):
    """Executes rendered commands through the system tc/ip binaries.

    ``runner`` maps a command line to (exit status, stderr); tests inject a
    fake one. Failures during rule removal are tolerated (the rules may not
    exist yet); a failure while installing rules removes every rule and raises
    :class:`BackendError`.
    """

    def __init__(
        self,
        egress_iface: str,
        ifb_iface: Optional[str] = None,
        runner: Optional[Callable[[str], tuple[int, str]]] = None,
    ) -> None:
        super().__init__(egress_iface, ifb_iface)
        self._runner = runner or _shell_runner

    def _execute(self, commands: list[str], tolerate_errors: bool) -> None:
        for command in commands:
            status, stderr = self._runner(command)
            if status != 0 and not tolerate_errors:
                detail = f" ({stderr})" if stderr else ""
                raise BackendError(f"command failed with status {status}: {command}{detail}")


@dataclass(frozen=True)
class SimulatedLink:
    """Fluid-model link: startup handshakes, then a rate-limited transfer.

    Rates and rtt are numbers, or equal-length arrays describing one link
    per element.
    """

    download_rate_kbps: float
    upload_rate_kbps: float
    rtt_ms: float
    setup_rtts: int = 2

    def __post_init__(self) -> None:
        # EmulationParams' rule element by element; comparisons are false for NaN
        rates = (self.download_rate_kbps, self.upload_rate_kbps)
        if not all(np.all((0 < rate) & (rate < np.inf)) for rate in rates):
            raise ValueError("link rates must be positive and finite")
        if not np.all((0 <= self.rtt_ms) & (self.rtt_ms < np.inf)):
            raise ValueError("rtt must be nonnegative and finite")
        if not 0 <= self.setup_rtts < np.inf:
            raise ValueError("setup_rtts must be nonnegative and finite")


def simulate_download(link: SimulatedLink, size_bytes: float) -> tuple[float, float]:
    """Fluid-model download of ``size_bytes``; returns (duration s, avg speed kbit/s).

    The transfer spends ``setup_rtts`` round trips on connection setup and
    then moves data at exactly the link's download rate. A link of arrays
    gives arrays, element for element equal to the scalar results.
    """
    if not 0 < size_bytes < np.inf:
        raise ValueError("size_bytes must be positive and finite")
    size_kbit = size_bytes * 8.0 / 1000.0
    duration = link.setup_rtts * (link.rtt_ms / 1000.0) + size_kbit / link.download_rate_kbps
    return duration, size_kbit / duration


class SimulatedBackend(ShapingBackend):
    """Backend that retargets an in-process fluid link instead of interfaces.

    The fluid model is deterministic, so a Gaussian latency pins the link at
    the mean latency.
    """

    def __init__(self) -> None:
        super().__init__()
        self.link: Optional[SimulatedLink] = None

    def apply(self, params: EmulationParams) -> None:
        self.link = SimulatedLink(params.download_kbps, params.upload_kbps, params.latency_ms)
        self.configured = params

    def clear(self) -> None:
        self.link = None
        self.configured = None

    def download(self, size_bytes: float) -> tuple[float, float]:
        """Simulate one download over the currently applied link."""
        if self.link is None:
            raise BackendError("no parameters applied; nothing to download through")
        return simulate_download(self.link, size_bytes)
