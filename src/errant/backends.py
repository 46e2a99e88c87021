"""Shaping backends: tc/netem command rendering and execution, and ``validate``'s fluid link.

The shaping layout mirrors common practice for bidirectional control from a
single host: upload is limited by an HTB class on the egress device, ingress
traffic is redirected to an ifb device where download is limited the same
way, and the round-trip latency is split half on each side so a full RTT is
experienced end to end. A netem qdisc under each HTB class adds the delay.
A resample rebuilds each direction's root in turn and keeps the ifb redirect.
A backend checks its interface names when it is made. A block of applies is
written with one join from text cut once; only its rates and netem clauses are formatted.
``DryRunBackend`` and ``TcBackend`` meet the run loop's ``emulator.Backend`` protocol.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import operator
import os
import signal
import subprocess
import sys
import threading
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from . import _HELD_SIGNALS
from .errors import BackendError, FormatError
from .kde import EmulationParams


def _ms(value: float) -> str:
    # netem takes fractional milliseconds; trim trailing zeros (the digit before "." stays)
    return f"{value:.3f}".rstrip("0").rstrip(".")


def _kbit(rates: Sequence[float]) -> list[str]:
    # HTB rates are whole kbit; never render a zero rate
    return [str(round(rate) or 1) for rate in rates]  # max(1, ...) for a positive rate


class _Renderer:
    """An interface pair's command lines: its names checked, its constant lines built once."""

    def __init__(self, egress_iface: str, ifb_iface: str) -> None:
        names = (egress_iface, ifb_iface)
        # a command line is split on whitespace, so a name must be one word (as Linux requires)
        for name in names:
            if name.split() != [name]:
                raise FormatError(f"interface names must be non-empty, without whitespace: {name!r}")
        if egress_iface == ifb_iface:  # the redirect would send ingress straight back out
            raise FormatError(f"the ifb device must differ from the egress interface: {ifb_iface!r}")
        self.teardown = [
            f"tc qdisc del dev {egress_iface} root",
            f"tc qdisc del dev {egress_iface} ingress",
            f"tc qdisc del dev {ifb_iface} root",
        ]
        roots = [f"tc qdisc add dev {name} root handle 1: htb default 1" for name in names]
        # what precedes each direction's rate and netem lines: in a first install, the ifb link,
        # ingress hook and redirect, then the root; in a resample, the root's removal, then the root
        self._heads = (
            ([f"ip link set dev {ifb_iface} up",
              f"tc qdisc add dev {egress_iface} handle ffff: ingress",
              f"tc filter add dev {egress_iface} parent ffff: "
              f"matchall action mirred egress redirect dev {ifb_iface}", roots[0]], roots[1:]),
            ([self.teardown[0], roots[0]], [self.teardown[2], roots[1]]),
        )
        self._tails = [
            (f"tc class add dev {name} parent 1: classid 1:1 htb rate ",
             f"tc qdisc add dev {name} parent 1:1 handle 10: netem ")
            for name in names
        ]

    def text(self, block: Sequence[EmulationParams], resample: bool = False, sep: str = "\n") -> str:
        """The lines of a non-empty ``block`` of applies joined by ``sep``, the first an install
        unless ``resample``; the text around their rates and netem clauses is cut once."""
        (egress_rate, egress_netem), (ifb_rate, ifb_netem) = self._tails
        first, again = ((sep.join([*egress_head, egress_rate]), sep.join(["", *ifb_head, ifb_rate]))
                        for egress_head, ifb_head in (self._heads[resample], self._heads[True]))
        downloads, uploads, latencies, deviations = zip(*block)
        parts = [sep + again[0], "", f"kbit{sep}{egress_netem}", "", again[1], "",
                 f"kbit{sep}{ifb_netem}", ""] * len(block)
        parts[0], parts[4] = first
        parts[1::8], parts[5::8] = _kbit(uploads), _kbit(downloads)
        parts[3::8] = parts[7::8] = [
            f"delay {_ms(latency / 2.0)}ms" if deviation is None
            else f"delay {_ms(latency / 2.0)}ms {_ms(deviation / 2.0)}ms distribution normal"
            for latency, deviation in zip(latencies, deviations)]
        return "".join(parts)

    def render(self, params: EmulationParams, resample: bool = False) -> list[str]:
        return self.text([params], resample).split("\n")


def render_commands(params: EmulationParams, egress_iface: str, ifb_iface: str) -> list[str]:
    """Render the command sequence imposing ``params`` on an interface pair.

    ``params.latency_ms`` is the round-trip time; each direction gets half of
    it. With ``params.latency_std_ms`` the netem delay becomes normally
    distributed around the mean, its deviation split the same way.
    """
    return _Renderer(egress_iface, ifb_iface).render(params)


def render_clear_commands(egress_iface: str, ifb_iface: str) -> list[str]:
    """Commands removing every installed rule; failures on absent rules are benign."""
    return _Renderer(egress_iface, ifb_iface).teardown


# stderr of a removal line whose rule is absent: ENOENT (older kernels, the
# benchmark's fake tc), the kernel's sch_api.c messages, iproute2's missing device
_ABSENT = (
    "No such file or directory", "Cannot delete qdisc with handle of zero",
    "Cannot find specified qdisc", "Cannot find device",
)


@contextlib.contextmanager
def _signals_held() -> Iterator[None]:
    """Hold SIGINT, SIGTERM and SIGHUP while the block runs, then deliver them.

    Only the main thread runs Python signal handlers, so only there can a
    signal cut the block short. Blocking the signals there is enough when
    errant is imported before numpy: the package imports numpy with them
    blocked, so BLAS worker threads inherit the mask. pytest and library
    callers often import numpy first, and the kernel may hand a signal to
    such a worker, while the handler still runs in the main thread. So each
    handler is also swapped for one that records the signal. The mask stays
    for the ``tc`` processes started in the block: they inherit it, so a
    Ctrl-C at the terminal does not kill one midway.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    caught: list[int] = []
    # a handler set outside Python reads as None and cannot be put back, so it stays
    previous = {s: h for s in _HELD_SIGNALS if (h := signal.getsignal(s)) is not None}
    for signum in previous:
        signal.signal(signum, lambda signum, frame: caught.append(signum))
    masked = hasattr(signal, "pthread_sigmask")
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, previous) if masked else None
    try:
        yield
    finally:
        if masked:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)  # pending signals are recorded now
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        for signum in caught:
            signal.raise_signal(signum)


class _CommandBackend:
    """Shared flow for backends that speak rendered command lines; a subclass adds ``_execute``."""

    def __init__(self, egress_iface: str, ifb_iface: Optional[str] = None) -> None:
        self.configured: Optional[EmulationParams] = None
        # names are settled once, so an empty one never reaches a command, teardown included
        self.egress_iface = egress_iface
        self.ifb_iface = os.environ.get("ERRANT_IFB", "ifb0") if ifb_iface is None else ifb_iface
        self._renderer = _Renderer(egress_iface, self.ifb_iface)

    def apply(self, params: EmulationParams) -> None:
        # after the first install, resample in place: one direction's root at a time
        commands = self._renderer.render(params, resample=self.configured is not None)
        try:
            self._execute(commands)
        except BackendError:
            self.clear()  # all or nothing: never leave half a rule set installed
            raise
        self.configured = params

    def clear(self) -> None:
        with _signals_held():
            # a teardown runs every line, even past a SIGTERM's SystemExit;
            # the first exception is raised once the last line has run
            failure: Optional[BaseException] = None
            for command in self._renderer.teardown:
                try:
                    self._execute([command])
                except BaseException as exc:
                    failure = failure or exc
            self.configured = None
            if failure is not None:
                raise failure


class DryRunBackend(_CommandBackend):
    """Records the exact command sequence instead of executing it."""

    def __init__(self, egress_iface: str = "eth0", ifb_iface: Optional[str] = None) -> None:
        super().__init__(egress_iface, ifb_iface)
        self.log: list[str] = []

    def _execute(self, commands: list[str]) -> None:
        self.log.extend(commands)

    def replay(self, actions: Sequence[Optional[EmulationParams]], sep: str) -> str:
        """The lines of applying each params and clearing at each ``None``, in order, joined by
        ``sep``; ``configured`` ends where those calls would leave it, and ``log`` is untouched."""
        pieces = []
        for cleared, run in itertools.groupby(actions, functools.partial(operator.is_, None)):
            run = list(run)
            pieces += ([sep.join(self._renderer.teardown)] * len(run) if cleared
                       else [self._renderer.text(run, self.configured is not None, sep)])
            self.configured = None if cleared else run[-1]
        return sep.join(pieces)


def _shell_runner(command: str) -> tuple[int, str]:
    try:
        completed = subprocess.run(command.split(), capture_output=True, text=True, check=False)
    except OSError as exc:  # e.g. no tc on PATH: the shell's "command not found" status
        return 127, str(exc)
    return completed.returncode, completed.stderr.strip()


class TcBackend(_CommandBackend):
    """Executes rendered commands through the system tc/ip binaries.

    ``runner`` maps a command line to (exit status, stderr); tests inject a
    fake one. Lines run in order up to the first exception or failed status;
    a removal line whose stderr says the rule is absent has not failed. A
    failed install or resample removes every rule and raises
    :class:`BackendError`. A teardown runs every line, even past a signal's
    ``SystemExit``, then raises the first exception, such as a
    :class:`BackendError` naming a removal that failed for another reason.
    """

    def __init__(
        self,
        egress_iface: str,
        ifb_iface: Optional[str] = None,
        runner: Optional[Callable[[str], tuple[int, str]]] = None,
    ) -> None:
        super().__init__(egress_iface, ifb_iface)
        self._runner = runner or _shell_runner

    def _execute(self, commands: list[str]) -> None:
        for command in commands:
            status, stderr = self._runner(command)
            # a removal line may find its rule absent, e.g. before the first install
            if status != 0 and not (
                command in self._renderer.teardown and any(text in stderr for text in _ABSENT)
            ):
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
        # an int beyond the largest float compares below inf, yet overflows when multiplied
        if not 0 <= self.setup_rtts <= sys.float_info.max:
            raise ValueError("setup_rtts must be nonnegative and finite as a float")


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
