"""Run-time drivers: turn models into timed backend actions.

A run is a list of segments. Each segment draws parameters (once, or every
period seconds), applies them through a shaping backend, and clears the
backend at its end, including on error paths. Time comes from an injectable
clock so tests and non-executing backends run instantly.
"""

from __future__ import annotations

import contextlib
import math
import time
from dataclasses import dataclass, field
from typing import (
    Callable, Dict, Iterable, Iterator, NamedTuple, Optional, Protocol, Sequence, Tuple
)

import numpy as np

from . import kde
from .errors import FormatError, PresetError, ScenarioError
from .kde import EmulationParams, KdeModel
from .model_store import ModelBundle
from .profiles import ProfileKey


class Clock(Protocol):
    def now(self) -> float: ...

    def sleep(self, seconds: float) -> None: ...


class Backend(Protocol):
    """What a run drives: apply rebuilds any configured state in place; clear is idempotent."""

    def apply(self, params: EmulationParams) -> None: ...

    def clear(self) -> None: ...


class MonotonicClock:
    """Wall-clock time source for real runs."""

    def now(self) -> float:
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds)


class VirtualClock:
    """Deterministic clock for tests and dry runs; sleeping advances instantly."""

    def __init__(self) -> None:
        self._now = 0.0

    def now(self) -> float:
        return self._now

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            self._now += seconds


@dataclass(frozen=True)
class RunEvent:
    """One backend action: when it happened and what was applied."""

    time_s: float
    action: str
    params: Optional[EmulationParams] = None


@dataclass
class RunReport:
    """Timeline of backend actions taken during a run."""

    events: list[RunEvent] = field(default_factory=list)
    notes: Dict[str, str] = field(default_factory=dict)

    def applies(self) -> list[RunEvent]:
        return [event for event in self.events if event.action == "apply"]

    def to_text(self) -> str:
        """Comment lines with the run metadata, then one CSV row per event."""
        lines = [f"# {key}={value}" for key, value in self.notes.items()]
        lines.append("time_s,action,download_kbps,upload_kbps,latency_ms")
        for event in self.events:
            if event.params is None:
                lines.append(f"{event.time_s:.3f},{event.action},,,")
            else:
                p = event.params
                lines.append(
                    f"{event.time_s:.3f},{event.action},"
                    f"{p.download_kbps!r},{p.upload_kbps!r},{p.latency_ms!r}"
                )
        return "\n".join(lines) + "\n"


def sample_params(model: KdeModel, rng: np.random.Generator) -> EmulationParams:
    """One draw from a model."""
    return kde.sample(model, rng, 1)[0]


def simple_params(samples: np.ndarray) -> EmulationParams:
    """Baseline parameters for (n, 3) samples: per-dimension means, latency std."""
    means = samples.mean(axis=0)
    return EmulationParams(
        download_kbps=float(means[0]),
        upload_kbps=float(means[1]),
        latency_ms=float(means[2]),
        latency_std_ms=float(samples[:, 2].std()),
    )


# Built-in profiles of widely used tools: download kbit/s, upload kbit/s and
# added round-trip ms.
_PRESETS: Dict[str, EmulationParams] = {
    "chrome:3G": EmulationParams(750, 250, 100),
    "chrome:3G-fast": EmulationParams(1000, 750, 40),
    "chrome:4G": EmulationParams(4000, 3000, 20),
    "webpagetest:3G": EmulationParams(1600, 768, 300),
    "webpagetest:3G-slow": EmulationParams(400, 400, 400),
    "webpagetest:3G-fast": EmulationParams(1600, 768, 150),
    "webpagetest:4G": EmulationParams(12000, 12000, 70),
    "browsertime:3G": EmulationParams(1600, 768, 300),
    "browsertime:3G-slow": EmulationParams(780, 330, 200),
    "browsertime:3G-fast": EmulationParams(1600, 768, 150),
    "atc:3G": EmulationParams(780, 330, 200),
    "atc:3G-slow": EmulationParams(850, 420, 190),
    "android:3G": EmulationParams(14000, 5760, 0),
    # Android gives a 35-200 ms range; the preset holds its midpoint
    "android:3G-slow": EmulationParams(384, 384, 117.5),
    "android:4G": EmulationParams(173000, 58000, 0),
    "nlc:3G": EmulationParams(780, 330, 100),
    "nlc:4G": EmulationParams(51200, 10240, 65),
}


def static_preset(tool: str, profile_name: str) -> Tuple[str, EmulationParams]:
    """(canonical name, params) of a built-in preset; unknown names list the available ones."""
    wanted = f"{tool.strip()}:{profile_name.strip()}".lower()
    for name, params in _PRESETS.items():
        if name.lower() == wanted:
            return name, params
    available = ", ".join(sorted(_PRESETS))
    raise PresetError(f"unknown preset {tool}:{profile_name}; available: {available}")


def _check_timing(duration_s: float, period_s: float) -> None:
    """The timing rule of every run: 0 < period <= duration < inf; NaN fails it."""
    if not 0 < duration_s < math.inf:
        raise FormatError("duration must be positive and finite")
    if not 0 < period_s <= duration_s:
        raise FormatError("period must be in (0, duration]")


@dataclass(frozen=True)
class ScenarioStep:
    """One trace step: apply a profile every period for a duration (fixed: period = duration)."""

    duration_s: float
    profile: ProfileKey
    period_s: float


def parse_scenario(text: str) -> Tuple[ScenarioStep, ...]:
    """Parse the step-per-line format ``<duration_s>,<profile_key>,<mode>``.

    The key is all between the first and last comma, so a name in it may hold
    one. Mode is ``fixed`` or ``periodic:<seconds>``; ``#`` starts a comment and
    blank lines are skipped. Errors name the offending line.
    """
    steps = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) < 3:
            raise ScenarioError(
                f"line {lineno}: expected <duration_s>,<profile_key>,<mode>"
            )
        parts = [part.strip() for part in (parts[0], ",".join(parts[1:-1]), parts[-1])]
        try:
            duration = float(parts[0])
        except ValueError:
            raise ScenarioError(f"line {lineno}: bad duration {parts[0]!r}") from None
        try:
            key = ProfileKey(parts[1])
        except ValueError as exc:
            raise ScenarioError(f"line {lineno}: {exc}") from None
        mode = parts[2]
        if mode == "fixed":
            period = duration
        elif mode.startswith("periodic:"):
            try:
                period = float(mode.split(":", 1)[1])
            except ValueError:
                raise ScenarioError(f"line {lineno}: bad period in {mode!r}") from None
        else:
            raise ScenarioError(f"line {lineno}: unknown mode {mode!r}")
        try:
            _check_timing(duration, period)
        except ValueError as exc:
            raise ScenarioError(f"line {lineno}: {exc}") from None
        steps.append(ScenarioStep(duration, key, period))
    if not steps:
        raise ScenarioError("scenario has no steps")
    return tuple(steps)


class Segment(NamedTuple):
    """Apply ``draw()`` at t = 0, period, 2*period, ... < duration, then clear."""

    duration_s: float
    period_s: float
    draw: Callable[[], EmulationParams]


def sampler(model: KdeModel, rng: np.random.Generator) -> Callable[[], EmulationParams]:
    """A segment's draw: rows in order from blocks of ``kde.BATCH`` draws.

    A block is drawn only when the previous one runs out. Each segment takes
    its own draw, so the rest of a block is dropped when the segment ends.
    """

    def blocks() -> Iterator[EmulationParams]:
        while True:
            yield from kde.sample(model, rng, kde.BATCH)

    return blocks().__next__


def run(
    segments: Iterable[Segment], backend: Backend, clock: Optional[Clock] = None
) -> RunReport:
    """Run the segments back to back; event times count from the first one.

    Every segment is checked before the backend sees a command. The backend
    is cleared at the end of each segment and on every exit path; a failure
    during cleanup on the error path never masks the original exception.
    """
    segments = list(segments)
    for duration_s, period_s, _ in segments:
        _check_timing(duration_s, period_s)
    clock = clock or MonotonicClock()
    report = RunReport()
    origin = clock.now()

    def clear() -> None:
        backend.clear()
        report.events.append(RunEvent(clock.now() - origin, "clear", None))

    for duration_s, period_s, draw in segments:
        start = clock.now()
        try:
            applied = 0
            while applied * period_s < duration_s:
                clock.sleep(start + applied * period_s - clock.now())
                params = draw()
                backend.apply(params)
                report.events.append(RunEvent(clock.now() - origin, "apply", params))
                applied += 1
            clock.sleep(start + duration_s - clock.now())
        except BaseException:
            with contextlib.suppress(Exception):
                clear()
            raise
        clear()
    return report


def run_fixed(
    model: KdeModel,
    backend: Backend,
    duration_s: float,
    rng: np.random.Generator,
    clock: Optional[Clock] = None,
) -> RunReport:
    """Sample parameters once, hold them for the duration, then clear."""
    return run_periodic(model, backend, duration_s, duration_s, rng, clock)


def run_periodic(
    model: KdeModel,
    backend: Backend,
    duration_s: float,
    period_s: float,
    rng: np.random.Generator,
    clock: Optional[Clock] = None,
) -> RunReport:
    """Resample and re-apply every ``period_s`` seconds for ``duration_s`` seconds."""
    return run([Segment(duration_s, period_s, sampler(model, rng))], backend, clock)


def run_trace(
    scenario: Sequence[ScenarioStep],
    bundle: ModelBundle,
    backend: Backend,
    rng: np.random.Generator,
    clock: Optional[Clock] = None,
) -> RunReport:
    """Execute scenario steps in order, each as a fixed or periodic segment.

    Profile resolution happens up front: a scenario naming a profile missing
    from the bundle fails before the backend sees a single command.
    """
    missing = sorted({step.profile for step in scenario if step.profile not in bundle.models})
    if missing:
        raise ScenarioError(
            "scenario references profiles missing from the models: " + ", ".join(missing)
        )
    segments = [
        Segment(step.duration_s, step.period_s, sampler(bundle.models[step.profile], rng))
        for step in scenario
    ]
    return run(segments, backend, clock)
