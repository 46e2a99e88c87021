"""Run-time drivers: turn models into timed backend actions.

A run is a list of segments. Each segment draws parameters (once, or every
period seconds), applies them through a shaping backend, and clears the
backend at its end, including on error paths. Time comes from an injectable
clock so tests and non-executing backends run instantly.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, NamedTuple, Optional, Protocol, Tuple

import numpy as np

from . import kde
from .backends import ShapingBackend
from .errors import PresetError, ScenarioError
from .kde import EmulationParams, KdeModel
from .model_store import ModelBundle
from .profiles import Profile, ProfileKey


class Clock(Protocol):
    def now(self) -> float: ...

    def sleep(self, seconds: float) -> None: ...


class MonotonicClock:
    """Wall-clock time source for real runs."""

    def now(self) -> float:
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds)


class VirtualClock:
    """Deterministic clock for tests and dry runs; sleeping advances instantly."""

    def __init__(self, start: float = 0.0) -> None:
        self._now = start

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
    seed: Optional[int] = None
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


def simple_params(profile: Profile) -> EmulationParams:
    """Baseline parameters for a profile: per-dimension means, latency std."""
    means = profile.samples.mean(axis=0)
    return EmulationParams(
        download_kbps=float(means[0]),
        upload_kbps=float(means[1]),
        latency_ms=float(means[2]),
        latency_std_ms=float(profile.samples[:, 2].std()),
    )


@dataclass(frozen=True)
class StaticPreset:
    """Fixed shaping values shipped by a third-party tool."""

    name: str
    download_kbps: float
    upload_kbps: float
    latency_ms: float
    latency_range_ms: Optional[Tuple[float, float]] = None


_PRESETS: Dict[Tuple[str, str], StaticPreset] = {}


def _preset(
    tool: str,
    name: str,
    download: float,
    upload: float,
    latency: float,
    latency_range: Optional[Tuple[float, float]] = None,
) -> None:
    _PRESETS[(tool, name.lower())] = StaticPreset(
        f"{tool}:{name}", download, upload, latency, latency_range
    )


# Built-in profiles of widely used tools, in kbit/s and ms.
_preset("chrome", "3G", 750, 250, 100)
_preset("chrome", "3G-fast", 1000, 750, 40)
_preset("chrome", "4G", 4000, 3000, 20)
_preset("webpagetest", "3G", 1600, 768, 300)
_preset("webpagetest", "3G-slow", 400, 400, 400)
_preset("webpagetest", "3G-fast", 1600, 768, 150)
_preset("webpagetest", "4G", 12000, 12000, 70)
_preset("browsertime", "3G", 1600, 768, 300)
_preset("browsertime", "3G-slow", 780, 330, 200)
_preset("browsertime", "3G-fast", 1600, 768, 150)
_preset("atc", "3G", 780, 330, 200)
_preset("atc", "3G-slow", 850, 420, 190)
_preset("android", "3G", 14000, 5760, 0)
_preset("android", "3G-slow", 384, 384, 117.5, (35.0, 200.0))
_preset("android", "4G", 173000, 58000, 0)
_preset("nlc", "3G", 780, 330, 100)
_preset("nlc", "4G", 51200, 10240, 65)


def static_preset(tool: str, profile_name: str) -> StaticPreset:
    """Look up a built-in preset; unknown pairs list what is available."""
    found = _PRESETS.get((tool.strip().lower(), profile_name.strip().lower()))
    if found is None:
        available = ", ".join(sorted(preset.name for preset in _PRESETS.values()))
        raise PresetError(f"unknown preset {tool}:{profile_name}; available: {available}")
    return found


@dataclass(frozen=True)
class ScenarioStep:
    """One trace step: hold a profile for a duration, fixed or resampled."""

    duration_s: float
    profile: ProfileKey
    period_s: Optional[float] = None


@dataclass(frozen=True)
class Scenario:
    steps: Tuple[ScenarioStep, ...]


def parse_scenario(text: str) -> Scenario:
    """Parse the step-per-line format ``<duration_s>,<profile_key>,<mode>``.

    Mode is ``fixed`` or ``periodic:<seconds>``; ``#`` starts a comment and
    blank lines are skipped. Errors name the offending line.
    """
    steps = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = [part.strip() for part in line.split(",")]
        if len(parts) != 3:
            raise ScenarioError(
                f"line {lineno}: expected <duration_s>,<profile_key>,<mode>"
            )
        try:
            duration = float(parts[0])
        except ValueError:
            raise ScenarioError(f"line {lineno}: bad duration {parts[0]!r}") from None
        if duration <= 0:
            raise ScenarioError(f"line {lineno}: duration must be positive")
        try:
            key = ProfileKey.from_string(parts[1])
        except ValueError as exc:
            raise ScenarioError(f"line {lineno}: {exc}") from None
        mode = parts[2]
        if mode == "fixed":
            period = None
        elif mode.startswith("periodic:"):
            try:
                period = float(mode.split(":", 1)[1])
            except ValueError:
                raise ScenarioError(f"line {lineno}: bad period in {mode!r}") from None
            if period <= 0 or period > duration:
                raise ScenarioError(f"line {lineno}: period must be in (0, duration]")
        else:
            raise ScenarioError(f"line {lineno}: unknown mode {mode!r}")
        steps.append(ScenarioStep(duration, key, period))
    if not steps:
        raise ScenarioError("scenario has no steps")
    return Scenario(tuple(steps))


class Segment(NamedTuple):
    """Apply ``draw()`` at t = 0, period, 2*period, ... < duration, then clear."""

    duration_s: float
    period_s: float
    draw: Callable[[], EmulationParams]


def _sampler(model: KdeModel, rng: np.random.Generator) -> Callable[[], EmulationParams]:
    return lambda: sample_params(model, rng)


def run(
    segments: Iterable[Segment], backend: ShapingBackend, clock: Optional[Clock] = None
) -> RunReport:
    """Run the segments back to back; event times count from the first one.

    Every segment is checked before the backend sees a command. The backend
    is cleared at the end of each segment and on every exit path; a failure
    during cleanup on the error path never masks the original exception.
    """
    segments = list(segments)
    for duration_s, period_s, _ in segments:
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        if period_s <= 0 or period_s > duration_s:
            raise ValueError("period must be in (0, duration]")
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
    backend: ShapingBackend,
    duration_s: float,
    rng: np.random.Generator,
    clock: Optional[Clock] = None,
) -> RunReport:
    """Sample parameters once, hold them for the duration, then clear."""
    return run_periodic(model, backend, duration_s, duration_s, rng, clock)


def run_periodic(
    model: KdeModel,
    backend: ShapingBackend,
    duration_s: float,
    period_s: float,
    rng: np.random.Generator,
    clock: Optional[Clock] = None,
) -> RunReport:
    """Resample and re-apply every ``period_s`` seconds for ``duration_s`` seconds."""
    return run([Segment(duration_s, period_s, _sampler(model, rng))], backend, clock)


def run_trace(
    scenario: Scenario,
    bundle: ModelBundle,
    backend: ShapingBackend,
    rng: np.random.Generator,
    clock: Optional[Clock] = None,
) -> RunReport:
    """Execute scenario steps in order, each as a fixed or periodic segment.

    Profile resolution happens up front: a scenario naming a profile missing
    from the bundle fails before the backend sees a single command.
    """
    missing = sorted(
        {
            step.profile.as_string()
            for step in scenario.steps
            if step.profile not in bundle.models
        }
    )
    if missing:
        raise ScenarioError(
            "scenario references profiles missing from the models: " + ", ".join(missing)
        )
    segments = [
        Segment(
            step.duration_s,
            step.duration_s if step.period_s is None else step.period_s,
            _sampler(bundle.models[step.profile], rng),
        )
        for step in scenario.steps
    ]
    return run(segments, backend, clock)
