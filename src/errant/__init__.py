"""Data-driven emulation of mobile networks.

Builds kernel density models of (download bandwidth, upload bandwidth,
latency) from speed-test measurements, and replays them through traffic
shaping commands or a dry-run command log. ``validate`` checks them by
simulating downloads over sampled links.
"""

import signal as _signal

__version__ = "0.1.0"

# signals that end a run; a teardown holds them back until its last line has run
_HELD_SIGNALS = {
    getattr(_signal, name) for name in ("SIGINT", "SIGTERM", "SIGHUP") if hasattr(_signal, name)
}

# threads inherit the mask of the thread that starts them, so numpy's BLAS
# workers, started on import, leave these signals to the main thread
if hasattr(_signal, "pthread_sigmask"):
    _mask = _signal.pthread_sigmask(_signal.SIG_BLOCK, _HELD_SIGNALS)
    try:
        import numpy as _numpy  # noqa: F401
    finally:
        _signal.pthread_sigmask(_signal.SIG_SETMASK, _mask)

from .backends import (
    DryRunBackend,
    SimulatedLink,
    TcBackend,
    default_ifb,
    render_clear_commands,
    render_commands,
    simulate_download,
)
from .emulator import (
    MonotonicClock,
    RunEvent,
    RunReport,
    ScenarioStep,
    Segment,
    VirtualClock,
    parse_scenario,
    run,
    run_fixed,
    run_periodic,
    run_trace,
    sample_params,
    sampler,
    simple_params,
    static_preset,
)
from .errors import (
    BackendError,
    CorruptModelError,
    ErrantError,
    FitError,
    FormatError,
    ModelFileError,
    PathologicalModelError,
    PresetError,
    ScenarioError,
    VersionError,
)
from .ingest import (
    COLUMNS,
    Rat,
    RejectedRow,
    SignalQuality,
    SpeedTests,
    bin_signal,
    parse_speedtests,
    write_rejects,
)
from .kde import (
    EmulationParams,
    KdeModel,
    density,
    fit,
    sample,
    sample_points,
    silverman_factor,
)
from .model_store import FORMAT_VERSION, ModelBundle, dumps, load, save
from .profiles import (
    DIMENSIONS,
    DimensionStats,
    ProfileKey,
    build_profiles,
    dimension_stats,
    filter_profiles,
)
from .validation import (
    DistributionComparison,
    KsResult,
    SubsampleReport,
    compare_distributions,
    ks_two_sample,
    subsample_experiment,
)
