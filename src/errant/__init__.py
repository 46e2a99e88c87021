"""Data-driven emulation of mobile networks.

Builds kernel density models of (download bandwidth, upload bandwidth,
latency) from speed-test measurements, and replays them through traffic
shaping commands, a dry-run command log, or an in-process simulated link.
"""

__version__ = "0.1.0"

from .backends import (
    DryRunBackend,
    ShapingBackend,
    SimulatedBackend,
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
    Profile,
    ProfileKey,
    ProfileKind,
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
