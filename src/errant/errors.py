"""Exception hierarchy shared across the toolkit."""


class ErrantError(Exception):
    """Base class for all toolkit errors."""


class FormatError(ErrantError, ValueError):
    """Malformed or out-of-range input, e.g. a missing CSV column or an empty interface name."""


class FitError(ErrantError):
    """Model fitting failed (too few samples, zero variance, singular covariance)."""


class PathologicalModelError(ErrantError):
    """Sampling rejects nearly every draw; the model cannot produce positive values."""


class ModelFileError(ErrantError):
    """Model file cannot be read, written, or decoded."""


class VersionError(ModelFileError):
    """Model file declares a format version this build does not support."""


class CorruptModelError(ModelFileError):
    """Model file contents violate a model invariant."""


class ScenarioError(ErrantError):
    """Scenario file is malformed or references profiles that are not available."""


class PresetError(ErrantError):
    """Unknown (tool, profile) pair in the static preset catalog."""


class BackendError(ErrantError):
    """A shaping backend failed to apply or could not be used."""
