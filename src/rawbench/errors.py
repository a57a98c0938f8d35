"""Exception and warning types shared across the package."""


class RawBenchError(Exception):
    """Base class for all rawbench errors."""


class DimensionError(RawBenchError):
    """Array shapes are incompatible with the requested operation."""


class FormatError(RawBenchError):
    """Malformed RAWB container (bad magic, truncated payload, dtype mismatch)."""


class ProfileError(RawBenchError):
    """Sensor profile is missing, inconsistent, or has invalid levels."""


class InsufficientData(RawBenchError):
    """Not enough frames / points for the requested estimate."""


class DomainError(RawBenchError):
    """Input values outside the mathematical domain of an operation."""


class DataError(RawBenchError):
    """Bad score/metric data (NaN, unknown metric name, non-numeric value)."""


class SpecError(RawBenchError):
    """Invalid network layer specification."""


class ManifestError(RawBenchError):
    """Invalid dataset manifest."""


class MissingDataError(RawBenchError):
    """Referenced files (predictions, ground truth) are absent."""


class CalibrationWarning(UserWarning):
    """Estimated calibration values are suspicious (e.g. non-positive gain)."""
