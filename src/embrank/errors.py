"""Exception types shared across the package."""


class EmbrankError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(EmbrankError, ValueError):
    """Operand shapes are incompatible for the requested operation."""


class DegenerateInputError(EmbrankError, ValueError):
    """Input is numerically degenerate (e.g. zero-norm vector fed to cosine)."""


class NumericError(EmbrankError, FloatingPointError):
    """A forward operation produced (or received) NaN/Inf."""


class DataFormatError(EmbrankError, ValueError):
    """A data file is malformed; message carries the file and line number."""


class ConfigError(EmbrankError, ValueError):
    """A configuration value or key is invalid."""


class TrainingError(EmbrankError, RuntimeError):
    """Training aborted (e.g. non-finite loss); message carries the step index."""
