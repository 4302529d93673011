"""Exception taxonomy shared across the package."""


class FedaaError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(FedaaError):
    """Invalid argument, option value, or cross-option constraint."""


class ParseError(ConfigError):
    """Malformed config text; message carries the offending line number."""


class NumericError(FedaaError):
    """Non-finite values produced where finite ones are required."""


class IngestionError(FedaaError):
    """External dataset file failed structural validation."""


class SimulationError(FedaaError):
    """A round could not proceed (degenerate uploads, empty cohorts)."""


class InternalError(FedaaError):
    """Invariant violation that indicates a bug rather than bad input."""
