"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Invalid hyperparameter, option, or experiment configuration."""


class FormatError(ConfigurationError):
    """Malformed file or stream; ``offset`` is the byte position of the problem."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class DomainError(ValueError):
    """An input value is outside the mathematical domain (NaN, inf, ...)."""


class DivergenceError(RuntimeError):
    """An optimizer produced a non-finite objective value."""


class ExperimentError(RuntimeError):
    """Too many replicates of a Monte Carlo experiment failed."""
