"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Invalid hyperparameter, option, or experiment configuration."""


class DomainError(ValueError):
    """An input value is outside the mathematical domain (NaN, inf, ...)."""


class DivergenceError(RuntimeError):
    """An optimizer produced a non-finite objective value."""


class ExperimentError(RuntimeError):
    """Too many replicates of a Monte Carlo experiment failed."""
