"""Exception types shared across the pipeline.

The CLI maps these onto exit codes; library code raises them directly.
"""


class PipelineError(Exception):
    """Base class for every error this package raises deliberately."""


class ValidationError(PipelineError):
    """Input data or arguments violate a documented contract."""


class ParseError(ValidationError):
    """A file could not be parsed; the message names the offending line."""


class InsufficientDataError(ValidationError):
    """Not enough usable points for the requested computation."""


class StateError(PipelineError):
    """Operation needs state the object does not carry yet (e.g. unfitted periods)."""


class ConvergenceError(PipelineError):
    """An iterative numerical routine did not converge."""


class ConfigError(PipelineError):
    """Invalid or incomplete run configuration."""
