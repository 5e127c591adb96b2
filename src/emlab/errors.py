"""Exception types shared across the package."""


class EmlabError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(EmlabError):
    """Invalid or unparseable run configuration."""


class EvaluationError(EmlabError):
    """A model expression produced a non-finite value."""


class OriginLimitError(EvaluationError):
    """The p -> 0 limit of F_p/p was requested for a model that is not
    smooth at the origin."""


class DegenerateGridError(EmlabError):
    """The grid spacing is too coarse for the requested shape."""


class EllipticityError(EmlabError):
    """Non-positive diffusion coefficient detected during a solve."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class UnconvergedError(EmlabError):
    """An analysis was asked to run on an unconverged solution."""
