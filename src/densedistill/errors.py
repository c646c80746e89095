"""Exception taxonomy shared by all modules.

Each failure mode raises a distinct class so callers (and the CLI exit-code
mapping) can tell validation problems apart from I/O problems.
"""


class ShapeError(ValueError):
    """Operand shapes are incompatible with the operation."""


class ParameterError(ValueError):
    """A scalar/config argument is outside its valid range."""


class DegenerateInputError(ValueError):
    """Input is structurally valid but numerically degenerate (zero norms, empty masks)."""


class DistributionError(ValueError):
    """A matrix that must be row-stochastic is not."""


class EvaluationError(ArithmeticError):
    """An exposed operation produced NaN or Inf."""


class ModeError(RuntimeError):
    """An operation was invoked on a model in the wrong role (e.g. frozen teacher)."""


class ConfigError(ValueError):
    """Config file has unknown keys, unparsable values, or range violations."""


class ContainerError(Exception):
    """Base class for tensor-container file problems."""


class MagicError(ContainerError):
    """File does not start with the container magic bytes."""


class VersionError(ContainerError):
    """Container version is not supported."""


class OffsetError(ContainerError):
    """A section's payload offset/extent does not fit inside the file."""


class DimensionError(ContainerError):
    """A section's dims exceed what this platform can index."""


class TruncationError(ContainerError):
    """File ends before a declared payload or table entry."""


class DuplicateNameError(ContainerError):
    """Two sections share a name."""


class SectionNameError(ContainerError):
    """A section name in the table is not ASCII."""
