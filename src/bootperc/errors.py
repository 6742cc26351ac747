"""Exception hierarchy shared across the package.

Exit codes used by the CLI: 2 for argument/validation problems, 3 for
model-level refusals (a question the theory does not answer for the given
inputs).
"""


class BootpercError(Exception):
    """Base class; `exit_code` drives the CLI exit status."""

    exit_code = 1


class ParameterError(BootpercError, ValueError):
    """Invalid parameter or malformed input."""

    exit_code = 2


class MemoryGuardError(ParameterError):
    """Requested instance exceeds a configured resource cap."""


class EpsOutOfRange(BootpercError):
    """The requested deviation level lies outside the admissible range."""

    exit_code = 3


class UnsupportedCombination(BootpercError):
    """No tail-exponent prediction exists for this (regime, family) pair."""

    exit_code = 3


class RegimeMismatch(BootpercError):
    """The requested diagnostic only applies in a different regime."""

    exit_code = 3


class DegenerateLevels(BootpercError):
    """A splitting level was never reached by any replicate, or a
    splitting ladder of several levels collapsed to level 0 alone."""

    exit_code = 3
