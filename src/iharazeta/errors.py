"""Exception types shared across the package.

One class per failure a caller can act on, each carrying the CLI's exit
code for it: bad input (2), an intentional size cap (3), and a
disagreement between computations that must agree (1).
"""


class ZetaError(Exception):
    """Base class for all package-specific errors."""


class InputError(ZetaError):
    """Input the package rejects: unreadable file, bad edge list, bad spec,
    or a graph outside the standing hypotheses (connected, min degree 2)."""

    exit_code = 2


class ParameterError(InputError):
    """A family, spec or rank parameter outside its legal domain."""


class SizeCapError(ZetaError):
    """Instance exceeds an intentional scale limit (not a failure)."""

    exit_code = 3


class VerificationError(ZetaError):
    """A cross-check between independent computations failed.

    The message always names the check that failed, so a violation is
    diagnosable from the error alone.
    """

    exit_code = 1
