"""Exception types shared across the package.

The CLI maps these onto exit codes, so the taxonomy mirrors the failure
classes a caller can act on: bad input (2), an intentional size cap (3),
and detected disagreement between things that must agree (1).
"""


class ZetaError(Exception):
    """Base class for all package-specific errors."""


class InputError(ZetaError):
    """Malformed user input: unreadable file, bad edge list, bad spec string."""


class ParameterError(InputError):
    """A family or spec parameter outside its legal domain."""


class GraphValidationError(ZetaError):
    """Graph violates the standing hypotheses (connected, min degree >= 2)."""


class DegenerateRankError(ZetaError):
    """Rank too small for the zeta-derivative tree count; use Kirchhoff."""


class SizeCapError(ZetaError):
    """Instance exceeds an intentional scale limit (not a failure)."""


class ConsistencyError(ZetaError):
    """Internal arithmetic cross-check failed; indicates a genuine bug."""


class VerificationError(ZetaError):
    """A mathematical cross-check between independent computations failed.

    The message always names the check that failed, so a violation is
    diagnosable from the error alone.
    """
