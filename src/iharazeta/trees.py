"""Spanning-tree counts from the zeta derivative.

The other two methods live beside the data they need: Kirchhoff's
cofactor is multigraph.kirchhoff_tree_count, and the per-family closed
forms are families.tree_count_closed_form. The zeta route reads the
count out of the r-th derivative of the reciprocal zeta polynomial at
u = 1, where r is the cycle rank. The division it performs must come out
exact; that exactness doubles as an end-to-end check that the polynomial
and the rank belong to the same graph.
"""

from __future__ import annotations

from math import factorial

from .errors import ParameterError, VerificationError
from .intpoly import IntPoly


def tree_count_from_zeta(poly: IntPoly, r: int) -> int:
    """Spanning-tree count from the reciprocal zeta polynomial.

    kappa = (d^r/du^r poly)(1) / ((-1)^(r-1) 2^r r! (r-1)) for cycle rank
    r >= 2. At r = 1 the divisor is zero and the derivative carries no
    information, so r <= 1 is a ParameterError and callers should fall
    back to multigraph.kirchhoff_tree_count.
    """
    if r <= 1:
        raise ParameterError(
            f"rank {r} graphs determine no tree count from the zeta "
            "derivative; use kirchhoff_tree_count"
        )
    numerator = poly.derivative(r).eval_at(1)
    divisor = (-1) ** (r - 1) * 2 ** r * factorial(r) * (r - 1)
    kappa, remainder = divmod(numerator, divisor)
    if remainder:
        raise VerificationError(
            f"zeta derivative {numerator} not divisible by {divisor}; "
            "polynomial and rank do not match"
        )
    return kappa

