"""Spanning-tree counts from the zeta polynomial's Taylor coefficient at u = 1.

The other two methods live beside the data they need: Kirchhoff's
cofactor is multigraph.kirchhoff_tree_count, and the per-family closed
forms are families.tree_count_closed_form. The zeta route reads the
count out of the r-th Taylor coefficient at u = 1 of the reciprocal
zeta polynomial, where r is the cycle rank. The division it performs
must come out exact and give at least one tree, and the (r - 1)-th
coefficient must be 0; that doubles as a check that the polynomial and
the rank belong to the same graph.
"""

from __future__ import annotations

from .errors import ParameterError, VerificationError
from .intpoly import IntPoly


def tree_count_from_zeta(poly: IntPoly, r: int) -> int:
    """Spanning-tree count from the reciprocal zeta polynomial.

    kappa = (d^r/du^r poly)(1) / ((-1)^(r-1) 2^r r! (r-1)) for cycle rank
    r >= 2 (Northshield 1998). The r! is never formed: expanding u^k =
    (1 + (u - 1))^k gives poly^(r)(1) / r! = sum_k C(k, r) c_k, the r-th
    Taylor coefficient at u = 1. The same pass sums the (r - 1)-th,
    sum_k C(k, r - 1) c_k, which must be 0: a rank-r graph's polynomial
    has a zero of order r at u = 1 ((1 - u^2)^(r-1) times det(I - Au +
    Qu^2), which vanishes at u = 1 as det of the Laplacian). Both
    binomials are updated from k to k + 1. At r = 1 the divisor is zero
    and the coefficient carries no information, so r <= 1 is a
    ParameterError and callers should fall back to
    multigraph.kirchhoff_tree_count.

    A wrong rank raises VerificationError where it shows: below the true
    rank the r-th coefficient is 0, so the count is 0; above it the
    division is mostly inexact or gives fewer than one tree, and a wrong
    rank that still divides to a positive count leaves a nonzero
    (r - 1)-th coefficient. One above the true rank that coefficient is
    the true rank's, which carries the tree count, so it is never 0.
    Further above it could vanish as well, but on the connected
    multigraphs of up to 7 edges no rank up to 5 above the true one
    passes all three checks.
    """
    if r <= 1:
        raise ParameterError(
            f"rank {r} graphs determine no tree count from the zeta "
            "polynomial; use kirchhoff_tree_count"
        )
    lower = numerator = 0
    below, binom = 1, 0  # C(k, r - 1) and C(k, r), starting at k = r - 1
    for k, c in enumerate(poly.coeffs[r - 1:], r - 1):
        lower += below * c
        numerator += binom * c
        below, binom = below * (k + 1) // (k + 2 - r), binom + below
    divisor = (-1) ** (r - 1) * 2 ** r * (r - 1)
    kappa, remainder = divmod(numerator, divisor)
    if remainder:
        raise VerificationError(
            f"zeta Taylor coefficient {numerator} at u = 1 not divisible "
            f"by {divisor}; polynomial and rank do not match"
        )
    if kappa < 1:
        raise VerificationError(
            f"zeta Taylor coefficient {numerator} at u = 1 gives {kappa} "
            "spanning trees; polynomial and rank do not match"
        )
    if lower:
        raise VerificationError(
            f"zeta Taylor coefficient of order {r - 1} at u = 1 is {lower}, "
            "not 0; polynomial and rank do not match"
        )
    return kappa
