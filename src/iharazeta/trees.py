"""Spanning-tree counts from the zeta polynomial's Taylor coefficient at u = 1.

The other two methods live beside the data they need: Kirchhoff's
cofactor is multigraph.kirchhoff_tree_count, and the per-family closed
forms are families.tree_count_closed_form. The zeta route reads the
count out of the r-th Taylor coefficient at u = 1 of the reciprocal
zeta polynomial, where r is the cycle rank. The division it performs
must come out exact and give at least one tree; that doubles as a check
that the polynomial and the rank belong to the same graph.
"""

from __future__ import annotations

from .errors import ParameterError, VerificationError
from .intpoly import IntPoly


def tree_count_from_zeta(poly: IntPoly, r: int) -> int:
    """Spanning-tree count from the reciprocal zeta polynomial.

    kappa = (d^r/du^r poly)(1) / ((-1)^(r-1) 2^r r! (r-1)) for cycle rank
    r >= 2 (Northshield 1998). The r! is never formed: expanding u^k =
    (1 + (u - 1))^k gives poly^(r)(1) / r! = sum_k C(k, r) c_k, the r-th
    Taylor coefficient at u = 1, summed here with C(k, r) updated from k
    to k + 1. At r = 1 the divisor is zero and the coefficient carries no
    information, so r <= 1 is a ParameterError and callers should fall
    back to multigraph.kirchhoff_tree_count.

    A wrong rank raises VerificationError where it shows: below the true
    rank the coefficient is 0, and above it the division is mostly inexact
    or gives fewer than one tree. It can still divide to a positive count.
    """
    if r <= 1:
        raise ParameterError(
            f"rank {r} graphs determine no tree count from the zeta "
            "polynomial; use kirchhoff_tree_count"
        )
    numerator = 0
    binom = 1  # C(k, r), starting at k = r
    for k, c in enumerate(poly.coeffs[r:], r):
        numerator += binom * c
        binom = binom * (k + 1) // (k + 1 - r)
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
    return kappa
