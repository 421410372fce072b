"""Spanning-tree counts from the zeta derivative and from closed forms.

The third method, Kirchhoff's cofactor, is multigraph.kirchhoff_tree_count.
The zeta route reads the count out of the r-th derivative of the
reciprocal zeta polynomial at u = 1, where r is the cycle rank. The
division it performs must come out exact; that exactness doubles as an
end-to-end check that the polynomial and the rank belong to the same
graph.
"""

from __future__ import annotations

from math import factorial

from .errors import DegenerateRankError, ParameterError, VerificationError
from .families import FamilySpec, check_domain
from .intpoly import IntPoly


def tree_count_from_zeta(poly: IntPoly, r: int) -> int:
    """Spanning-tree count from the reciprocal zeta polynomial.

    kappa = (d^r/du^r poly)(1) / ((-1)^(r-1) 2^r r! (r-1)) for cycle rank
    r >= 2. At r = 1 the divisor is zero and the derivative carries no
    information, so callers get DegenerateRankError and should fall back
    to multigraph.kirchhoff_tree_count.
    """
    if r <= 1:
        raise DegenerateRankError(
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


# Families with a published closed-form count, as functions of the
# FamilySpec parameters. CocktailParty/MatchingDeleted params are the
# order 2n; the formulas below are written in n.
def _kappa_cocktail_party(order):
    n = order // 2
    return 4 ** (n - 1) * n ** (n - 2) * (n - 1) ** n


def _kappa_matching_deleted(order):
    n = order // 2
    return n ** (n - 2) * (n - 2) ** (n - 1) * (n - 1)


def _kappa_mobius_ladder(n):
    # (m/2)(L_m + 2) with m = n/2, L_0 = 2, L_1 = 4, L_k = 4L_(k-1) - L_(k-2);
    # every L_k is even, so the halving is exact
    m = n // 2
    prev, cur = 2, 4
    for _ in range(m - 1):
        prev, cur = cur, 4 * cur - prev
    return m * ((cur + 2) // 2)


_CLOSED_FORMS = {
    "Complete": lambda n: n ** (n - 2),
    "CompleteBipartite": lambda m, n: m ** (n - 1) * n ** (m - 1),
    "CocktailParty": _kappa_cocktail_party,
    "MatchingDeleted": _kappa_matching_deleted,
    "MobiusLadder": _kappa_mobius_ladder,
    "DoubleCycle": lambda m, n: m * n,
    "SharedPath": lambda m, n, p: m * n - p * p,
    "Handcuff": lambda m, n, l: m * n,
}


def tree_count_closed_form(spec: FamilySpec) -> int:
    """Closed-form spanning-tree count for the families that have one."""
    check_domain(spec)
    formula = _CLOSED_FORMS.get(spec.tag)
    if formula is None:
        raise ParameterError(
            f"no closed-form tree count for family {spec.tag}"
        )
    return formula(*spec.params)
