"""Rank-two multigraphs: canonical forms, enumeration, distinctness check.

A connected multigraph of minimum degree two whose cycle rank is two is
one of exactly three shapes: two cycles sharing a single vertex, two
cycles sharing a path, or two cycles joined by a path. Each shape is a
family tag (DoubleCycle, SharedPath, Handcuff), so enumeration is a walk
over parameter tuples, with a brute-force audit at small sizes to
certify nothing was missed.

completeness_check computes the reciprocal zeta polynomial of every
canonical spec up to an edge budget and asserts they are pairwise
distinct; its rows carry the polynomial and the tree count, so a
hypothetical collision would be diagnosable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParameterError, VerificationError
from .families import FamilySpec, check_domain, gen_family
from .intpoly import IntPoly
from .multigraph import kirchhoff_tree_count
from .zeta import zeta_bass

RANK_TWO_TAGS = ("DoubleCycle", "SharedPath", "Handcuff")


def canonicalize(spec: FamilySpec) -> FamilySpec:
    """The unique canonical representative of spec's isomorphism class.

    Parameters come back in normal form: m <= n for DoubleCycle and
    Handcuff; internal path lengths sorted so that 0 < 2p <= m <= n for
    SharedPath.
    """
    if spec.tag not in RANK_TWO_TAGS:
        raise ParameterError(f"{spec.tag!r} is not a rank-two shape")
    check_domain(spec)
    if spec.tag == "DoubleCycle":
        m, n = spec.params
        return FamilySpec(spec.tag, (min(m, n), max(m, n)))
    if spec.tag == "Handcuff":
        m, n, l = spec.params
        return FamilySpec(spec.tag, (min(m, n), max(m, n), l))
    m, n, p = spec.params
    # The graph is three internally disjoint paths between the branch
    # vertices; only the multiset of their lengths matters.
    s1, s2, s3 = sorted((p, m - p, n - p))
    return FamilySpec(spec.tag, (s1 + s2, s1 + s3, s1))


def enumerate_rank2(max_edges: int) -> list[FamilySpec]:
    """All canonical rank-two specs with at most max_edges edges.

    Ordered by edge count, then shape, then parameters.
    """
    if max_edges < 2:
        raise ParameterError("rank-two graphs need at least 2 edges")
    keyed = []  # (edge count, shape, params)
    for m in range(1, max_edges + 1):
        for n in range(m, max_edges - m + 1):
            keyed.append((m + n, 0, (m, n)))
    # SharedPath by internal path lengths p <= s2 <= s3, |E| = p+s2+s3
    for p in range(1, max_edges + 1):
        for s2 in range(p, max_edges + 1):
            for s3 in range(s2, max_edges - p - s2 + 1):
                keyed.append((p + s2 + s3, 1, (p + s2, p + s3, p)))
    for l in range(1, max_edges + 1):
        for m in range(1, max_edges + 1):
            for n in range(m, max_edges - l - m + 1):
                keyed.append((m + n + l, 2, (m, n, l)))
    keyed.sort()
    return [FamilySpec(RANK_TWO_TAGS[shape], params)
            for _, shape, params in keyed]


@dataclass(frozen=True)
class RankTwoRow:
    spec: FamilySpec
    edge_count: int
    poly: IntPoly
    tree_count: int


def completeness_check(max_edges: int) -> tuple[RankTwoRow, ...]:
    """Verify pairwise-distinct zeta polynomials across all canonical
    rank-two specs up to max_edges edges.

    A collision raises VerificationError naming both specs. Each row
    carries the spec's polynomial, from which the leading coefficient and
    the girth readout are read, and its Kirchhoff tree count: the
    invariants that drive the distinctness argument.
    """
    rows = []
    seen: dict[IntPoly, FamilySpec] = {}
    for spec in enumerate_rank2(max_edges):
        g = gen_family(spec)
        poly = zeta_bass(g)
        other = seen.get(poly)
        if other is not None:
            raise VerificationError(
                f"zeta collision between rank-two specs {other} and "
                f"{spec}: non-isomorphic graphs share a polynomial"
            )
        seen[poly] = spec
        rows.append(RankTwoRow(
            spec=spec,
            edge_count=g.edge_count,
            poly=poly,
            tree_count=kirchhoff_tree_count(g),
        ))
    return tuple(rows)
