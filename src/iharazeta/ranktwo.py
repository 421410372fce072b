"""Rank-two multigraphs: canonical forms, enumeration, distinctness check.

A connected multigraph of minimum degree two whose cycle rank is two is
one of exactly three shapes: two cycles sharing a single vertex, two
cycles sharing a path, or two cycles joined by a path. Each shape maps
onto a family tag (DoubleCycle, SharedPath, Handcuff), so enumeration is
a walk over parameter tuples, with a brute-force audit at small sizes to
certify nothing was missed.

completeness_check computes the reciprocal zeta polynomial of every
canonical spec up to an edge budget and asserts they are pairwise
distinct, reporting the invariants that separate them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParameterError, VerificationError
from .families import FamilySpec, check_domain, gen_family
from .intpoly import IntPoly
from .multigraph import kirchhoff_tree_count
from .zeta import zeta_bass

RANK_TWO_TAGS = ("DoubleCycle", "SharedPath", "Handcuff")


@dataclass(frozen=True)
class RankTwoSpec:
    """One of the three rank-two shapes with its parameters.

    rank_two_spec, canonicalize and enumerate_rank2 return parameters in
    normal form: m <= n for DoubleCycle and Handcuff; internal path lengths
    sorted so that 0 < 2p <= m <= n for SharedPath.
    """

    shape: str
    params: tuple

    def family(self) -> FamilySpec:
        return FamilySpec(self.shape, self.params)

    def edge_count(self) -> int:
        if self.shape == "DoubleCycle":
            return sum(self.params)
        if self.shape == "SharedPath":
            m, n, p = self.params
            return m + n - p
        m, n, l = self.params
        return m + n + l

    def __str__(self):
        return str(self.family())


def rank_two_spec(shape: str, *params) -> RankTwoSpec:
    if shape not in RANK_TWO_TAGS:
        raise ParameterError(f"{shape!r} is not a rank-two shape")
    spec = RankTwoSpec(shape, tuple(params))
    check_domain(spec.family())
    return canonicalize(spec)


def canonicalize(spec: RankTwoSpec) -> RankTwoSpec:
    """The unique canonical representative of spec's isomorphism class."""
    check_domain(spec.family())
    if spec.shape == "DoubleCycle":
        m, n = spec.params
        return RankTwoSpec(spec.shape, (min(m, n), max(m, n)))
    if spec.shape == "Handcuff":
        m, n, l = spec.params
        return RankTwoSpec(spec.shape, (min(m, n), max(m, n), l))
    m, n, p = spec.params
    # The graph is three internally disjoint paths between the branch
    # vertices; only the multiset of their lengths matters.
    s1, s2, s3 = sorted((p, m - p, n - p))
    return RankTwoSpec(spec.shape, (s1 + s2, s1 + s3, s1))


def enumerate_rank2(max_edges: int) -> list[RankTwoSpec]:
    """All canonical rank-two specs with at most max_edges edges.

    Ordered by edge count, then shape, then parameters.
    """
    if max_edges < 2:
        raise ParameterError("rank-two graphs need at least 2 edges")
    specs = []
    for m in range(1, max_edges + 1):
        for n in range(m, max_edges - m + 1):
            specs.append(RankTwoSpec("DoubleCycle", (m, n)))
    # SharedPath by internal path lengths p <= s2 <= s3, |E| = p+s2+s3
    for p in range(1, max_edges + 1):
        for s2 in range(p, max_edges + 1):
            for s3 in range(s2, max_edges - p - s2 + 1):
                specs.append(RankTwoSpec("SharedPath", (p + s2, p + s3, p)))
    for l in range(1, max_edges + 1):
        for m in range(1, max_edges + 1):
            for n in range(m, max_edges - l - m + 1):
                specs.append(RankTwoSpec("Handcuff", (m, n, l)))
    order = {shape: i for i, shape in enumerate(RANK_TWO_TAGS)}
    specs.sort(key=lambda s: (s.edge_count(), order[s.shape], s.params))
    return specs


@dataclass(frozen=True)
class RankTwoRow:
    spec: RankTwoSpec
    edge_count: int
    poly: IntPoly
    leading_coeff: int
    girth_readout: int
    tree_count: int


@dataclass(frozen=True)
class CompletenessReport:
    max_edges: int
    rows: tuple


def completeness_check(max_edges: int) -> CompletenessReport:
    """Verify pairwise-distinct zeta polynomials across all canonical
    rank-two specs up to max_edges edges.

    A collision raises VerificationError naming both specs; the report
    rows carry the invariants (leading coefficient, girth readout, tree
    count) that drive the distinctness argument, so a hypothetical
    collision would be diagnosable.
    """
    rows = []
    seen: dict[IntPoly, RankTwoSpec] = {}
    for spec in enumerate_rank2(max_edges):
        g = gen_family(spec.family())
        report = zeta_bass(g)
        other = seen.get(report.poly)
        if other is not None:
            raise VerificationError(
                f"zeta collision between rank-two specs {other} and "
                f"{spec}: non-isomorphic graphs share a polynomial"
            )
        seen[report.poly] = spec
        rows.append(RankTwoRow(
            spec=spec,
            edge_count=spec.edge_count(),
            poly=report.poly,
            leading_coeff=report.leading_coeff,
            girth_readout=report.girth_readout,
            tree_count=kirchhoff_tree_count(g),
        ))
    return CompletenessReport(max_edges, tuple(rows))
