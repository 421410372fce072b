"""Rank-two multigraphs: enumeration, and the spec read off the zeta.

A connected multigraph of minimum degree two whose cycle rank is two is
one of exactly three shapes: two cycles sharing a single vertex, two
cycles sharing a path, or two cycles joined by a path: the subdivisions
of the figure-eight, theta and handcuff kernels. Each shape is a family
tag (DoubleCycle, SharedPath, Handcuff), so the catalogue is the length
assignments on those three kernels (smallgraphs.length_assignments, the
generator of the exhaustive sweep), with a brute-force audit at small
sizes to certify nothing was missed. A spec is canonical when m <= n,
and for SharedPath when its three internal paths run p <= m - p <= n - p.

decode_rank2 inverts the three closed forms: it reads the canonical spec
back off a reciprocal zeta polynomial, so the zeta function determines a
rank-two graph at every size the closed forms hold. completeness_check
decodes the linedet polynomial, det(I - uT) on the oriented line graph,
of every canonical spec up to an edge budget and returns each spec with
its polynomial; every column of the CLI's rank2 table is a readout of
that polynomial. linedet rather than Bass: every directed edge into a
degree-2 vertex has exactly one successor, so on these graphs T is
nearly a permutation matrix, with fewer nonzeros for the kernel than
Bass's B.
"""

from __future__ import annotations

from .errors import ParameterError, VerificationError
from .families import FamilySpec, gen_family
from .intpoly import IntPoly
from .smallgraphs import length_assignments
from .zeta import zeta_line_det

RANK_TWO_TAGS = ("DoubleCycle", "SharedPath", "Handcuff")


def enumerate_rank2(max_edges: int) -> list[FamilySpec]:
    """All canonical rank-two specs with at most max_edges edges.

    Ordered by edge count, then shape, then parameters.
    """
    if max_edges < 2:
        raise ParameterError("rank-two graphs need at least 2 edges")
    # (edge count, shape, params) over the figure-eight, theta and
    # handcuff kernels; the handcuff's slots run (m, l, n), and m <= n is
    # its loop swap, which no within-slot order sees
    keyed = [(m + n, 0, (m, n))
             for (m, n), in length_assignments([2], max_edges)]
    keyed += [(p + s + t, 1, (p + s, p + t, p))
              for (p, s, t), in length_assignments([3], max_edges)]
    keyed += [(m + l + n, 2, (m, n, l))
              for (m,), (l,), (n,) in length_assignments([1, 1, 1], max_edges)
              if m <= n]
    keyed.sort()
    return [FamilySpec(RANK_TWO_TAGS[shape], params)
            for _, shape, params in keyed]


def decode_rank2(poly: IntPoly) -> FamilySpec | None:
    """The canonical rank-two spec whose reciprocal zeta polynomial is
    poly, or None when poly cannot be one.

    A connected graph of minimum degree two and rank r has leading
    coefficient (-1)^(r-1) * prod(d - 1) over its vertex degrees d, where
    sum(d - 2) = 2(r - 1). As prod(1 + (d - 2)) >= 1 + sum(d - 2) = 2r - 1,
    it is 1 at rank one and at least 5 in size above rank two. At rank
    two it is -3 (one vertex of degree 4: DoubleCycle) or -4 (two of
    degree 3: SharedPath, Handcuff). Let E be half the degree and m the
    first power after u^0 with a nonzero coefficient. The powers listed
    below are those of the expanded closed forms. Term by term:

    - DoubleCycle(m, n): the powers are 0, m, n, 2m, 2n, 2m+n, m+2n and
      2E = 2(m + n), so m is the smallest and n = E - m.
    - Handcuff(m, n, l): the powers are 0, m, n, 2m, then m + n and up.
      c_m is -2, or -4 when m = n. Below n only u^(2m) (+1) can sit, and
      c_n is -2, or -1 when n = 2m, so n is the next negative power.
      Then l = E - m - n >= 1.
    - SharedPath(m, n, p) with internal paths p <= s <= t, m = p + s,
      n = p + t: the negative powers are m, n, s + t >= n and 2E, with
      E = m + n - p. c_m is -2, or -4 when m = n < s + t, or -6 when
      p = s = t. Below n only u^(2m) (+1) is positive, and c_n is at most
      -1, so n is the next negative power. Then p = m + n - E >= 1.

    So every canonical spec decodes to itself: the decoder is a left
    inverse of the closed forms, and no two specs share a polynomial.
    """
    half, m = poly.degree // 2, poly.first_nonzero_power(start=1)
    if m is None or poly.leading_coeff not in (-3, -4):
        return None
    if poly.leading_coeff == -3:
        return FamilySpec("DoubleCycle", (m, half - m))
    n = m if poly.coeff(m) in (-4, -6) else next(
        (k for k in range(m + 1, poly.degree) if poly.coeff(k) < 0), None)
    if n is None:
        return None
    if m + n < half:
        return FamilySpec("Handcuff", (m, n, half - m - n))
    return FamilySpec("SharedPath", (m, n, m + n - half))


def completeness_check(max_edges: int) -> tuple[tuple[FamilySpec, IntPoly], ...]:
    """Decode the linedet polynomial (zeta_line_det) of every canonical
    rank-two spec up to max_edges edges back to that spec, and return the
    (spec, polynomial) pairs in enumeration order.

    A spec that decodes to anything else raises VerificationError naming
    both. Since the decoder is a function, success also shows the
    polynomials pairwise distinct. The edge count, leading coefficient,
    girth and tree count are all readouts of the polynomial. Each spec
    makes one Bareiss determinant, the engine's output check at u = 2:
    det(I - 2T) must equal (-3)^(r-1) det(I - 2A + 4Q) (Ihara-Bass), which
    ties T to a second, vertex-indexed matrix.
    """
    pairs = []
    for spec in enumerate_rank2(max_edges):
        poly = zeta_line_det(gen_family(spec))
        decoded = decode_rank2(poly)
        if decoded != spec:
            raise VerificationError(
                f"the zeta polynomial of rank-two spec {spec} decodes to "
                f"{decoded}"
            )
        pairs.append((spec, poly))
    return tuple(pairs)
