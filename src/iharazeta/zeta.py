"""The three zeta-reciprocal engines and the oriented line graph they share.

For a connected multigraph with min degree 2, the reciprocal of the Ihara
zeta function is a polynomial of degree exactly 2|E|. Three independent
computations of it live here:

* zeta_bass:     (1 - u^2)^(r-1) * det(I - Au + Qu^2), r = |E| - |V| + 1;
* zeta_line_det: det(I - uT) with T the arc matrix of the oriented line
                 graph on the 2|E| directed edges;
* zeta_enum:     signed exhaustive count of vertex-disjoint directed-cycle
                 packings (linear subgraphs) of the oriented line graph,
                 one coefficient per packing size; its dynamic program
                 sums each transition per vertex of G, minus the
                 backtrack, and drops zero-count states.

The oriented line graph is kept as two columns, (origin, terminus), over
the 2|E| directed edges; its arcs follow from them by one rule (see
oriented_line_graph).

The first two run in polynomial time through one exact det(I - uM)
kernel (one pass modulo a Proth prime above twice the Euclidean Hadamard
bound); their independence lies in the matrices they pass it. Each
passes its matrix in an order the kernel's Hessenberg reduction fills in
less (Bass interleaves its two blocks vertex by vertex, linedet sorts the
directed edges by origin): a permutation similarity P M P^T, which
changes neither det(I - uM) nor the bound, hence not the prime. Each
checks the kernel's polynomial at u = 2 against Bareiss on its own matrix
in its natural order: I - 2A + 4Q for Bass, I - 2T in edge order for
linedet. The enumeration engine shares no arithmetic with them; it is an
exponential oracle capped by the number of directed edges. The exact
agreement of all three on every small multigraph is the package's core
acceptance test.
"""

from __future__ import annotations

from math import prod

from .errors import ConsistencyError, SizeCapError, VerificationError
from .intpoly import IntPoly
from .multigraph import (
    Multigraph,
    girth,
    is_bipartite,
    matrices,
    validate_zeta_input,
)
from .polydet import bareiss_int_det, reversed_charpoly

DEFAULT_ENUM_CAP = 16


# --- oriented line graph ---

def oriented_line_graph(g: Multigraph) -> tuple[tuple, tuple]:
    """(origin, terminus): the 2|E| directed edges of g, as two columns.

    Directed edge i runs from origin[i] to terminus[i]. Edge e of
    g.edge_list() yields i = 2e and i = 2e + 1, so i >> 1 is the parent
    edge, i & 1 says which orientation i is, and i ^ 1 is its inverse.
    The oriented line graph has an arc i -> j exactly when j != i ^ 1 and
    terminus[j] == origin[i]: the consecutive non-backtracking pairs, with
    arcs recorded backward relative to walk order; the determinant
    downstream is transpose-invariant, so the recording direction carries
    no content.

    This extends the line graph to loops and parallel edges. Each loop
    yields two directed self-edges at its vertex, declared mutual
    inverses: a loop may be traversed repeatedly in the same rotational
    sense (self-arc) but cannot immediately reverse. Parallel edges give
    distinct directed edges with edge-matched inverses, so leaving by one
    copy and returning by another is not a backtrack.
    """
    origin, terminus = [], []
    for u, v in g.edge_list():
        origin += (u, v)
        terminus += (v, u)
    return tuple(origin), tuple(terminus)


# --- output checks ---

def _checked(poly: IntPoly, engine: str, g: Multigraph) -> IntPoly:
    """poly, after checking that its degree is 2|E| and its constant term
    is 1; both hold for every graph the engines accept, so a failure is an
    engine fault."""
    e = g.edge_count
    if poly.degree != 2 * e:
        raise ConsistencyError(
            f"{engine}: degree {poly.degree} != 2|E| = {2 * e}"
        )
    if poly.coeff(0) != 1:
        raise ConsistencyError(f"{engine}: constant term {poly.coeff(0)} != 1")
    return poly


# --- engine A: three-term determinant ---

def zeta_bass(g: Multigraph) -> IntPoly:
    """(1 - u^2)^(r-1) * det(I - Au + Qu^2), all exact.

    The determinant is det(I - uB) for the 2|V| x 2|V| linearisation
    B = [[A, -Q], [I, 0]] (the reduced non-backtracking matrix of
    Krzakala et al., PNAS 2013): eliminating the lower block by a Schur
    complement leaves det(I - Au + Qu^2). The kernel gets B with rows and
    columns interleaved as (y_0, x_0, y_1, x_1, ...), x_v from the upper
    block and y_v from the lower: row y_v has its 1 at x_v, and row x_v
    has -q_v at y_v and a_vw at x_w. This is P B P^T for a permutation P,
    so det(I - uB) and the kernel's Hadamard bound (hence its prime) are
    those of the block order, and the Hessenberg reduction meets less
    fill. The check at u = 2 is Bareiss on I - 2A + 4Q itself.
    """
    validate_zeta_input(g)
    a, q = matrices(g)
    n = g.n
    b = []
    for v in range(n):
        y_row, x_row = [0] * (2 * n), [0] * (2 * n)
        y_row[2 * v + 1] = 1
        x_row[1::2] = a[v]
        x_row[2 * v] = -q[v][v]
        b += (y_row, x_row)
    det = _checked_kernel(b, [
        [int(i == j) - 2 * a[i][j] + 4 * q[i][j] for j in range(n)]
        for i in range(n)
    ], "bass")
    return _checked(IntPoly.one_minus_u2_pow(g.rank - 1) * det, "bass", g)


# --- engine B: line-graph determinant ---

def zeta_line_det(g: Multigraph) -> IntPoly:
    """det(I - uT) over the oriented line graph.

    The kernel gets T with the directed edges sorted by origin (stably),
    so the rows of the edges leaving one vertex are consecutive, each
    marking the edges into that vertex less the row's own inverse. This
    is P T P^T for a permutation P: det(I - uT) and the kernel's
    Hadamard bound are those of the edge order, and the Hessenberg
    reduction meets less fill. The check at u = 2 is Bareiss on I - 2T in
    edge order.
    """
    validate_zeta_input(g)
    origin, terminus = oriented_line_graph(g)
    order = sorted(range(len(origin)), key=origin.__getitem__)
    t = [
        [int(j != i ^ 1 and terminus[j] == origin[i]) for j in order]
        for i in order
    ]
    det = _checked_kernel(t, [
        [int(i == j) - 2 * (j != i ^ 1 and w == v)
         for j, w in enumerate(terminus)]
        for i, v in enumerate(origin)
    ], "linedet")
    return _checked(det, "linedet", g)


def _checked_kernel(m, matrix_at_two, engine: str) -> IntPoly:
    """det(I - uM), overdetermined by an independent Bareiss determinant of
    the engine's own matrix at u = 2."""
    det, want = reversed_charpoly(m), bareiss_int_det(matrix_at_two)
    if det.eval_at(2) != want:
        raise ConsistencyError(
            f"{engine}: determinant polynomial at u = 2 is {det.eval_at(2)}, "
            f"Bareiss on the matrix at u = 2 gives {want}"
        )
    return det


# --- engine C: linear-subgraph enumeration ---

def zeta_enum(g: Multigraph, cap: int = DEFAULT_ENUM_CAP) -> IntPoly:
    """Coefficients as signed counts of directed-cycle packings.

    c_k sums (-1)^(number of cycles) over all vertex-disjoint unions of
    directed cycles covering exactly k line-graph vertices; c_0 = 1. The
    cap bounds the number of line-graph vertices (2|E|) and is checked
    before the line graph is built; exceeding it is a SizeCapError, an
    intentional scale limit rather than a failure.
    """
    validate_zeta_input(g)
    if 2 * g.edge_count > cap:
        raise SizeCapError(
            f"enumeration engine capped at {cap} line-graph vertices, "
            f"this graph has {2 * g.edge_count}"
        )
    coeffs = _packing_coefficients(*oriented_line_graph(g))
    return _checked(IntPoly(coeffs), "enum", g)


def _packing_coefficients(origin, terminus):
    """[c_0 .. c_n] by dynamic programming over (support mask, endpoint).

    States are partial packings: a set of finished cycles plus one open
    path, built in decreasing order of cycle anchors (anchor = smallest
    vertex of a cycle), so each packing is produced exactly once. The open
    path's anchor is always the lowest bit of the support mask. Finishing
    a cycle flips the sign; the signed totals per support size are the
    coefficients.

    A path ending at w extends to x exactly when origin[w] = terminus[x]
    and w != x ^ 1. So per mask the open-path counts are summed by the
    graph vertex origin[w], and the count entering x is that vertex's sum
    minus the backtrack w = x ^ 1; closing uses the same formula with x
    the anchor. A state whose count is 0 is not created. Each state has
    exactly one predecessor mask, so it is written once, never added to.
    """
    n = len(origin)
    into = [0] * (max(terminus) + 1)  # into[v]: bits of the x ending at v
    for x, v in enumerate(terminus):
        into[v] |= 1 << x
    full = (1 << n) - 1
    c = [1] + [0] * n
    layer = {1 << a: {a: 1} for a in range(n)}
    k = 1
    while layer:
        nxt: dict[int, dict[int, int]] = {}
        for mask, ends in layer.items():
            low = mask & -mask
            anchor = low.bit_length() - 1
            free = full ^ mask ^ (low - 1)  # the x > anchor outside mask
            at: dict[int, int] = {}
            for w, cnt in ends.items():
                v = origin[w]
                at[v] = at.get(v, 0) + cnt
            for v, total in at.items():
                bits = into[v] & free
                while bits:
                    b = bits & -bits
                    bits ^= b
                    x = b.bit_length() - 1
                    cnt = total - ends.get(x ^ 1, 0)
                    if cnt:
                        nxt.setdefault(mask | b, {})[x] = cnt
            closed = ends.get(anchor ^ 1, 0) - at.get(terminus[anchor], 0)
            if closed:
                c[k] += closed
                for a2 in range(anchor):
                    nxt.setdefault(mask | 1 << a2, {})[a2] = closed
        layer = nxt
        k += 1
    return c


# --- explicit census for the contribution-table audits ---

def enumerate_directed_cycles(origin, terminus):
    """All simple directed cycles as (vertex mask, length), anchored at
    their smallest vertex. Exponential in general; meant for the sparse
    line graphs of the contribution-table checks."""
    n = len(origin)
    out = [
        [j for j in range(n) if j != i ^ 1 and terminus[j] == v]
        for i, v in enumerate(origin)
    ]
    cycles = []

    def walk(anchor, w, mask, length):
        for x in out[w]:
            if x == anchor:
                cycles.append((mask, length))
            elif x > anchor and not (mask >> x) & 1:
                walk(anchor, x, mask | (1 << x), length + 1)

    for a in range(n):
        walk(a, a, 1 << a, 1)
    return cycles


def linear_subgraph_census(origin, terminus):
    """Occurrence counts {(k, r): count} over all linear subgraphs.

    k is the number of line-graph vertices covered and r the number of
    cycles; c_k = sum_r (-1)^r * count[(k, r)]. This is a second,
    structurally different enumeration (explicit cycles, then disjoint
    packing) used to audit the coefficient tables.
    """
    cycles = enumerate_directed_cycles(origin, terminus)
    census: dict[tuple[int, int], int] = {}

    def pack(start, used, k, r):
        for i in range(start, len(cycles)):
            mask, length = cycles[i]
            if not mask & used:
                key = (k + length, r + 1)
                census[key] = census.get(key, 0) + 1
                pack(i + 1, used | mask, k + length, r + 1)

    pack(0, 0, 0, 0)
    return census


def census_coefficient(census, k: int) -> int:
    """c_k recovered from a census table (k >= 1)."""
    return sum(
        (-1 if r % 2 else 1) * cnt
        for (kk, r), cnt in census.items()
        if kk == k
    )


# --- polynomial-level invariant checks ---

def poly_invariants(poly: IntPoly, g: Multigraph) -> None:
    """Check the four polynomial-level readouts against graph structure.

    The degree must be 2|E|; the leading coefficient must be
    (-1)^(|E|-|V|) * prod(d(v) - 1); the first nonzero coefficient after
    c_0 must sit at the (generalized) girth; the polynomial is even iff the
    graph is bipartite. Any mismatch raises VerificationError naming the
    failed check.
    """
    e = g.edge_count
    expected_leading = (-1) ** (e - g.n) * prod(d - 1 for d in g.degrees())
    if poly.degree != 2 * e:
        raise VerificationError(
            f"degree check failed: {poly.degree} != 2|E| = {2 * e}"
        )
    if poly.leading_coeff != expected_leading:
        raise VerificationError(
            "leading-coefficient check failed: "
            f"{poly.leading_coeff} != {expected_leading}"
        )
    readout, structural = poly.first_nonzero_power(start=1), girth(g)
    if structural is None or readout != structural:
        raise VerificationError(
            f"girth readout check failed: first nonzero power {readout}, "
            f"structural girth {structural}"
        )
    bipartite = is_bipartite(g)
    if poly.is_even() != bipartite:
        raise VerificationError(
            f"evenness check failed: even={poly.is_even()}, "
            f"bipartite={bipartite}"
        )
